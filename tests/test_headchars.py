"""Canonical series, head character constructions, and theorem report tests."""

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import oracle_gallagher_family
from _products import PAIRS, direct_product
from formata import groups
from formata.catalog import catalog_group, load_catalog
from formata.characters import character_table, deflate
from formata.cli import VERIFY_FORMATIONS
from formata.errors import DomainError, NoStrongSeriesError, UnsupportedGroupError
from formata.formations import Formation, navarro_condition, projector, residual
from formata.groups import (
    PermGroup,
    _coset_action,
    generate,
    h_composition_series,
    is_invariant_under,
    normal_subgroups,
    subgroup_product,
)
from formata.headchars import (
    ascent_states,
    canonical_series,
    counting_check,
    counting_report,
    extension_transfer_check,
    fprime_ascending,
    fprime_descending_test,
    gallagher_family,
    is_head_character,
    strong_series_for,
    theorem_54_report,
    theorem_a_report,
    theorem_b_report,
    theorem_c_report,
    unique_invariant_above,
    unique_invariant_below,
)

NIL = Formation.parse("nilpotent")
SUP = Formation.parse("supersolvable")


def trivial_subgroup(G):
    return PermGroup.from_elements(G, [G.identity()])


def same_values(a, b, S):
    return all(a(g) == b(g) for g in S.elements())


def is_trivial_char(ch):
    return ch.degree().as_int() == 1 and all(v == ch.values[0] for v in ch.values)


# ---------------------------------------------------------------- canonical series


def test_canonical_series_s4_nilpotent():
    G = catalog_group("S4")
    cs = canonical_series(G, NIL)
    assert cs.m == 1
    ((K0, L0),) = cs.pairs
    assert K0.order() == 12
    assert L0.order() == 4
    assert cs.projector.order() == 8
    assert cs.level(0).order() == 24
    assert cs.level(1).order() == 8


def test_canonical_series_s4_supersolvable():
    G = catalog_group("S4")
    cs = canonical_series(G, SUP)
    assert cs.m == 1
    ((K0, L0),) = cs.pairs
    assert K0.order() == 4
    assert L0.order() == 1
    assert cs.projector.order() == 6


def test_canonical_series_member_is_empty():
    assert canonical_series(catalog_group("D8"), NIL).m == 0
    assert canonical_series(catalog_group("C6"), SUP).m == 0
    assert canonical_series(catalog_group("C6"), SUP).pairs == ()


def test_canonical_series_2s4_nilpotent():
    cs = canonical_series(catalog_group("2S4"), NIL)
    assert cs.m == 1
    assert [(K.order(), L.order()) for K, L in cs.pairs] == [(24, 8)]
    assert cs.projector.order() == 16


def test_canonical_series_rejects_unsupported():
    G = catalog_group("S4")
    with pytest.raises(UnsupportedGroupError):
        canonical_series(G, Formation.parse("p-groups:2"))
    A5 = generate(5, ["(0 1 2 3 4)", "(0 1 2)"])
    with pytest.raises(UnsupportedGroupError):
        canonical_series(A5, NIL)


@pytest.mark.parametrize(
    "name,fname",
    [("S4", "nilpotent"), ("S4", "supersolvable"), ("SL23", "nilpotent"), ("G75", "supersolvable"), ("D12", "nilpotent")],
)
def test_canonical_series_invariants(name, fname):
    G = catalog_group(name)
    F = Formation.parse(fname)
    cs = canonical_series(G, F)
    H = cs.projector
    assert (cs.m == 0) == F.is_member(G)
    if cs.m == 0:
        return
    assert cs.pairs[0][0].same_group_as(residual(G, F))
    for i, (K, L) in enumerate(cs.pairs):
        assert L.same_group_as(K.derived_subgroup())
        assert navarro_condition(cs.level(i), K, L, H)
        if i > 0:
            prevL = cs.pairs[i - 1][1]
            assert K.is_subgroup_of(prevL)
            assert cs.level(i).same_group_as(subgroup_product(prevL, H))
    assert cs.pairs[-1][1].is_subgroup_of(H)


# ---------------------------------------------------------------- ascending sets


def test_heads_s4_nilpotent_degrees():
    G = catalog_group("S4")
    heads = fprime_ascending(G, NIL)
    assert sorted(ch.degree().as_int() for ch in heads) == [1, 1, 3, 3]


def test_heads_s4_supersolvable_are_linear():
    G = catalog_group("S4")
    heads = fprime_ascending(G, SUP)
    linears = character_table(G).linear_characters()
    assert len(heads) == 2
    assert all(any(h is l for l in linears) for h in heads)


def test_heads_of_member_are_linears():
    G = catalog_group("D8")
    heads = fprime_ascending(G, NIL)
    assert len(heads) == 4
    assert all(ch.degree().as_int() == 1 for ch in heads)


def test_heads_g75_supersolvable_all_linear():
    G = catalog_group("G75")
    heads = fprime_ascending(G, SUP)
    assert [ch.degree().as_int() for ch in heads] == [1, 1, 1]


def test_heads_listed_in_table_row_order():
    G = catalog_group("S4")
    rows = character_table(G).irr
    heads = fprime_ascending(G, NIL)
    positions = [next(i for i, r in enumerate(rows) if r is h) for h in heads]
    assert positions == sorted(positions)


def test_ascent_delta_sets_irreducible():
    G = catalog_group("2S4")
    for state in ascent_states(G, NIL):
        assert all(d.is_irreducible() for d in state.delta)
        assert state.level_chars


@pytest.mark.parametrize("name", ["S4", "D12", "Q8", "SL23", "G75", "2S4"])
@pytest.mark.parametrize("fname", ["nilpotent", "supersolvable"])
def test_counting_matches_projector_abelianization(name, fname):
    assert counting_check(catalog_group(name), Formation.parse(fname))


def test_counting_report_values():
    rep = counting_report(catalog_group("S4"), NIL)
    assert rep["summary"]["all_pass"]
    wit = rep["instances"][0]["witnesses"]
    assert wit["head_count"] == 4
    assert wit["projector_abelianization"] == 4


# ---------------------------------------------------------------- descending test


def test_descending_trivial_character():
    G = catalog_group("S4")
    triv = next(ch for ch in character_table(G).irr if is_trivial_char(ch))
    out = fprime_descending_test(triv, G, NIL)
    assert out["member"]
    assert all(is_trivial_char(e["character"]) for e in out["chain"])


def test_descending_rejects_degree_two_of_s4():
    G = catalog_group("S4")
    chi = next(ch for ch in character_table(G).irr if ch.degree().as_int() == 2)
    for F in (NIL, SUP):
        out = fprime_descending_test(chi, G, F)
        assert not out["member"]
        assert "reducible" in out["reason"]


def test_descending_member_group_linears_only():
    G = catalog_group("D8")
    for ch in character_table(G).irr:
        out = fprime_descending_test(ch, G, NIL)
        assert out["member"] == (ch.degree().as_int() == 1)


def test_descending_agrees_with_ascending():
    for name, F in [("S4", NIL), ("S4", SUP), ("D12", NIL), ("SL23", NIL)]:
        G = catalog_group(name)
        heads = fprime_ascending(G, F)
        for ch in character_table(G).irr:
            member = fprime_descending_test(ch, G, F)["member"]
            assert member == any(ch is h for h in heads)


def test_descending_rejects_reducible_input():
    G = catalog_group("S4")
    rows = character_table(G).irr
    with pytest.raises(DomainError):
        fprime_descending_test(rows[0] + rows[1], G, NIL)


# ---------------------------------------------------------------- invariant constituents


def test_unique_invariant_below_and_above_s4():
    G = catalog_group("S4")
    cs = canonical_series(G, NIL)
    K, L = cs.pairs[0]
    H = cs.projector
    theta = next(ch for ch in character_table(K).irr if ch.degree().as_int() == 3)
    phi = unique_invariant_below(theta, G, K, L, H)
    assert phi.degree().as_int() == 1
    assert not is_trivial_char(phi)
    fixed = [
        ch
        for ch in character_table(L).irr
        if not is_trivial_char(ch) and ch.is_invariant_under(H)
    ]
    assert len(fixed) == 1
    assert same_values(phi, fixed[0], L)
    back = unique_invariant_above(phi, G, K, L, H)
    assert same_values(back, theta, K)


def test_unique_invariant_trivial_maps_to_trivial():
    G = catalog_group("S4")
    cs = canonical_series(G, SUP)
    K, L = cs.pairs[0]
    H = cs.projector
    theta = next(ch for ch in character_table(K).irr if is_trivial_char(ch))
    phi = unique_invariant_below(theta, G, K, L, H)
    assert is_trivial_char(phi)


def test_unique_invariant_rejects_bad_input():
    G = catalog_group("S4")
    cs = canonical_series(G, SUP)
    K, L = cs.pairs[0]
    H = cs.projector
    moved = next(
        ch
        for ch in character_table(K).irr
        if not is_trivial_char(ch) and not ch.is_invariant_under(H)
    )
    with pytest.raises(DomainError):
        unique_invariant_below(moved, G, K, L, H)
    wrong_group = character_table(G).irr[0]
    with pytest.raises(DomainError):
        unique_invariant_below(wrong_group, G, K, L, H)


# ---------------------------------------------------------------- strong pair series


def s4_explicit_series():
    G = catalog_group("S4")
    cs = canonical_series(G, NIL)
    K0, L0 = cs.pairs[0]
    H = cs.projector
    z = next(
        g
        for g in L0.elements()
        if g != G.identity() and all(g.conj(h) == g for h in H.generators)
    )
    C2 = PermGroup.from_elements(G, [G.identity(), z])
    return G, cs, [trivial_subgroup(G), C2, L0, K0, G]


def test_strong_series_explicit_s4():
    G, cs, series = s4_explicit_series()
    K0, L0 = cs.pairs[0]
    H = cs.projector
    chi = next(ch for ch in fprime_ascending(G, NIL) if ch.degree().as_int() == 3)
    ser = strong_series_for(chi, G, NIL, series)
    assert ser.strong
    assert [th.degree().as_int() for _, th in ser.entries] == [1, 1, 1, 3, 3]
    phi = unique_invariant_below(chi.restrict(K0), G, K0, L0, H)
    assert same_values(ser.theta_at(L0), phi, L0)
    assert same_values(ser.theta_at(K0), chi.restrict(K0), K0)
    assert is_trivial_char(ser.theta_at(series[1]))
    for (S, th), w in zip(ser.entries, ser.witnesses):
        assert same_values(w, th, S)


def test_strong_series_default_agrees_on_common_terms():
    G, cs, series = s4_explicit_series()
    chi = next(ch for ch in fprime_ascending(G, NIL) if ch.degree().as_int() == 3)
    explicit = strong_series_for(chi, G, NIL, series)
    default = strong_series_for(chi, G, NIL)
    for S, th in explicit.entries:
        try:
            other = default.theta_at(S)
        except DomainError:
            continue
        assert same_values(th, other, S)


def test_strong_series_trivial_character():
    G = catalog_group("S4")
    triv = next(ch for ch in character_table(G).irr if is_trivial_char(ch))
    ser = strong_series_for(triv, G, SUP)
    assert all(is_trivial_char(th) for _, th in ser.entries)


def test_strong_series_rejects_non_head():
    G = catalog_group("S4")
    chi = next(ch for ch in character_table(G).irr if ch.degree().as_int() == 2)
    with pytest.raises(NoStrongSeriesError):
        strong_series_for(chi, G, NIL)
    assert not is_head_character(chi, G, NIL)


def test_is_head_character_matches_ascending():
    for name, F in [("S4", NIL), ("S4", SUP), ("D12", NIL)]:
        G = catalog_group(name)
        heads = fprime_ascending(G, F)
        for ch in character_table(G).irr:
            assert is_head_character(ch, G, F) == any(ch is h for h in heads)


def test_strong_series_diamond_independence():
    G = catalog_group("D12")
    cs = canonical_series(G, NIL)
    H = cs.projector
    norms = normal_subgroups(G)
    U = next(N for N in norms if N.order() == 3)
    V = next(N for N in norms if N.order() == 2)
    M = next(
        N for N in norms if N.order() == 6 and U.is_subgroup_of(N) and V.is_subgroup_of(N)
    )
    assert is_invariant_under(U, H) and is_invariant_under(V, H)
    series_u = h_composition_series(G, H, [U, M])
    series_v = h_composition_series(G, H, [V, M])
    assert [S.order() for S in series_u] != [S.order() for S in series_v]
    for chi in fprime_ascending(G, NIL):
        a = strong_series_for(chi, G, NIL, series_u)
        b = strong_series_for(chi, G, NIL, series_v)
        assert a.strong and b.strong
        assert same_values(a.theta_at(M), b.theta_at(M), M)


def test_theorem_54_report_values():
    for name, F, count in [("S4", NIL, 4), ("S4", SUP, 2), ("D12", NIL, 4), ("2S4", SUP, 4)]:
        rep = theorem_54_report(catalog_group(name), F)
        assert rep["summary"]["all_pass"]
        assert rep["summary"]["head_count"] == count


def test_theorem_54_report_on_s4_x_s4():
    G = direct_product(catalog_group("S4"), catalog_group("S4"))
    assert G.order() == 576
    rep = theorem_54_report(G, NIL)
    assert rep["summary"]["characters"] == 25
    assert rep["summary"]["head_count"] == 16
    assert rep["summary"]["all_pass"]


# ---------------------------------------------------------------- extension transfer


def test_extension_transfer_trivial_all_true():
    G = catalog_group("S4")
    cs = canonical_series(G, SUP)
    K, L = cs.pairs[0]
    H = cs.projector
    theta = next(ch for ch in character_table(K).irr if is_trivial_char(ch))
    phi = unique_invariant_below(theta, G, K, L, H)
    rep = extension_transfer_check(G, K, L, SUP, theta, phi)
    assert rep["all_transfers_hold"]


def test_extension_transfer_odd_order_all_true():
    G = catalog_group("G75")
    cs = canonical_series(G, SUP)
    K, L = cs.pairs[0]
    H = cs.projector
    checked = 0
    for theta in character_table(K).irr:
        if not theta.is_invariant_under(H):
            continue
        phi = unique_invariant_below(theta, G, K, L, H)
        rep = extension_transfer_check(G, K, L, SUP, theta, phi)
        assert rep["hypothesis"]["met"]
        assert rep["all_transfers_hold"]
        checked += 1
    assert checked >= 1


def test_extension_transfer_nilpotent_flag_all_true():
    G = catalog_group("2S4")
    cs = canonical_series(G, NIL)
    K, L = cs.pairs[0]
    H = cs.projector
    for theta in character_table(K).irr:
        if not theta.is_invariant_under(H):
            continue
        phi = unique_invariant_below(theta, G, K, L, H)
        rep = extension_transfer_check(G, K, L, NIL, theta, phi)
        assert rep["hypothesis"]["met"]
        assert rep["all_transfers_hold"]


def test_extension_transfer_counterexample_order_48():
    G = catalog_group("2S4")
    cs = canonical_series(G, SUP)
    K, L = cs.pairs[0]
    H = cs.projector
    assert K.order() == 8 and L.order() == 2
    theta = next(ch for ch in character_table(K).irr if ch.degree().as_int() == 2)
    phi = unique_invariant_below(theta, G, K, L, H)
    assert not is_trivial_char(phi)
    rep = extension_transfer_check(G, K, L, SUP, theta, phi)
    assert not rep["hypothesis"]["met"]
    assert "hypothesis violated" in rep["hypothesis"]["reason"]
    assert rep["theta_extensions"] == 2
    assert rep["phi_extensions"] == 2
    assert all(not e["pass"] for e in rep["upward"])
    assert all(not e["pass"] for e in rep["downward"])
    assert not rep["all_transfers_hold"]


def test_extension_transfer_rejects_mismatched_phi():
    G = catalog_group("2S4")
    cs = canonical_series(G, SUP)
    K, L = cs.pairs[0]
    theta = next(ch for ch in character_table(K).irr if ch.degree().as_int() == 2)
    wrong = next(ch for ch in character_table(L).irr if is_trivial_char(ch))
    with pytest.raises(DomainError):
        extension_transfer_check(G, K, L, SUP, theta, wrong)


# ---------------------------------------------------------------- theorem reports


def test_theorem_a_s4_v4():
    G = catalog_group("S4")
    cs = canonical_series(G, NIL)
    V4 = cs.pairs[0][1]
    rep = theorem_a_report(G, NIL, V4)
    assert rep["summary"]["all_pass"]
    assert rep["summary"]["hypothesis"]["met"]
    irr = character_table(G).irr
    for inst in rep["instances"]:
        chi = irr[inst["inputs"]["character"]]
        wit = inst["witnesses"]
        assert wit["part_a"] and wit["part_b"] and wit["part_c"]["pass"]
        if chi.degree().as_int() == 3:
            assert wit["ratio"] == 3
            assert wit["index_of_NH"] == 3


def test_theorem_a_full_group_ratios_one():
    G = catalog_group("S4")
    rep = theorem_a_report(G, NIL, G)
    assert rep["summary"]["all_pass"]
    assert all(inst["witnesses"]["ratio"] == 1 for inst in rep["instances"])


def test_theorem_a_nilpotent_quotient_ratios_one():
    G = catalog_group("S4")
    A4 = canonical_series(G, NIL).pairs[0][0]
    rep = theorem_a_report(G, NIL, A4)
    assert rep["summary"]["all_pass"]
    assert all(inst["witnesses"]["ratio"] == 1 for inst in rep["instances"])


def test_theorem_a_trivial_normal_degree_divides_index():
    G = catalog_group("S4")
    rep = theorem_a_report(G, NIL, trivial_subgroup(G))
    assert rep["summary"]["all_pass"]
    assert all(inst["witnesses"]["index_of_NH"] == 3 for inst in rep["instances"])


def test_theorem_a_hypothesis_not_met_skips_part_c():
    G = catalog_group("S4")
    V4 = canonical_series(G, SUP).pairs[0][0]
    rep = theorem_a_report(G, SUP, V4)
    assert rep["summary"]["all_pass"]
    assert not rep["summary"]["hypothesis"]["met"]
    assert all(not inst["witnesses"]["part_c"]["checked"] for inst in rep["instances"])


@pytest.mark.parametrize("name", [entry.name for entry in load_catalog()])
def test_theorem_a_nilpotent_length_one_is_the_nilpotent_class(name):
    G = catalog_group(name)
    length_one = Formation.parse("nilpotent-length:1")
    for N in normal_subgroups(G):
        nil, one = theorem_a_report(G, NIL, N), theorem_a_report(G, length_one, N)
        assert one["summary"]["hypothesis"] == {"met": True, "reason": "formation is nilpotent"}
        assert one["instances"] == nil["instances"] and one["summary"] == nil["summary"]
        assert one["summary"]["all_pass"], (name, N.order())


def test_theorem_a_odd_order_part_c():
    G = catalog_group("G75")
    for N in normal_subgroups(G):
        rep = theorem_a_report(G, SUP, N)
        assert rep["summary"]["all_pass"]
        assert rep["summary"]["hypothesis"]["met"]


@pytest.mark.parametrize("name", ["S4", "D12", "Q8", "SL23", "G75", "2S4"])
def test_gallagher_family_matches_value_oracle(name):
    G = catalog_group(name)
    H = projector(G, NIL)
    for N in normal_subgroups(G):
        NH = subgroup_product(N, H)
        for gamma in character_table(NH).irr:
            assert gallagher_family(gamma, N) == oracle_gallagher_family(gamma, N)
        assert ("gallagher", NH, N) in NH._memo


def test_theorem_a_rejects_non_normal():
    G = catalog_group("S4")
    D8 = canonical_series(G, NIL).projector
    with pytest.raises(DomainError):
        theorem_a_report(G, NIL, D8)


def test_theorem_b_values():
    assert theorem_b_report(catalog_group("S4"), NIL)["summary"] == {"all_pass": True, "M_order": 1}
    assert theorem_b_report(catalog_group("G75"), SUP)["summary"] == {"all_pass": True, "M_order": 25}
    assert theorem_b_report(catalog_group("D8"), NIL)["summary"] == {"all_pass": True, "M_order": 2}
    assert theorem_b_report(catalog_group("C6"), NIL)["summary"] == {"all_pass": True, "M_order": 1}


def test_theorem_b_witness_flags():
    rep = theorem_b_report(catalog_group("2S4"), NIL)
    wit = rep["instances"][0]["witnesses"]
    assert wit["equal"]
    assert wit["qualifying_closed_under_join"]
    assert wit["kernel_lemma"]
    assert wit["inflation_bijection"]
    assert rep["summary"]["all_pass"]


def trivial_kernel_formations(G):
    """The formations of ``verify all`` under which Theorem B's M is trivial on G."""
    forms = [Formation.parse(name) for name in VERIFY_FORMATIONS]
    return [F for F in forms if theorem_b_report(G, F)["summary"]["M_order"] == 1]


def assert_heads_deflate_onto_regular_copy(G, F):
    """For M = 1, the heads deflate onto the heads of the regular representation of G."""
    Q, gmap = _coset_action(G, trivial_subgroup(G))
    assert Q is not G and Q.degree == G.order()
    deflated = [deflate(chi, gmap) for chi in fprime_ascending(G, F)]
    assert set(deflated) == set(fprime_ascending(Q, F)) and len(set(deflated)) == len(deflated)


@pytest.mark.parametrize("name", [entry.name for entry in load_catalog()])
def test_theorem_b_trivial_kernel_on_regular_copy(name):
    G = catalog_group(name)
    for F in trivial_kernel_formations(G):
        assert_heads_deflate_onto_regular_copy(G, F)


def test_theorem_b_trivial_kernel_cases_in_catalog():
    # 58 of the 92 thm-b lines of verify all
    assert sum(len(trivial_kernel_formations(catalog_group(e.name))) for e in load_catalog()) == 58


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(PAIRS))
def test_theorem_b_trivial_kernel_on_regular_copy_of_products(pair):
    G = direct_product(*(catalog_group(n) for n in pair))
    for F in trivial_kernel_formations(G):
        assert_heads_deflate_onto_regular_copy(G, F)


def test_theorem_b_trivial_kernel_builds_no_coset_action(monkeypatch):
    entry = next(e for e in load_catalog() if e.name == "S4")
    G = generate(entry.degree, entry.words)
    # the projector's recursion builds G/A for a minimal normal A; build it first
    projector(G, NIL)
    calls = []
    coset_action = groups._coset_action

    def counting_coset_action(G, N):
        calls.append(N.order())
        return coset_action(G, N)

    monkeypatch.setattr(groups, "_coset_action", counting_coset_action)
    assert theorem_b_report(G, NIL)["summary"] == {"all_pass": True, "M_order": 1}
    assert calls == []


def test_theorem_c_values():
    assert theorem_c_report(catalog_group("S4"), 3)["summary"] == {"all_pass": True, "K_order": 4}
    assert theorem_c_report(catalog_group("S4"), 2)["summary"] == {"all_pass": True, "K_order": 1}
    assert theorem_c_report(catalog_group("D12"), 2)["summary"] == {"all_pass": True, "K_order": 3}
    assert theorem_c_report(catalog_group("D12"), 3)["summary"] == {"all_pass": True, "K_order": 1}
    assert theorem_c_report(catalog_group("C6"), 2)["summary"] == {"all_pass": True, "K_order": 1}


def test_theorem_c_s4_p3_kernel_is_v4():
    G = catalog_group("S4")
    rep = theorem_c_report(G, 3)
    V4 = canonical_series(G, SUP).pairs[0][0]
    meet = generate(G.degree, rep["instances"][0]["witnesses"]["kernel_intersection"])
    assert meet.same_group_as(V4)


def test_theorem_c_rejects_bad_input():
    G = catalog_group("S4")
    with pytest.raises(DomainError):
        theorem_c_report(G, 4)
    A5 = generate(5, ["(0 1 2 3 4)", "(0 1 2)"])
    with pytest.raises(UnsupportedGroupError):
        theorem_c_report(A5, 2)
