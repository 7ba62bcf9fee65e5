"""One identity per subgroup: interning under the root and the memo on it."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    oracle_is_nilpotent,
    oracle_least_conjugate,
    oracle_normalizer,
    oracle_product,
    oracle_projector,
    oracle_quotient_generators,
    oracle_sylow,
)
from _products import PAIRS, direct_product
from formata import formations
from formata.catalog import catalog_group, load_catalog
from formata.characters import character_table
from formata.cli import VERIFY_FORMATIONS, run_command
from formata.errors import DomainError, InternalInconsistencyError
from formata.formations import Formation, is_nilpotent, projector, residual, verify_projector
from formata.groups import (
    PermGroup,
    _coset_action,
    chief_series,
    generate,
    h_composition_series,
    intersection,
    normal_subgroups,
    normalizer,
    prime_divisors,
    quotient,
    subgroup_product,
    sylow,
)
from formata.headchars import (
    _default_series,
    canonical_series,
    strong_series_for,
    theorem_54_report,
    theorem_b_report,
    unique_invariant_below,
)
from formata.perms import Perm, parse_cycles


def fresh(degree, elements):
    """A build under a throwaway root, so nothing is interned or memoized."""
    return PermGroup.from_elements(PermGroup(degree), elements)


def images(U):
    return [g.images for g in U.generators]


def test_from_elements_returns_one_object_per_root(s4):
    a4 = s4.derived_subgroup()
    elts = list(a4.elements())
    assert PermGroup.from_elements(s4, elts) is a4
    assert PermGroup.from_elements(s4, reversed(elts)) is a4
    assert PermGroup.from_elements(s4, frozenset(elts)) is a4
    # the identity is added when missing, and the result is still the interned one
    assert PermGroup.from_elements(s4, elts[1:]) is a4
    U = PermGroup.from_elements(a4, elts)
    assert U is a4  # a4 shares its root's intern table


def test_roots_do_not_share(s4):
    other = generate(4, ["(0 1)", "(0 1 2 3)"])
    elts = s4.derived_subgroup().elements()
    here = PermGroup.from_elements(s4, elts)
    there = PermGroup.from_elements(other, elts)
    assert here is not there
    assert images(here) == images(there) == images(fresh(4, elts))
    assert s4._memo is not other._memo
    assert here._memo is s4._memo and there._memo is other._memo


def assert_root_or_fresh_generators(G, U):
    """U is G itself when it has all of G's elements; otherwise its
    generators are those of a fresh greedy build of its element set."""
    if U.element_set() == G.element_set():
        assert U is G
    else:
        assert images(U) == images(fresh(G.degree, U.elements()))


def test_interned_generators_equal_a_fresh_build(s4):
    for N in normal_subgroups(s4):
        assert_root_or_fresh_generators(s4, N)
        assert N.order() == len(N.elements())


def test_a_root_is_interned_under_its_own_element_set(s4, v4):
    assert PermGroup.from_elements(s4, s4.elements()) is s4
    assert PermGroup.from_elements(s4.derived_subgroup(), s4.element_set()) is s4
    Q, gmap = quotient(s4, v4)
    assert PermGroup.from_elements(Q, Q.elements()) is Q
    assert gmap.image_of_subgroup(s4) is Q
    assert gmap.preimage_of_subgroup(Q) is s4


def test_the_root_is_reached_before_its_elements_are_listed():
    a5 = generate(5, ["(0 1 2 3 4)", "(0 1 2)"])
    assert a5._elements is None
    assert a5.derived_subgroup() is a5


def test_lattice_series_and_products_end_at_the_root(s4):
    assert normal_subgroups(s4)[-1] is s4
    assert chief_series(s4)[-1] is s4
    H = sylow(s4, 2)
    assert h_composition_series(s4, H)[-1] is s4
    assert subgroup_product(s4.derived_subgroup(), H) is s4
    F = Formation.parse("nilpotent")
    cs = canonical_series(s4, F)
    assert cs.level(0) is s4 and _default_series(s4, F)[-1] is s4


def test_classes_are_built_once_per_element_set_of_a_root(monkeypatch):
    G = direct_product(catalog_group("S4"), catalog_group("S3"))
    builds = Counter()
    raw = PermGroup.conjugacy_classes

    def counting(U):
        if U._classes is None:
            builds[id(U._memo), U.element_set()] += 1
        return raw(U)

    monkeypatch.setattr(PermGroup, "conjugacy_classes", counting)
    F = Formation.parse("nilpotent")
    assert theorem_54_report(G, F)["summary"]["all_pass"]
    assert theorem_b_report(G, F)["summary"]["all_pass"]
    assert builds[id(G._memo), G.element_set()] == 1
    assert max(builds.values()) == 1


def test_from_elements_rejects_an_unclosed_set():
    c3 = generate(3, ["(0 1 2)"])
    with pytest.raises(InternalInconsistencyError):
        PermGroup.from_elements(c3, [parse_cycles("(0 1 2)", 3)])
    s3 = generate(3, ["(0 1)", "(0 1 2)"])
    bad = [Perm.identity(3), parse_cycles("(1 2)", 3), parse_cycles("(0 1 2)", 3)]
    with pytest.raises(InternalInconsistencyError):
        PermGroup.from_elements(s3, bad)
    assert frozenset(bad) not in s3._memo
    assert PermGroup.from_elements(s3, [parse_cycles("(1 2)", 3)]).order() == 2


def interned(G, X):
    """Whether X is the one group interned under G's root with X's elements, G itself for all of them."""
    return PermGroup.from_elements(G, X.element_set()) is X


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda entry: entry.name)
def test_series_subgroups_are_interned_on_catalog(entry):
    G = generate(entry.degree, entry.words)
    for F in map(Formation.parse, VERIFY_FORMATIONS):
        cs = canonical_series(G, F)
        built = [projector(G, F), residual(G, F)]
        built += [U for pair in cs.pairs for U in pair]
        built += [cs.level(i) for i in range(cs.m + 1)]
        built += _default_series(G, F)
        for X in built:
            assert interned(G, X), (entry.name, str(F), X.order())


def test_constructed_subgroups_are_interned(s4, v4):
    c3 = s4.subgroup([parse_cycles("(0 1 2)", 4)])
    assert c3.order() == 3 and interned(s4, c3)
    assert s4.subgroup([]).order() == 1 and interned(s4, s4.subgroup([]))
    with pytest.raises(DomainError):
        v4.subgroup([parse_cycles("(0 1)", 4)])
    Q, gmap = quotient(s4, v4)
    image = gmap.image_of_subgroup(s4.subgroup([parse_cycles("(0 1)", 4)]))
    assert image.order() == 2 and interned(Q, image)
    preimage = gmap.preimage_of_subgroup(image)
    assert preimage.order() == 8 and interned(s4, preimage)


def test_contains_enumerates_a_fresh_root():
    G = generate(4, ["(0 1)", "(0 1 2 3)"])
    assert G._elements is None
    assert G.contains(parse_cycles("(1 3)", 4))
    assert not G.contains(parse_cycles("(1 3)", 5))
    assert not generate(3, ["(0 1 2)"]).contains(parse_cycles("(0 1)", 3))


@pytest.mark.parametrize("order", [12, 48])
def test_elements_refuses_a_closure_that_disagrees_with_the_chain(order):
    G = generate(4, ["(0 1)", "(0 1 2 3)"])
    G._order = order
    with pytest.raises(InternalInconsistencyError, match="chain order"):
        G.elements()


PROJECTOR_FORMATIONS = [
    Formation.parse(desc)
    for desc in (
        "nilpotent",
        "supersolvable",
        "metanilpotent",
        "nilpotent-length:2",
        "p-nilpotent:2",
        "p-nilpotent:3",
        "p-groups:2",
        "pi-groups:2,3",
    )
]


def assert_projector_matches_oracle(G):
    """The projector is the least conjugate of the root-building recursion's, found by brute force."""
    for F in PROJECTOR_FORMATIONS:
        least = oracle_least_conjugate(G, oracle_projector(G, F))
        assert projector(G, F) is PermGroup.from_elements(G, least), str(F)


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda entry: entry.name)
def test_projector_matches_root_building_oracle_on_catalog(entry):
    assert_projector_matches_oracle(generate(entry.degree, entry.words))


@pytest.mark.parametrize("pair", PAIRS, ids="x".join)
def test_projector_matches_root_building_oracle_on_products(pair):
    assert_projector_matches_oracle(direct_product(*(catalog_group(n) for n in pair)))


def s4_wreath_c2():
    """S4 wr C2, order 1152: past the catalog and past INTERMEDIATE_MAX_ORDER."""
    cycles = ("(0 1)", "(0 1 2 3)", "(4 5)", "(4 5 6 7)", "(0 4)(1 5)(2 6)(3 7)")
    return PermGroup(8, [parse_cycles(c, 8) for c in cycles])


def test_projector_matches_root_building_oracle_on_s4_wreath_c2():
    assert_projector_matches_oracle(s4_wreath_c2())


@pytest.mark.parametrize("desc", [*VERIFY_FORMATIONS, "p-nilpotent:2"])
def test_projector_checks_hold_on_s4_wreath_c2(desc):
    G, F = s4_wreath_c2(), Formation.parse(desc)
    checks = verify_projector(G, projector(G, F), F)
    # the order is past INTERMEDIATE_MAX_ORDER, so F-maximality is not swept
    assert checks == {"member": True, "covers_residual": True, "f_maximal": None, "quotient_projector": True}


def subgroups_of(G):
    """Normal subgroups, Sylow subgroups and their normalizers."""
    subs = list(normal_subgroups(G))
    for p in prime_divisors(G.order()):
        P = sylow(G, p)
        subs.extend([P, normalizer(G, P)])
    return subs


def assert_memo_matches_oracles(G):
    normals = normal_subgroups(G)
    subs = subgroups_of(G)
    for p in prime_divisors(G.order()):
        P = sylow(G, p)
        assert P.element_set() == oracle_sylow(G, p)
        assert_root_or_fresh_generators(G, P)
    for U in subs:
        M = normalizer(G, U)
        assert M.element_set() == oracle_normalizer(G, U)
    for N in normals:
        for U in subs:
            # N is normal, so NU is a subgroup
            P = subgroup_product(N, U)
            assert P.element_set() == oracle_product(N, U)
            assert_root_or_fresh_generators(G, P)
            assert subgroup_product(N, U) is P
            M = intersection(N, U)
            assert M.element_set() == N.element_set() & U.element_set()
            assert_root_or_fresh_generators(G, M)
            assert intersection(N, U) is M
        Q, gmap = quotient(G, N)
        assert Q.order() * N.order() == G.order()
        if N.order() == 1:
            assert Q is G and all(gmap.apply(g) == g for g in G.generators)
            # the regular representation stays the coset action's oracle route
            gmap = _coset_action(G, N)[1]
        assert [gmap.apply(g).images for g in G.generators] == oracle_quotient_generators(G, N)
        assert quotient(G, N)[0] is Q


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda entry: entry.name)
def test_memo_matches_oracles_on_catalog(entry):
    assert_memo_matches_oracles(generate(entry.degree, entry.words))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(PAIRS))
def test_memo_matches_oracles_on_products(pair):
    assert_memo_matches_oracles(direct_product(*(catalog_group(n) for n in pair)))


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda entry: entry.name)
def test_nilpotency_count_matches_sylow_route_on_catalog(entry):
    G = generate(entry.degree, entry.words)
    for U in (G, *normal_subgroups(G)):
        assert is_nilpotent(U) == oracle_is_nilpotent(U), (entry.name, U.order())


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(PAIRS))
def test_nilpotency_count_matches_sylow_route_on_products(pair):
    G = direct_product(*(catalog_group(n) for n in pair))
    for U in (G, *normal_subgroups(G)):
        assert is_nilpotent(U) == oracle_is_nilpotent(U), (pair, U.order())


def run(capsys, *argv):
    code = run_command(list(argv))
    return code, capsys.readouterr().out


def test_cli_output_is_the_same_when_memos_are_warm(capsys):
    for argv in (
        ("verify", "all", "--json"),
        ("series", "2S4", "--formation", "supersolvable", "--json"),
        ("series", "S4", "--formation", "nilpotent", "--json"),
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first[0] == 0
        assert first == second, argv


def test_navarro_condition_is_evaluated_once_per_layer(monkeypatch, s4):
    # strong_series_for checks each layer, and unique_invariant_below checks
    # it again; the memo answers the second check
    evaluated = Counter()
    raw = formations._navarro

    def counting(G, K, L, H):
        evaluated[tuple(U.element_set() for U in (G, K, L, H))] += 1
        return raw(G, K, L, H)

    monkeypatch.setattr(formations, "_navarro", counting)
    for name in ("nilpotent", "supersolvable"):
        assert theorem_54_report(s4, Formation.parse(name))["summary"]["all_pass"]
    assert evaluated and max(evaluated.values()) == 1


def test_failing_navarro_condition_keeps_each_path_error(s4):
    H = projector(s4, Formation.parse("nilpotent"))
    a4 = s4.derived_subgroup()
    trivial = PermGroup.from_elements(s4, [s4.identity()])
    theta = character_table(a4).trivial()
    # A4/1 is not abelian, so (S4, A4, 1) fails the condition for H
    with pytest.raises(DomainError, match="Navarro"):
        unique_invariant_below(theta, s4, a4, trivial, H)
    chi = character_table(s4).trivial()
    with pytest.raises(InternalInconsistencyError, match="Navarro"):
        strong_series_for(chi, s4, Formation.parse("nilpotent"), series=[trivial, a4, s4])
    # a failed check is a memoized False, and raises again on the next call
    with pytest.raises(DomainError, match="Navarro"):
        unique_invariant_below(theta, s4, a4, trivial, H)
