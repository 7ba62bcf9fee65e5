import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    brute_all_subgroups,
    brute_center,
    brute_classes,
    brute_derived,
    brute_elements,
    brute_normal_subgroups,
    oracle_chief_series,
    oracle_minimal_normal_subgroups,
    oracle_normal_subgroups,
)
from _products import PAIRS, direct_product
from formata.catalog import catalog_group, load_catalog
from formata.errors import CapacityError, DomainError
from formata.groups import (
    PermGroup,
    chief_series,
    complement,
    generate,
    h_composition_series,
    intermediate_subgroups,
    intersection,
    is_normal_in,
    minimal_normal_subgroups,
    normal_subgroups,
    normalizer,
    quotient,
    subgroup_product,
    sylow,
)
from formata.perms import Perm, parse_cycles


Q8_WORDS = ["(0 2 1 3)(4 7 5 6)", "(0 4 1 5)(2 6 3 7)"]


@pytest.fixture
def q8():
    return generate(8, Q8_WORDS)


def test_s4_order_and_elements(s4):
    assert s4.order() == 24
    assert len(s4.elements()) == 24
    assert sorted(s4.elements()) == brute_elements(4, list(s4.generators))


def test_q8_order(q8):
    assert q8.order() == 8
    assert sorted(q8.elements()) == brute_elements(8, list(q8.generators))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.permutations(range(6)).map(Perm), min_size=1, max_size=3))
def test_chain_order_matches_enumeration(gens):
    G = PermGroup(6, gens)
    assert G.order() == len(brute_elements(6, list(G.generators)))


def test_s4_classes_match_oracle_and_frozen(s4):
    classes = s4.conjugacy_classes()
    oracle = brute_classes(s4)
    assert [c.elements for c in classes] == oracle
    # frozen: sizes sorted by (size, least element), identity class first
    assert [c.size for c in classes] == [1, 3, 6, 6, 8]
    assert classes[0].representative.is_identity()
    for c in classes:
        assert c.representative == c.elements[0]
        x = c.representative
        assert c.size * sum(g * x == x * g for g in s4.elements()) == s4.order()


def test_class_index(s4):
    idx = s4.class_index()
    for i, c in enumerate(s4.conjugacy_classes()):
        for x in c.elements:
            assert idx[x] == i


def test_derived_subgroups(s4, a4, d8):
    assert set(s4.derived_subgroup().elements()) == brute_derived(s4)
    assert s4.derived_subgroup().same_group_as(a4)
    assert a4.derived_subgroup().order() == 4
    assert d8.derived_subgroup().order() == 2
    # derived quotient is abelian
    Q, _ = quotient(s4, s4.derived_subgroup())
    assert Q.is_abelian()


def test_center(d8, s4, q8):
    assert sorted(d8.center().elements()) == brute_center(d8)
    assert d8.center().order() == 2
    assert s4.center().order() == 1
    assert q8.center().order() == 2


def test_normal_subgroups_s4(s4):
    normals = normal_subgroups(s4)
    oracle = brute_normal_subgroups(s4)
    assert [frozenset(N.element_set()) for N in normals] == [frozenset(s) for s in oracle]
    assert [N.order() for N in normals] == [1, 4, 12, 24]


def test_normal_subgroups_q8(q8):
    normals = normal_subgroups(q8)
    assert [N.order() for N in normals] == [1, 2, 4, 4, 4, 8]
    assert len(normals) == len(brute_normal_subgroups(q8))


def test_minimal_normal_subgroups(s4, q8):
    mins = minimal_normal_subgroups(s4)
    assert len(mins) == 1 and mins[0].order() == 4
    minq = minimal_normal_subgroups(q8)
    assert [N.order() for N in minq] == [2]


def assert_members_match_oracle(G, members, oracle):
    """The same subgroups in the same order.  The member with all of G's
    elements is G itself; every other has the oracle's greedy generators."""
    assert [N.element_set() for N in members] == [O.element_set() for O in oracle]
    for N, O in zip(members, oracle):
        if N.order() == G.order():
            assert N is G
        else:
            assert [g.images for g in N.generators] == [g.images for g in O.generators]


def assert_lattice_matches_oracle(G):
    oracle = oracle_normal_subgroups(G)
    normals = normal_subgroups(G)
    assert normals[-1] is G
    assert_members_match_oracle(G, normals, oracle)
    assert_members_match_oracle(G, minimal_normal_subgroups(G), oracle_minimal_normal_subgroups(oracle))


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda entry: entry.name)
def test_normal_lattice_matches_oracle_on_catalog(entry):
    assert_lattice_matches_oracle(generate(entry.degree, entry.words))


def test_normal_lattice_matches_oracle_on_s4_x_s3():
    G = direct_product(catalog_group("S4"), catalog_group("S3"))
    assert G.order() == 144
    assert_lattice_matches_oracle(G)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(PAIRS))
def test_normal_lattice_matches_oracle_on_products(pair):
    assert_lattice_matches_oracle(direct_product(*(catalog_group(n) for n in pair)))


def test_quotient_s4_by_v4(s4, v4):
    Q, gmap = quotient(s4, v4)
    assert Q.order() == 6
    assert not Q.is_abelian()
    assert gmap.kernel() is v4
    # morphism spot checks on random-ish pairs
    elts = s4.elements()
    for a in elts[::5]:
        for b in elts[::7]:
            assert gmap.apply(a * b) == gmap.apply(a) * gmap.apply(b)
    # lift is a section
    for qv in Q.elements():
        assert gmap.apply(gmap.lift(qv)) == qv


def test_quotient_requires_normal(s4, d8):
    with pytest.raises(DomainError):
        quotient(s4, d8)


def test_preimage_of_subgroup(s4, v4):
    Q, gmap = quotient(s4, v4)
    sub = PermGroup(Q.degree, [Q.generators[0]])
    U = gmap.preimage_of_subgroup(sub)
    assert U.order() == v4.order() * sub.order()
    assert all(gmap.apply(u) in sub.element_set() for u in U.elements())


def test_sylow(s4, q8):
    P2 = sylow(s4, 2)
    assert P2.order() == 8
    assert P2.is_subgroup_of(s4)
    P3 = sylow(s4, 3)
    assert P3.order() == 3
    assert sylow(q8, 2).order() == 8
    assert sylow(s4, 5).order() == 1
    with pytest.raises(DomainError):
        sylow(s4, 4)


def test_normalizer(s4, v4):
    C3 = PermGroup(4, [parse_cycles("(0 1 2)", 4)])
    N = normalizer(s4, C3)
    assert N.order() == 6
    assert normalizer(s4, v4).order() == 24


def test_intersection_and_product(s4, a4, d8, v4):
    assert intersection(a4, d8).same_group_as(v4)
    assert subgroup_product(v4, d8).same_group_as(d8)
    P = subgroup_product(a4, d8)
    assert P.order() == 24


def test_chief_series_s4(s4, v4, a4):
    cs = chief_series(s4)
    assert [T.order() for T in cs] == [1, 4, 12, 24]
    assert cs[1].same_group_as(v4)
    assert cs[2].same_group_as(a4)
    # factors of a solvable chief series are elementary abelian of prime power order
    for lo, hi in zip(cs, cs[1:]):
        Q, _ = quotient(hi, lo)
        assert Q.is_abelian()
        p = min(x.order() for x in Q.elements() if not x.is_identity())
        assert all(x.order() in (1, p) for x in Q.elements())


def assert_chief_series_match_oracle(G):
    # the same subgroup objects, with no anchor, one normal anchor, and the
    # derived series as a chain of anchors
    assert chief_series(G) == oracle_chief_series(G)
    for N in normal_subgroups(G):
        assert chief_series(G, [N]) == oracle_chief_series(G, [N])
    derived = G.derived_series()
    assert chief_series(G, derived) == oracle_chief_series(G, derived)


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda entry: entry.name)
def test_chief_series_matches_oracle_on_catalog(entry):
    assert_chief_series_match_oracle(generate(entry.degree, entry.words))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(PAIRS))
def test_chief_series_matches_oracle_on_products(pair):
    assert_chief_series_match_oracle(direct_product(*(catalog_group(n) for n in pair)))


def test_chief_series_matches_oracle_on_c2_4():
    # 67 normal subgroups, with ties in order at every step of the walk
    assert_chief_series_match_oracle(generate(8, ["(0 1)", "(2 3)", "(4 5)", "(6 7)"]))


def test_chief_series_bad_anchors_rejected(s4, d8, v4):
    c4 = generate(4, ["(0 1 2 3)"])
    klein = generate(4, ["(0 2)", "(1 3)"])
    for series in (chief_series, oracle_chief_series):
        with pytest.raises(DomainError, match="anchor is not normal"):
            series(s4, [v4, d8])
        with pytest.raises(DomainError, match="do not form a chain"):
            series(d8, [c4, klein])


def test_chief_series_nonsolvable_rejected():
    a5 = generate(5, ["(0 1 2 3 4)", "(0 1 2)"])
    from formata.errors import UnsupportedGroupError

    with pytest.raises(UnsupportedGroupError):
        chief_series(a5)


def test_h_composition_series_s4_d8(s4, d8, a4, v4):
    series = h_composition_series(s4, d8, anchors=[a4, v4])
    assert [T.order() for T in series] == [1, 2, 4, 12, 24]
    # the inserted order-2 term is the centre of D8
    assert series[1].same_group_as(d8.center())
    _assert_h_simple_factors(series, d8)


def test_h_composition_series_no_anchors_reaches_fixpoint(s4, d8):
    series = h_composition_series(s4, d8)
    assert [T.order() for T in series] == [1, 2, 4, 12, 24]
    _assert_h_simple_factors(series, d8)


def test_h_composition_series_g_is_h(s4):
    series = h_composition_series(s4, s4)
    assert [T.order() for T in series] == [T.order() for T in chief_series(s4)]


def test_h_composition_series_refuses_anchors_of_equal_order_off_a_chain():
    G = generate(4, ["(0 1)", "(2 3)"])
    trivial = G.subgroup([])
    a, b = G.subgroup([parse_cycles("(0 1)", 4)]), G.subgroup([parse_cycles("(2 3)", 4)])
    with pytest.raises(DomainError, match="chain"):
        h_composition_series(G, trivial, [a, b])
    with pytest.raises(DomainError, match="chain"):
        chief_series(G, through=[a, b])
    # an anchor equal to the term before it, or to G, is skipped
    assert h_composition_series(G, trivial, [a, a, G]) == [trivial, a, G]


def _assert_h_simple_factors(series, H):
    hset = H.element_set()
    for lo, hi in zip(series, series[1:]):
        assert is_normal_in(lo, hi)
        assert all(u.conj(h) in lo.element_set() for u in lo.generators for h in H.generators)
        for S in brute_all_subgroups(hi):
            if not (lo.element_set() < S < hi.element_set()):
                continue
            if not lo.element_set() <= S:
                continue
            normal = all(s.conj(x) in S for s in S for x in hi.generators)
            invariant = all(s.conj(h) in S for s in S for h in H.generators)
            assert not (normal and invariant), "factor is not H-simple"


def test_complement_s4_v4(s4, v4):
    C = complement(s4, v4)
    assert C is not None
    assert C.order() == 6
    assert intersection(C, v4).order() == 1
    assert subgroup_product(C, v4).order() == 24


def test_complement_none_certified():
    c4 = generate(4, ["(0 1 2 3)"])
    c2 = PermGroup(4, [parse_cycles("(0 2)(1 3)", 4)])
    assert complement(c4, c2) is None


def test_complement_full_and_trivial(s4, v4):
    assert complement(s4, s4.subgroup([])).same_group_as(s4)
    assert complement(v4, v4).order() == 1


def test_intermediate_subgroups(s4, d8):
    mids = intermediate_subgroups(s4, d8)
    assert [U.order() for U in mids] == [8, 24]
    alls = intermediate_subgroups(s4, s4.subgroup([]))
    assert len(alls) == len(brute_all_subgroups(s4))


def test_capacity_cap(monkeypatch):
    monkeypatch.setenv("FORMATA_MAX_ORDER", "10")
    G = generate(4, ["(0 1)", "(0 1 2 3)"])
    with pytest.raises(CapacityError):
        G.elements()


def test_exponent(s4, q8, c6):
    assert s4.exponent() == 12
    assert q8.exponent() == 4
    assert c6.exponent() == 6


def test_solvability(s4):
    assert s4.is_solvable()
    a5 = generate(5, ["(0 1 2 3 4)", "(0 1 2)"])
    assert not a5.is_solvable()
