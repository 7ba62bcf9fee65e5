"""Derived subgroups, derived series, solvability and the centre as class masks, against closure oracles.

The derived subgroup was the normal closure of the generators' commutators,
computed by Perm conjugation (``oracle_normal_closure``); it is now a closure
on the group's class support, and the centre is the union of its classes of
size one.  A subgroup normal in its root takes its derived subgroup on the
root's class masks; subgroups that are not (a projector and a Sylow subgroup
of S4 wr C2) answer in their own class algebra.
"""

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import brute_center, brute_derived, oracle_derived_series, oracle_normal_closure
from _products import PAIRS, direct_product
from formata.catalog import catalog_group, load_catalog
from formata.formations import Formation, projector
from formata.groups import PermGroup, generate, is_normal_in, normal_subgroups, sylow
from test_subgroup_memo import s4_wreath_c2


def assert_masks_match_oracle(G):
    gens = G.generators
    derived = G.derived_subgroup()
    assert derived is oracle_normal_closure(G, [a.commutator(b) for a in gens for b in gens])
    assert derived.element_set() == brute_derived(G)
    series = oracle_derived_series(G)
    assert G.derived_series() == series
    assert G.is_solvable() == (series[-1].order() == 1)
    assert G.center() is PermGroup.from_elements(G, brute_center(G))


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda entry: entry.name)
def test_masks_match_oracle_on_catalog(entry):
    assert_masks_match_oracle(generate(entry.degree, entry.words))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(PAIRS))
def test_masks_match_oracle_on_products(pair):
    assert_masks_match_oracle(direct_product(*(catalog_group(n) for n in pair)))


def test_perfect_group_series_stops_at_once():
    a5 = generate(5, ["(0 1 2 3 4)", "(0 1 2)"])
    assert_masks_match_oracle(a5)
    assert a5.derived_subgroup() is a5 and a5.derived_series() == [a5]
    assert not a5.is_solvable() and a5.center().order() == 1


def test_trivial_group():
    G = generate(3, [])
    assert_masks_match_oracle(G)
    assert G.derived_series() == [G] and G.is_solvable() and G.center() is G


@pytest.mark.parametrize(
    "build",
    [lambda G: projector(G, Formation.parse("nilpotent")), lambda G: sylow(G, 2)],
    ids=["projector", "sylow2"],
)
def test_masks_match_oracle_on_subgroups_of_s4_wreath_c2(build):
    G = s4_wreath_c2()
    H = build(G)
    assert H is not G and not is_normal_in(H, G)
    assert_masks_match_oracle(H)
    assert H.derived_subgroup()._root is G  # interned under the root, built in H's own class algebra


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda entry: entry.name)
def test_derived_subgroup_of_a_normal_subgroup_reads_the_roots_masks(entry):
    # N' is characteristic in N, so for N normal in the root G it is a closure
    # on G's class masks, and N builds no classes or class support of its own
    G = generate(entry.degree, entry.words)
    for N in normal_subgroups(G):
        assert N._classes is None or N is G
        gens = N.generators
        assert N.derived_subgroup() is oracle_normal_closure(N, [a.commutator(b) for a in gens for b in gens])
        assert N.derived_subgroup().element_set() == brute_derived(N)
        if N is not G:
            assert N._classes is None and N._class_support is None


def test_derived_series_is_memoized():
    G = catalog_group("S4")
    series = G.derived_series()
    assert [T.order() for T in series] == [24, 12, 4, 1]
    assert G.derived_series() == series and G.derived_series() is not series
    assert all(T is U for T, U in zip(G.derived_series(), series))
