"""The kernel bound of Theorems B and C on class masks, against the lattice oracle."""

import pytest

from _oracles import oracle_kernel_bound
from formata.catalog import catalog_group, load_catalog
from formata.characters import character_table
from formata.cli import VERIFY_FORMATIONS
from formata.formations import Formation, projector
from formata.groups import PermGroup, generate, normalizer, prime_divisors, sylow
from formata.headchars import _kernel_bound, fprime_ascending
from test_class_support import benchmark_products

CATALOG = [entry.name for entry in load_catalog()]


def assert_bound_matches_oracle(G, chars, X, Y):
    meet, lemma, witnesses = _kernel_bound(G, chars, X, Y)
    oracle_meet, qualifying, oracle_witnesses = oracle_kernel_bound(G, chars, X, Y)
    assert meet is oracle_meet
    assert witnesses == oracle_witnesses
    assert lemma == all(N.is_subgroup_of(oracle_meet) for N in qualifying)


def assert_theorem_b_inputs_match(G):
    for F in map(Formation.parse, VERIFY_FORMATIONS):
        H = projector(G, F)
        assert_bound_matches_oracle(G, fprime_ascending(G, F), H, H.derived_subgroup())


@pytest.mark.parametrize("name", CATALOG)
def test_theorem_b_bound_matches_oracle_on_catalog(name):
    assert_theorem_b_inputs_match(catalog_group(name))


@pytest.mark.parametrize("G", [pytest.param(G, id=label) for label, G in benchmark_products(("ladder",))])
def test_theorem_b_bound_matches_oracle_on_ladder_products(G):
    assert_theorem_b_inputs_match(G)


@pytest.mark.parametrize("name", CATALOG)
def test_theorem_c_bound_matches_oracle_on_catalog(name):
    G = catalog_group(name)
    irr = character_table(G).irr
    for p in prime_divisors(G.order()):
        P = sylow(G, p)
        chars = [chi for chi in irr if chi.degree().as_int() % p != 0]
        assert_bound_matches_oracle(G, chars, normalizer(G, P), P.derived_subgroup())


def test_kernel_is_the_interned_subgroup_of_the_degree_values():
    for name in CATALOG:
        G = catalog_group(name)
        for chi in character_table(G).irr:
            elements = [x for x in G.elements() if chi(x) == chi.degree()]
            assert chi.kernel() is PermGroup.from_elements(G, elements)


def test_bound_without_a_largest_qualifying_subgroup_names_the_join():
    # 1, <(0 1)(2 3)> and <(0 2)(1 3)> miss X - Y; their join V4 does not
    G = generate(4, ["(0 1)(2 3)", "(0 2)(1 3)"])
    X = G.subgroup([next(x for x in G.elements() if x.cycle_string() == "(0 3)(1 2)")])
    Y = PermGroup.from_elements(G, [G.identity()])
    chars = character_table(G).irr
    meet, lemma, witnesses = _kernel_bound(G, chars, X, Y)
    assert meet.order() == 1 and not lemma
    assert not witnesses["qualifying_closed_under_join"]
    assert not witnesses["equal"]
    assert witnesses["largest_normal_order"] == 4
    # the lattice route names a qualifying subgroup of maximal order instead
    assert oracle_kernel_bound(G, chars, X, Y)[2]["largest_normal_order"] == 2
