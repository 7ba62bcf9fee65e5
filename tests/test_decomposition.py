"""The decomposition matrix per (group, subgroup) against the per-call sweeps it replaces.

``characters._decomposition(G, S)`` holds the multiplicity of each row of
Irr(S) in the restriction of each row of Irr(G), from one gather and one
product, and Theorem A and the invariant-constituent steps read its blocks.
The oracles in ``_oracles`` are the routes they replace: one restrict and one
inner product per pair, one ``inner_products`` per call of
``unique_invariant_below`` and ``unique_invariant_above``, and Theorem A's two
sweeps per report.  The diffs run on every catalog group over each normal
subgroup and each ``VERIFY_FORMATIONS`` formation, on the benchmark products
and on ``PAIRS`` under Hypothesis.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    oracle_decomposition,
    oracle_gallagher_family,
    oracle_theorem_a_sweeps,
    oracle_unique_invariant_above,
    oracle_unique_invariant_below,
)
from _products import PAIRS, direct_product
from formata import characters
from formata.catalog import catalog_group, load_catalog
from formata.characters import _built_table, _check_decomposition, _decomposition, character_table
from formata.cli import VERIFY_FORMATIONS
from formata.errors import InternalInconsistencyError
from formata.formations import Formation, projector
from formata.groups import generate, normal_subgroups, subgroup_product
from formata.headchars import (
    _gallagher_rows,
    canonical_series,
    fprime_ascending,
    theorem_a_report,
    unique_invariant_above,
    unique_invariant_below,
)
from test_class_support import benchmark_products

FORMATIONS = [Formation.parse(name) for name in VERIFY_FORMATIONS]


def assert_decomposition_matches_oracle(G, S):
    D = _decomposition(G, S)
    assert D.dtype == np.int64 and not D.flags.writeable
    assert D.tolist() == oracle_decomposition(G, S)
    assert _decomposition(G, S) is D


def assert_theorem_a_matches_sweeps(G, F, N):
    """The blocks of D(G, N) and D(G, NH) theorem_a_report reads, against its per-call sweeps."""
    H = projector(G, F)
    NH = subgroup_product(N, H)
    table_g, table_n, table_nh = character_table(G), character_table(N), character_table(NH)
    head_rows = [table_g.index(chi) for chi in fprime_ascending(G, F)]
    nh_rows = [table_nh.index(gamma) for gamma in fprime_ascending(NH, F)]
    inv_rows = np.flatnonzero(table_n.invariant_rows(H)).tolist()
    D_n, D_nh = _decomposition(G, N), _decomposition(G, NH)
    invs = [[i for i in inv_rows if D_n[a, i] > 0] for a in head_rows]
    under = [[r for r in nh_rows if D_nh[a, r] > 0] for a in head_rows]
    assert (invs, under) == oracle_theorem_a_sweeps(G, F, N)
    rep = theorem_a_report(G, F, N)
    for inst, inv in zip(rep["instances"], invs):
        assert inst["witnesses"]["invariant_constituents"] == len(inv)
        assert inst["witnesses"].get("theta") == (inv[0] if len(inv) == 1 else None)
    for gamma_row in range(len(table_nh.irr)):
        family = [table_nh.irr.index(X) for X in oracle_gallagher_family(table_nh.irr[gamma_row], N)]
        assert _gallagher_rows(NH, N, gamma_row) == frozenset(family)


def same_or_both_raise(route, oracle):
    """route() is oracle(), or both raise InternalInconsistencyError."""
    try:
        want = oracle()
    except InternalInconsistencyError:
        with pytest.raises(InternalInconsistencyError):
            route()
        return 0
    assert route() is want
    return 1


def assert_invariant_constituents_match_oracle(G, F):
    """unique_invariant_below and _above on every layer of the canonical series, against one inner_products per call."""
    cs = canonical_series(G, F)
    H = cs.projector
    found = 0
    for i, (K, L) in enumerate(cs.pairs):
        KH = cs.level(i)
        for theta in character_table(K).irr:
            if theta.is_invariant_under(H):
                found += same_or_both_raise(
                    lambda: unique_invariant_below(theta, KH, K, L, H),
                    lambda: oracle_unique_invariant_below(theta, L, H),
                )
        for phi in character_table(L).irr:
            if phi.is_invariant_under(H):
                found += same_or_both_raise(
                    lambda: unique_invariant_above(phi, KH, K, L, H),
                    lambda: oracle_unique_invariant_above(phi, K, H),
                )
    assert found or not cs.pairs


def assert_matches_oracle(G, normals):
    for N in normals:
        assert_decomposition_matches_oracle(G, N)
        for F in FORMATIONS:
            assert_theorem_a_matches_sweeps(G, F, N)
    for F in FORMATIONS:
        assert_decomposition_matches_oracle(G, projector(G, F))
        assert_invariant_constituents_match_oracle(G, F)


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda entry: entry.name)
def test_decomposition_matches_oracle_on_catalog(entry):
    G = generate(entry.degree, entry.words)
    assert_matches_oracle(G, normal_subgroups(G))


@pytest.mark.parametrize("label, G", benchmark_products(), ids=lambda x: x if isinstance(x, str) else "")
def test_decomposition_matches_oracle_on_benchmark_products(label, G):
    assert_matches_oracle(G, [G.derived_subgroup(), G.center()])


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(PAIRS))
def test_decomposition_matches_oracle_on_products(pair):
    G = direct_product(*(catalog_group(n) for n in pair))
    assert_matches_oracle(G, [G.derived_subgroup(), G.center()])


def test_reciprocity_check_rejects_a_corrupted_entry():
    G = catalog_group("S4")
    N = G.derived_subgroup()
    degrees, sub_degrees = np.array(character_table(G).degrees()), np.array(character_table(N).degrees())
    D = _decomposition(G, N)
    _check_decomposition(D, degrees, sub_degrees)
    for delta in (1, -1):
        bad = D.copy()
        bad[2, 1] += delta
        with pytest.raises(InternalInconsistencyError, match="do not add up to the degrees"):
            _check_decomposition(bad, degrees, sub_degrees)
    bad = D.copy()
    bad[0, 0] = -1
    with pytest.raises(InternalInconsistencyError, match="negative"):
        _check_decomposition(bad, degrees, sub_degrees)


@pytest.mark.parametrize("shift, message", [(1, "not an integer"), (12, "do not add up")])
def test_decomposition_rejects_a_corrupted_product(monkeypatch, shift, message):
    # shift 1 is no multiple of |A4| = 12; shift 12 adds 1 to one multiplicity
    G = generate(4, ["(0 1)", "(0 1 2 3)"])
    A = G.derived_subgroup()
    character_table(G), character_table(A)  # their verify takes inner products too
    gram = characters._gram

    def corrupted(*args):
        P = gram(*args).copy()
        P[1, 0, 0] += shift
        return P

    monkeypatch.setattr(characters, "_gram", corrupted)
    with pytest.raises(InternalInconsistencyError, match=message):
        _decomposition(G, A)
    monkeypatch.undo()
    assert _decomposition(G, A).tolist() == oracle_decomposition(G, A)  # a raise stored nothing


def fresh(name):
    entry = next(e for e in load_catalog() if e.name == name)
    G = generate(entry.degree, entry.words)
    cs = canonical_series(G, Formation.parse("nilpotent"))
    return G, cs.projector, cs.pairs[0]


@pytest.mark.parametrize("name", ["S4", "2S4", "SL23"])
def test_a_character_that_is_no_row_takes_the_inner_product_route(name):
    # before K's (or L's) table is built, restrictions to it are no rows; the answer is the same
    G, H, (K, L) = fresh(name)
    checked = 0
    for chi in character_table(G).irr:
        theta = chi.restrict(K)
        if theta.is_irreducible() and theta.is_invariant_under(H):
            got = unique_invariant_below(theta, G, K, L, H)
            assert _built_table(K) is None and ("decomposition", K, L) not in G._memo
            assert got is oracle_unique_invariant_below(theta, L, H)
            checked += 1
    G, H, (K, L) = fresh(name)
    for psi in character_table(K).irr:
        phi = psi.restrict(L)
        if phi.is_irreducible() and phi.is_invariant_under(H):
            got = unique_invariant_above(phi, G, K, L, H)
            assert _built_table(L) is None and ("decomposition", K, L) not in G._memo
            assert got is oracle_unique_invariant_above(phi, K, H)
            checked += 1
    assert checked


def test_theorem_a_builds_one_matrix_per_pair(monkeypatch):
    # the formations of verify all over one N share D(G, N), and D(G, NH) per distinct NH
    G, _, _ = fresh("2S4")
    checks = []
    check = characters._check_decomposition
    monkeypatch.setattr(characters, "_check_decomposition", lambda D, *degrees: checks.append(D) or check(D, *degrees))
    for _ in range(2):
        for N in normal_subgroups(G):
            for F in FORMATIONS:
                theorem_a_report(G, F, N)
    keys = [key for key in G._memo if isinstance(key, tuple) and key[0] == "decomposition"]
    assert len(checks) == len(keys) and all(key[1] is G for key in keys)
    assert {key[2] for key in keys} >= set(normal_subgroups(G))
