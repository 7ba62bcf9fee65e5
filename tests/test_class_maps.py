"""Cached class maps and the batched inner product, against the per-call routes they replace."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    oracle_conjugate_by,
    oracle_inner,
    oracle_restrict,
    oracle_split_spaces,
)
from formata import characters
from formata.catalog import catalog_group, load_catalog
from formata.characters import ClassFunction, character_table, inner_products
from formata.cli import VERIFY_FORMATIONS
from formata.cyclotomic import Cyclotomic
from formata.errors import DomainError
from formata.formations import Formation, projector
from formata.groups import PermGroup, class_products, generate, normal_subgroups
from formata.headchars import fprime_ascending, theorem_a_report
from formata.perms import Perm
from _products import direct_product
from test_class_support import benchmark_products, class_matrix

CATALOG = [entry.name for entry in load_catalog()]


def assert_same_function(got, want):
    assert got.group is want.group
    assert (got.e, got.den) == (want.e, want.den)
    assert np.array_equal(got.coeffs, want.coeffs)


def assert_maps_match_oracle(G):
    irr = character_table(G).irr
    subs = list(normal_subgroups(G))
    subs += [projector(G, Formation.parse(kind)) for kind in VERIFY_FORMATIONS]
    for U in subs:
        for chi in irr:
            assert_same_function(chi.restrict(U), oracle_restrict(chi, U))
    for H in subs[len(subs) - len(VERIFY_FORMATIONS) :]:
        for t in H.generators:
            for chi in irr:
                assert_same_function(chi.conjugate_by(t), oracle_conjugate_by(chi, t))


@pytest.mark.parametrize("name", CATALOG)
def test_restriction_and_conjugation_match_oracle_on_catalog(name):
    assert_maps_match_oracle(catalog_group(name))


def test_a_non_normalizing_conjugator_still_raises():
    G = generate(4, ["(0 1 2)", "(0 1)(2 3)"])  # A4; (2 3) moves <(0 1 2)> to <(0 1 3)>
    U = generate(4, ["(0 1 2)"])
    U = PermGroup.from_elements(G, U.elements())
    chi = character_table(U).irr[1]
    for _ in range(2):  # a failed build stores nothing, so the second call raises too
        with pytest.raises(DomainError):
            chi.conjugate_by(Perm((0, 1, 3, 2)))
    assert not any(k[0] == "class_conj" for k in G._memo if isinstance(k, tuple))


def gram_oracle(rows, cols):
    return [[oracle_inner(chi, psi) for psi in cols] for chi in rows]


def gram_values(rows, cols):
    G = rows[0].group
    e, P = inner_products(rows, cols)
    return [
        [
            Cyclotomic(e, [Fraction(int(c), G.order() * chi.den * psi.den) for c in P[i, j]])
            for j, psi in enumerate(cols)
        ]
        for i, chi in enumerate(rows)
    ]


def same(x, y):
    return (str(x), x.to_json()) == (str(y), y.to_json())


def assert_gram_matches_oracle(rows, cols):
    got, want = gram_values(rows, cols), gram_oracle(rows, cols)
    assert all(same(x, y) for r, s in zip(got, want) for x, y in zip(r, s))


@pytest.mark.parametrize("name", CATALOG)
def test_inner_products_match_oracle_on_catalog(name):
    G = catalog_group(name)
    irr = list(character_table(G).irr)
    assert_gram_matches_oracle(irr, irr)
    heads = fprime_ascending(G, Formation.parse("nilpotent"))
    for N in normal_subgroups(G):
        assert_gram_matches_oracle([chi.restrict(N) for chi in heads], list(character_table(N).irr))


def test_inner_products_take_the_python_int_route_past_the_bound(monkeypatch):
    routes = []
    real = characters._widen

    def spy(bound, *arrays):
        out = real(bound, *arrays)
        routes.append(all(a.dtype == object for a in out))
        return out

    monkeypatch.setattr(characters, "_widen", spy)
    G = catalog_group("C7C3")
    k = len(G.conjugacy_classes())
    big = 2**40 + 3
    rows = [
        ClassFunction(G, [big * Cyclotomic.zeta(3, j) + (j - big) * Cyclotomic.zeta(7) for j in range(k)]),
        ClassFunction(G, [2**70 + Cyclotomic.zeta(3)] * k),
    ]
    cols = [ClassFunction(G, [Fraction(big, 7) - big * Cyclotomic.zeta(21, j) for j in range(k)])]
    cols += list(character_table(G).irr)
    routes.clear()
    got = gram_values(rows, cols)
    assert routes == [True]
    want = gram_oracle(rows, cols)
    assert all(same(x, y) for r, s in zip(got, want) for x, y in zip(r, s))


def test_inner_is_the_one_by_one_product():
    G = catalog_group("G75")
    irr = character_table(G).irr
    e, P = inner_products(list(irr), list(irr))
    for i, chi in enumerate(irr):
        for j, psi in enumerate(irr):
            v = chi.inner(psi)
            assert same(v, Cyclotomic(e, [Fraction(int(c), G.order()) for c in P[i, j]]))
    assert inner_products([], list(irr))[1].shape == (0, len(irr), P.shape[2])


def count_builds(monkeypatch, tag):
    """Count the computations run under memo keys with this tag, per key."""
    builds = Counter()
    real = PermGroup.memo

    def memo(self, key, compute):
        def counted():
            builds[key] += 1
            return compute()

        return real(self, key, counted if key[0] == tag else compute)

    monkeypatch.setattr(PermGroup, "memo", memo)
    return builds


def test_theorem_a_builds_each_fusion_map_once(monkeypatch):
    builds = count_builds(monkeypatch, "fusion")
    G = generate(4, ["(0 1)", "(0 1 2 3)"])
    F = Formation.parse("nilpotent")
    for _ in range(2):
        for N in normal_subgroups(G):
            assert theorem_a_report(G, F, N)["summary"]["all_pass"]
    assert builds and set(builds.values()) == {1}
    assert {(key[1], key[2]) for key in builds} >= {(N, G) for N in normal_subgroups(G)}


def test_fresh_group_builds_its_own_class_maps(monkeypatch):
    # memos live on each root group, so maps cached for the catalog's S4 must
    # not answer for a freshly generated S4 with the same elements
    warm = catalog_group("S4")
    F = Formation.parse("nilpotent")
    for N in normal_subgroups(warm):
        theorem_a_report(warm, F, N)
    warm_keys = {key for key in warm._memo if isinstance(key, tuple)}
    assert any(key[0] == "fusion" for key in warm_keys)
    builds = count_builds(monkeypatch, "fusion")
    G = generate(4, ["(0 1)", "(0 1 2 3)"])
    assert G.element_set() == warm.element_set() and G is not warm
    for N in normal_subgroups(G):
        assert theorem_a_report(G, F, N)["summary"]["all_pass"]
    assert builds and all(key[1]._root is G and key[2]._root is G for key in builds)
    assert {key for key in warm._memo if isinstance(key, tuple)} == warm_keys


@pytest.mark.parametrize("name", CATALOG)
def test_split_matches_oracle_on_catalog(name):
    assert_split_matches_oracle(catalog_group(name))


@pytest.mark.parametrize("G", [pytest.param(G, id=label) for label, G in benchmark_products(("tables",))])
def test_split_matches_oracle_on_tables_products(G):
    assert_split_matches_oracle(G)


def assert_split_matches_oracle(G):
    # the split's order and scale are free: _dixon_once scales to 1 at class 0 and sorts the rows
    q = characters._admissible_prime(G.exponent(), G.order())
    got, want = characters._split_spaces(G, q), oracle_split_spaces(G, q)
    assert len(got) == len(want)
    assert at_class_0(got, q) == at_class_0(want, q)


def at_class_0(vectors, q):
    """The vectors mod q, each scaled to 1 at class 0, as a set."""
    assert all(int(u[0]) % q for u in vectors)
    return {tuple((np.asarray(u) * pow(int(u[0]), q - 2, q) % q).tolist()) for u in vectors}


def assert_split_is_certified(G):
    """k vectors, pairwise not proportional, each an eigenvector of every class matrix mod q."""
    q = characters._admissible_prime(G.exponent(), G.order())
    k = len(G.conjugacy_classes())
    U = np.asarray(characters._split_spaces(G, q)) % q
    assert U.shape == (k, k) and len(at_class_0(U, q)) == k
    products = class_products(G)
    for i in range(k):
        AU = class_matrix(G, i, products) % q @ U.T % q  # column j is A_i applied to vector j
        scale = AU[0] * np.array([pow(int(x), q - 2, q) for x in U[:, 0]]) % q
        assert np.array_equal(AU, U.T * scale % q), i


@pytest.mark.parametrize("name", CATALOG)
def test_split_is_certified_on_catalog(name):
    assert_split_is_certified(catalog_group(name))


@pytest.mark.parametrize("G", [pytest.param(G, id=label) for label, G in benchmark_products(("tables",))])
def test_split_is_certified_on_tables_products(G):
    assert_split_is_certified(G)


@pytest.mark.parametrize(
    "G",
    [
        pytest.param(direct_product(catalog_group("C6"), catalog_group("C6")), id="C6xC6"),
        pytest.param(direct_product(catalog_group("C12"), catalog_group("C12")), id="C12xC12"),
        pytest.param(generate(12, ["(%d %d)" % (i, i + 1) for i in range(0, 12, 2)]), id="C2^6"),
    ],
)
def test_split_past_the_generic_rounds_is_certified(monkeypatch, G):
    # k > q on all three (36 > 13, 144 > 37, 64 > 17), so one round, with at
    # most q eigenvalues, cannot split the space: with one generic round,
    # single class matrices must finish the split
    rounds = []
    real = characters._project

    def counting(M, seeds, q):
        rounds.append(M)
        return real(M, seeds, q)

    monkeypatch.setattr(characters, "_project", counting)
    q = characters._admissible_prime(G.exponent(), G.order())
    assert len(G.conjugacy_classes()) > q
    characters._split_spaces(G, q)
    assert len(rounds) <= characters._GENERIC_ROUNDS + 1  # C2^6 took 35 rounds with c_i = (r + 2)^i
    rounds.clear()
    monkeypatch.setattr(characters, "_GENERIC_ROUNDS", 1)
    characters._split_spaces(G, q)
    assert len(rounds) > 1
    i = len(rounds) - 1  # the last round ran on A_i
    assert np.array_equal(rounds[-1], class_matrix(G, i) % q)
    monkeypatch.setattr(characters, "_project", real)
    assert_split_is_certified(G)
    monkeypatch.undo()
    assert_split_is_certified(G)


def slow_product(p, q):
    return Perm._make(tuple(q.images[i] for i in p.images))


@pytest.mark.parametrize("degree", [1, 2])
def test_products_at_the_smallest_degrees(degree):
    elts = [Perm.identity(degree)] + ([Perm((1, 0))] if degree == 2 else [])
    for p in elts:
        for q in elts:
            assert (p * q).images == slow_product(p, q).images
            assert p.commutator(q).images == Perm.identity(degree).images


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 40).flatmap(lambda n: st.tuples(*[st.permutations(range(n))] * 2)))
def test_products_match_the_generator_form(pair):
    p, q = (Perm(xs) for xs in pair)
    assert (p * q).images == slow_product(p, q).images
    want = slow_product(slow_product(slow_product(p.inverse(), q.inverse()), p), q)
    assert p.commutator(q).images == want.images
