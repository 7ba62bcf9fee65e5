"""The character table's row kernels against the per-row routes they replace.

``CharacterTable.index`` finds a class function among the rows by one dict
lookup, ``extensions`` lists the rows restricting to a character of a subgroup
from one gather by the fusion map, ``invariant_rows`` marks the rows fixed by a
normalizing group with one compare per generator, and ``twists`` forms every
Gallagher twist with one product.  The oracles in ``_oracles`` are the per-row
routes: one ``restrict``, ``conjugate_by`` or inner product and one ``==`` per
row.  The diffs run on every catalog table, restricted to each normal subgroup
and to each ``VERIFY_FORMATIONS`` projector, on the benchmark products and on
``PAIRS`` under Hypothesis, and on inputs that are not rows.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    oracle_extensions_of,
    oracle_first_extension,
    oracle_gallagher_family,
    oracle_is_invariant_under,
    oracle_is_irreducible,
)
from _products import PAIRS, direct_product
from formata.catalog import catalog_group, load_catalog
from formata.characters import ClassFunction, _built_table, character_table, extensions_of
from formata.cli import VERIFY_FORMATIONS
from formata.formations import Formation, projector
from formata.groups import generate, normal_subgroups, subgroup_product
from formata.headchars import _first_extension, gallagher_family, theorem_a_report
from test_class_support import benchmark_products

FORMATIONS = [Formation.parse(name) for name in VERIFY_FORMATIONS]


def assert_restrictions_match_oracle(G, U):
    """Restrictions of G's rows to U, and U's rows, through index, extensions and is_irreducible."""
    table, sub = character_table(G), character_table(U)
    for chi in table.irr:
        rest = chi.restrict(U)  # a fresh object: its irreducibility is not yet memoized
        assert rest.is_irreducible() == oracle_is_irreducible(rest)
        assert sub.index(rest) == next((j for j, psi in enumerate(sub.irr) if psi == rest), None)
        assert extensions_of(rest, G) == oracle_extensions_of(rest, G)
        half = rest * Fraction(1, 2)  # a denominator unless every value is even
        assert sub.index(half) == next((j for j, psi in enumerate(sub.irr) if psi == half), None)
        assert extensions_of(half, G) == oracle_extensions_of(half, G)
        if half.den != 1:
            # not a character: no row, even where <half, half> = 1 (rest a sum of four rows)
            assert sub.index(half) is None and not half.is_irreducible() and extensions_of(half, G) == []
    for theta in sub.irr:
        assert extensions_of(theta, G) == oracle_extensions_of(theta, G)
        assert _first_extension(theta, G) is oracle_first_extension(theta, G)


def assert_invariance_matches_oracle(U, H):
    """The rows of U's table fixed by H, which normalizes U, as the mask and as is_invariant_under."""
    sub = character_table(U)
    want = [oracle_is_invariant_under(psi, H) for psi in sub.irr]
    assert list(sub.invariant_rows(H)) == want
    assert [psi.is_invariant_under(H) for psi in sub.irr] == want
    # a function equal to a row but not the row object reads the mask too
    assert [psi.restrict(U).is_invariant_under(H) for psi in sub.irr] == want


def assert_kernels_match_oracle(G, normals):
    """G's row kernels on normal subgroups (invariant under G and each projector) and on the projectors."""
    table = character_table(G)
    assert [table.index(chi) for chi in table.irr] == list(range(len(table.irr)))
    projectors = [projector(G, F) for F in FORMATIONS]
    for N in normals:
        assert_restrictions_match_oracle(G, N)
        for H in (G, *projectors):
            assert_invariance_matches_oracle(N, H)
    for U in projectors:
        assert_restrictions_match_oracle(G, U)
        assert_invariance_matches_oracle(U, U)


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda entry: entry.name)
def test_row_kernels_match_oracle_on_catalog(entry):
    G = generate(entry.degree, entry.words)
    assert_kernels_match_oracle(G, normal_subgroups(G))


@pytest.mark.parametrize("label, G", benchmark_products(), ids=lambda x: x if isinstance(x, str) else "")
def test_row_kernels_match_oracle_on_benchmark_products(label, G):
    assert_kernels_match_oracle(G, [G.derived_subgroup(), G.center()])


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(PAIRS))
def test_row_kernels_match_oracle_on_products(pair):
    G = direct_product(*(catalog_group(n) for n in pair))
    assert_kernels_match_oracle(G, [G.derived_subgroup(), G.center()])


def test_a_restriction_keeps_its_conductor():
    # S4's rows are written over Q(zeta_12); restricted to V4, of exponent 2,
    # they keep the conductor 12, and the lookup embeds V4's rows into it
    G = catalog_group("S4")
    V = G.derived_subgroup().derived_subgroup()
    sub = character_table(V)
    for chi in character_table(G).irr:
        rest = chi.restrict(V)
        assert rest.e == 12 and V.exponent() == 2
        assert rest.is_irreducible() == oracle_is_irreducible(rest) == (chi.degree() == 1)
        assert (sub.index(rest) is not None) == (chi.degree() == 1)


def test_is_irreducible_builds_no_table():
    # before the subgroup's table is built, irreducibility is the inner product
    G = generate(4, ["(0 1)", "(0 1 2 3)"])
    table = character_table(G)
    A = G.derived_subgroup()
    assert _built_table(A) is None
    assert [chi.restrict(A).is_irreducible() for chi in table.irr] == [True, True, False, True, True]
    assert _built_table(A) is None
    assert [chi.restrict(A).is_irreducible() for chi in table.irr] == [
        oracle_is_irreducible(chi.restrict(A)) for chi in table.irr
    ]


def test_a_function_on_another_group_object_is_no_row():
    G = catalog_group("S3")
    twin = generate(G.degree, [g.cycle_string() for g in G.generators])
    chi = character_table(G).irr[2]
    assert character_table(twin).index(ClassFunction._from_coeffs(twin, chi.e, chi.coeffs)) == 2
    assert character_table(G).index(ClassFunction._from_coeffs(twin, chi.e, chi.coeffs)) is None


@pytest.mark.parametrize("label, G", benchmark_products(), ids=lambda x: x if isinstance(x, str) else "")
def test_gallagher_family_matches_value_oracle_on_benchmark_products(label, G):
    H = projector(G, Formation.parse("nilpotent"))
    for N in (G.derived_subgroup(), G.center()):
        NH = subgroup_product(N, H)
        for gamma in character_table(NH).irr:
            assert gallagher_family(gamma, N) == oracle_gallagher_family(gamma, N)


@pytest.mark.parametrize("name", ["S4", "2S4"])
def test_theorem_a_multiplies_no_class_function(monkeypatch, name):
    calls = []
    mul = ClassFunction.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(ClassFunction, "__mul__", counted)
    G = catalog_group(name)
    checked = 0
    for N in normal_subgroups(G):
        rep = theorem_a_report(G, Formation.parse("nilpotent"), N)
        assert rep["summary"]["all_pass"]
        checked += sum(inst["witnesses"]["part_c"]["checked"] for inst in rep["instances"])
    assert checked > 0 and calls == []
