"""Character table tests against the independent sympy oracle."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Rational

from formata import characters, cyclotomic
from formata.catalog import catalog_group, load_catalog
from formata.characters import (
    CharacterTable,
    ClassFunction,
    character_table,
    deflate,
    extensions_of,
    inflate,
    linear_characters,
    trivial_character,
)
from formata.cyclotomic import Cyclotomic
from formata.errors import InternalInconsistencyError
from formata.groups import generate, normal_subgroups, quotient

from _oracles import (
    oracle_character_table,
    oracle_inner,
    oracle_lift,
    oracle_minimal,
    oracle_row_key,
    oracle_sort_key,
)
from _products import PAIRS, direct_product


def cyclo_to_anp(val, fld, gen, e):
    assert e % val.n == 0
    step = e // val.n
    acc = fld.zero
    for i, c in enumerate(val.coeffs):
        if c:
            acc += fld.convert(Rational(c.numerator, c.denominator)) * gen ** (i * step)
    return acc


def assert_matches_oracle(G):
    tab = character_table(G)
    rows, fld = oracle_character_table(G)
    e = G.exponent()
    if e == 1:
        assert tab.degrees() == [1]
        return
    gen = fld.from_sympy(sympy.exp(2 * sympy.pi * sympy.I / e))
    remaining = list(rows)
    for chi in tab.irr:
        mine = [cyclo_to_anp(v, fld, gen, e) for v in chi.values]
        hit = next((i for i, orc in enumerate(remaining) if orc == mine), None)
        assert hit is not None, "computed character not produced by oracle"
        remaining.pop(hit)
    assert not remaining


@pytest.mark.parametrize(
    "degree,words",
    [
        (4, ["(0 1)", "(0 1 2 3)"]),  # S4
        (4, ["(0 1 2)", "(0 1)(2 3)"]),  # A4
        (4, ["(0 1 2 3)", "(0 2)"]),  # D8
        (8, ["(0 2 1 3)(4 7 5 6)", "(0 4 1 5)(2 6 3 7)"]),  # Q8
        (5, ["(0 1 2 3 4)", "(1 4)(2 3)"]),  # D10
        (7, ["(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)"]),  # C7:C3
        (5, ["(0 1 2 3 4)"]),  # C5
        (6, ["(0 1 2 3 4 5)"]),  # C6
    ],
    ids=["S4", "A4", "D8", "Q8", "D10", "C7xC3", "C5", "C6"],
)
def test_table_matches_oracle(degree, words):
    assert_matches_oracle(generate(degree, words))


def test_s4_table_frozen(s4):
    tab = character_table(s4)
    assert tab.degrees() == [1, 1, 2, 3, 3]
    # classes in order: e, (01)(23)x3, (01)x6, (0123)x6, (012)x8
    sign = tab.irr[0]
    assert [str(v) for v in sign.values] == ["1", "1", "-1", "-1", "1"]
    assert tab.irr[1] == trivial_character(s4)
    two = tab.irr[2]
    assert [str(v) for v in two.values] == ["2", "2", "0", "0", "-1"]


def test_q8_table_frozen():
    q8 = generate(8, ["(0 2 1 3)(4 7 5 6)", "(0 4 1 5)(2 6 3 7)"])
    tab = character_table(q8)
    assert tab.degrees() == [1, 1, 1, 1, 2]
    assert [str(v) for v in tab.irr[4].values] == ["2", "-2", "0", "0", "0"]


def test_verify_passes(s4):
    assert character_table(s4).verify()


def test_second_orthogonality(s4):
    tab = character_table(s4)
    classes = s4.conjugacy_classes()
    k = len(classes)
    for i in range(k):
        for j in range(k):
            acc = Cyclotomic.rational(0)
            for chi in tab.irr:
                acc = acc + chi.values[i] * chi.values[j].conjugate()
            want = s4.order() // classes[i].size if i == j else 0
            assert acc == Cyclotomic.rational(want)


def test_restriction_to_a4(s4, a4):
    tab = character_table(s4)
    a4_tab = character_table(a4)
    two = tab.irr[2]
    down = two.restrict(a4)
    cons = down.constituents(a4_tab)
    assert [(a4_tab.irr[i].values[0].as_int(), m) for i, m in cons] == [(1, 1), (1, 1)]
    assert all(a4_tab.irr[i] != trivial_character(a4) for i, _ in cons)


def test_frobenius_reciprocity(s4, a4):
    tab_g = character_table(s4)
    tab_h = character_table(a4)
    for phi in tab_h.irr:
        up = phi.induce(s4)
        for chi in tab_g.irr:
            assert up.inner(chi) == chi.restrict(a4).inner(phi)


def test_induced_degree(s4, a4):
    phi = character_table(a4).irr[-1]
    up = phi.induce(s4)
    assert up.values[0] == phi.values[0] * 2


def test_kernels(s4, a4):
    tab = character_table(s4)
    sign = tab.irr[0]
    assert sign.kernel().order() == 12
    assert sign.kernel().sort_key() == a4.sort_key()
    assert trivial_character(s4).kernel().order() == 24
    assert tab.irr[3].kernel().order() == 1  # faithful 3-dim


def test_restriction_to_normal_is_invariant(s4, v4):
    tab = character_table(s4)
    for chi in tab.irr:
        assert chi.restrict(v4).is_invariant_under(s4)


def test_extensions_and_gallagher_count(d8, v4):
    d8_tab = character_table(d8)
    lin_count = len([c for c in d8_tab.irr if c.values[0] == 1 and c.restrict(v4) == trivial_character(v4)])
    for lam in character_table(v4).irr:
        exts = extensions_of(lam, d8)
        if lam.is_invariant_under(d8):
            assert len(exts) in (0, lin_count)
        else:
            assert exts == []
        for g in exts:
            assert g.restrict(v4) == lam


def test_inflate_deflate_round_trip(s4, v4):
    Q, gmap = quotient(s4, v4)
    q_tab = character_table(Q)
    for chi in q_tab.irr:
        up = inflate(chi, gmap)
        assert up.is_irreducible()
        assert v4.order() % up.kernel().order() == 0 or up.kernel().order() % v4.order() == 0
        assert deflate(up, gmap) == chi


def test_conjugate_by_inner_is_fixed(s4):
    for chi in character_table(s4).irr:
        for g in s4.generators:
            assert chi.conjugate_by(g) == chi


def test_tensor_square_decomposition(s4):
    tab = character_table(s4)
    two = tab.irr[2]
    prod = two * two
    cons = prod.constituents(tab)
    assert sum(m * tab.irr[i].values[0].as_int() for i, m in cons) == 4
    assert all(m >= 1 for _, m in cons)


def test_linear_characters_count(s4, a4, d8):
    assert len(linear_characters(s4)) == 2
    assert len(linear_characters(a4)) == 3
    assert len(linear_characters(d8)) == 4


def test_class_function_arithmetic(s4):
    tab = character_table(s4)
    a, b = tab.irr[0], tab.irr[2]
    assert (a + b).values[0].as_int() == 3
    assert (a - a).values == trivial_character(s4).__class__(s4, [0] * 5).values
    assert (2 * b).values[0].as_int() == 4
    assert (a + b).inner(a) == Cyclotomic.rational(1)


def test_table_cached(s4):
    assert character_table(s4) is character_table(s4)


# -- the integer form against the Cyclotomic oracles ---------------------------

ORACLE_GROUPS = ("S4", "Q8", "G75", "2S4", "C7C3")


def same_cyclotomic(a, b):
    """Equal values with equal minimal forms, so display and JSON agree too; b's by the oracle."""
    return a == b and a.sort_key() == oracle_sort_key(b)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_inner_matches_oracle_on_irreducibles(name):
    irr = character_table(catalog_group(name)).irr
    for chi in irr:
        for psi in irr:
            assert same_cyclotomic(chi.inner(psi), oracle_inner(chi, psi))


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_inner_matches_oracle_on_restrictions(name):
    G = catalog_group(name)
    irr = character_table(G).irr
    for N in normal_subgroups(G):
        irr_n = character_table(N).irr
        for chi in irr:
            rest = chi.restrict(N)
            assert same_cyclotomic(rest.inner(rest), oracle_inner(rest, rest))
            for th in irr_n:
                assert same_cyclotomic(rest.inner(th), oracle_inner(rest, th))
                assert same_cyclotomic(th.inner(rest), oracle_inner(th, rest))


HYP_GROUPS = {name: catalog_group(name) for name in ("S4", "C7C3", "Q8")}


@st.composite
def cyclotomic_values(draw):
    """Sums of c * zeta_n^a with Fraction c, over conductors that need not agree."""
    terms = draw(
        st.lists(
            st.tuples(
                st.fractions(min_value=-5, max_value=5, max_denominator=6),
                st.sampled_from((1, 2, 3, 4, 6, 12)),
                st.integers(0, 20),
            ),
            max_size=3,
        )
    )
    acc = Cyclotomic.rational(0)
    for c, n, a in terms:
        acc = acc + c * Cyclotomic.zeta(n, a)
    return acc


@st.composite
def class_function_pairs(draw):
    G = HYP_GROUPS[draw(st.sampled_from(sorted(HYP_GROUPS)))]
    k = len(G.conjugacy_classes())
    a = draw(st.lists(cyclotomic_values(), min_size=k, max_size=k))
    b = draw(st.lists(cyclotomic_values(), min_size=k, max_size=k))
    return G, a, b


@settings(max_examples=60, deadline=None)
@given(class_function_pairs())
def test_class_function_arithmetic_matches_cyclotomic(pair):
    G, a, b = pair
    chi, psi = ClassFunction(G, a), ClassFunction(G, b)
    rebuilt = ClassFunction._from_coeffs(G, chi.e, chi.coeffs, chi.den)
    assert all(same_cyclotomic(x, y) for x, y in zip(rebuilt.values, a))
    assert same_cyclotomic(chi.inner(psi), oracle_inner(chi, psi))
    assert all(same_cyclotomic(x, y + z) for x, y, z in zip((chi + psi).values, a, b))
    assert all(same_cyclotomic(x, y - z) for x, y, z in zip((chi - psi).values, a, b))
    assert all(same_cyclotomic(x, y * z) for x, y, z in zip((chi * psi).values, a, b))
    third = Fraction(-1, 3)
    assert all(same_cyclotomic(x, y * third) for x, y in zip((chi * third).values, a))
    assert (chi == psi) == (list(a) == list(b))
    assert chi == rebuilt and hash(chi) == hash(rebuilt)
    assert characters._row_keys([chi, chi * third]) == [oracle_row_key(chi), oracle_row_key(chi * third)]


def test_irrational_inner_matches_oracle():
    G = catalog_group("C7C3")
    k = len(G.conjugacy_classes())
    z3, z7 = Cyclotomic.zeta(3), Cyclotomic.zeta(7, 2)
    chi = ClassFunction(G, [Fraction(1, 2)] + [z3] * (k - 1))
    psi = ClassFunction(G, [z7 + 1] * k)
    v = chi.inner(psi)
    assert not v.is_rational()
    assert same_cyclotomic(v, oracle_inner(chi, psi))


def test_equal_class_functions_over_different_conductors():
    G = catalog_group("S4")
    chi = character_table(G).irr[2]
    same = ClassFunction(G, [int(v.as_int()) for v in chi.values])
    assert same.e == 1 and chi.e == G.exponent()
    assert same == chi and hash(same) == hash(chi)


def test_lift_matches_oracle_on_catalog(monkeypatch):
    calls = []
    real = characters._lift_character

    def recording(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(characters, "_lift_character", recording)
    for entry in load_catalog():
        G = generate(entry.degree, entry.words)
        calls.clear()
        character_table(G)
        assert len(calls) == 1  # one batched lift for every row of the table
        (G_, c_mod, d, q, z, e, power_cache), coeffs = calls[0]
        assert len(coeffs) == len(c_mod) == len(d) == len(G.conjugacy_classes())
        for row, X, degree in zip(c_mod.tolist(), coeffs, d.tolist()):
            lifted = ClassFunction._from_coeffs(G, e, X).values
            want = oracle_lift(G_, row, degree, q, z, e, power_cache)
            assert all(same_cyclotomic(x, y) for x, y in zip(lifted, want)), entry.name


def test_verify_rejects_a_corrupted_value():
    G = catalog_group("C7C3")
    tab = character_table(G)
    z3, z3sq = Cyclotomic.zeta(3), Cyclotomic.zeta(3, 2)
    i, chi = next((i, chi) for i, chi in enumerate(tab.irr) if z3 in chi.values)
    vals = list(chi.values)
    vals[vals.index(z3)] = z3sq
    rows = list(tab.irr)
    rows[i] = ClassFunction(G, vals)
    with pytest.raises(InternalInconsistencyError):
        CharacterTable(G, rows, tab.prime).verify()


def test_verify_rejects_a_negated_row():
    # -sign is orthogonal to every other row and has norm 1, and its degree squares to 1
    G = catalog_group("S4")
    tab = character_table(G)
    sign = next(i for i, chi in enumerate(tab.irr) if i and chi.degree() == 1)
    rows = list(tab.irr)
    rows[sign] = rows[sign] * -1
    with pytest.raises(InternalInconsistencyError, match="positive integer"):
        CharacterTable(G, rows, tab.prime).verify()


def test_verify_rejects_a_sign_flip_in_permuted_rows():
    G = catalog_group("S4")
    tab = character_table(G)
    rows = list(reversed(tab.irr))
    rows[0] = rows[0] * -1  # the largest degree, negated, first
    with pytest.raises(InternalInconsistencyError, match="positive integer"):
        CharacterTable(G, rows, tab.prime).verify()
    assert CharacterTable(G, list(reversed(tab.irr)), tab.prime).verify()


def test_a_failed_certificate_is_not_retried_on_another_prime(monkeypatch):
    # the first admissible prime always splits the class algebra, so a failed
    # verify is a fault to report, not a reason to try the next prime
    verify = CharacterTable.verify
    failures = [InternalInconsistencyError("injected")]

    def fail_once(table):
        if failures:
            raise failures.pop()
        return verify(table)

    monkeypatch.setattr(CharacterTable, "verify", fail_once)
    with pytest.raises(InternalInconsistencyError, match="injected"):
        character_table(generate(4, ["(0 1 2 3)", "(0 2)"]))
    assert not failures


def test_large_coefficients_take_the_python_int_route(monkeypatch):
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
    a = [big * Cyclotomic.zeta(3, j) + (j - big) * Cyclotomic.zeta(7) for j in range(k)]
    b = [Fraction(big, 7) - big * Cyclotomic.zeta(21, j) for j in range(k)]
    chi, psi = ClassFunction(G, a), ClassFunction(G, b)
    assert chi.coeffs.dtype == np.int64  # every stored entry fits in int64
    routes.clear()
    v = chi.inner(psi)
    assert routes == [True]
    assert same_cyclotomic(v, oracle_inner(chi, psi))
    assert all(same_cyclotomic(x, y * z) for x, y, z in zip((chi * psi).values, a, b))
    huge = ClassFunction(G, [2**70 + Cyclotomic.zeta(3)] * k)
    assert huge.coeffs.dtype == object
    assert same_cyclotomic(huge.inner(chi), oracle_inner(huge, chi))


# -- the row key against the Cyclotomic minimal form ----------------------------


def assert_row_order_matches_oracle(G):
    irr = list(character_table(G).irr)
    want = [oracle_row_key(chi) for chi in irr]
    assert characters._row_keys(irr) == want
    assert want == sorted(want) and len(set(want)) == len(want)


@pytest.mark.parametrize("name", [entry.name for entry in load_catalog()])
def test_row_keys_match_oracle_on_catalog(name):
    assert_row_order_matches_oracle(catalog_group(name))


def _bench_tables():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TABLES


@pytest.mark.parametrize("names", _bench_tables(), ids="x".join)
def test_row_keys_match_oracle_on_bench_products(names):
    G = direct_product(*(catalog_group(n) for n in names))
    assert_row_order_matches_oracle(G)
    for chi in character_table(G).irr:
        for v in chi.values:
            want = oracle_minimal(v)
            assert (str(v), v.to_json()) == (str(want), want.to_json())


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(PAIRS))
def test_row_keys_match_oracle_on_products(pair):
    assert_row_order_matches_oracle(direct_product(*(catalog_group(n) for n in pair)))


def test_row_key_descends_without_a_column_selection():
    # C3 x C4 has exponent 12; 2 does not divide 3, so reading a Q(zeta_3) value
    # off its Q(zeta_12) coefficients takes a combination of columns
    G = generate(7, ["(0 1 2)", "(3 4 5 6)"])
    L, D = cyclotomic._descent(3, 12)
    assert (L != 0).sum() > L.shape[1]
    assert (cyclotomic._embedding(3, 12) @ L == D * np.eye(2, dtype=np.int64)).all()
    z3, z4, z12 = Cyclotomic.zeta(3), Cyclotomic.zeta(4), Cyclotomic.zeta(12)
    values = [z3, z3 * Fraction(-2, 5) + 1, z3.conjugate(), z4, z4 + Fraction(1, 3), z12, z12 + z3]
    values += [Cyclotomic.rational(j) for j in range(12 - len(values))]
    chi = ClassFunction(G, values)
    assert chi.e == 12
    key = characters._row_keys([chi])[0]
    assert key == oracle_row_key(chi)
    assert [n for n, _ in key[1][:7]] == [3, 3, 3, 4, 4, 12, 12]
