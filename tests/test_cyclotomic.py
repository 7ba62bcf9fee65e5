"""Cyclotomic arithmetic tests: ring axioms, Galois action, minimal forms."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formata.characters import ClassFunction
from formata.cyclotomic import Cyclotomic, cyclotomic_poly, divisors, phi

from _oracles import (
    _reduce_mod_phi,
    oracle_add,
    oracle_eq,
    oracle_galois,
    oracle_mul,
    oracle_reduced,
    oracle_scale,
    oracle_zeta,
)

zeta = Cyclotomic.zeta
rat = Cyclotomic.rational


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_zeta_relations():
    assert zeta(4) * zeta(4) == rat(-1)
    assert zeta(3) ** 3 == rat(1)
    assert zeta(3) + zeta(3) ** 2 == rat(-1)
    assert sum(zeta(5, k) for k in range(5)) == rat(0)
    assert zeta(8) ** 4 == rat(-1)
    assert zeta(6) == 1 + zeta(3)  # zeta_6 = -zeta_3^2 = 1 + zeta_3


def test_cross_conductor_equality():
    assert zeta(4) == zeta(8) ** 2
    assert zeta(2) == rat(-1)
    assert zeta(10) ** 5 == rat(-1)
    assert hash(zeta(8) ** 2) == hash(zeta(4))
    assert hash(rat(7)) == hash(7)


def test_rational_detection():
    x = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert x.is_rational() and x.as_fraction() == -1
    y = zeta(8) + zeta(8, 7)  # sqrt(2)
    assert not y.is_rational()
    assert (y * y).as_int() == 2


def test_conjugate_and_galois():
    z = zeta(7)
    assert z.conjugate() == zeta(7, 6)
    assert (z * z.conjugate()).as_int() == 1
    x = 2 * zeta(5) - zeta(5, 2) / 3
    assert x.galois(2) == 2 * zeta(5, 2) - zeta(5, 4) / 3
    with pytest.raises(ValueError):
        zeta(6).galois(2)


def test_reduced_minimal_conductor():
    assert (zeta(12) ** 3).reduced().n == 4
    assert (zeta(12) ** 4).reduced().n == 3
    assert (zeta(9) ** 3).reduced().n == 3
    assert rat(5).reduced().n == 1
    # conductor 2m with m odd collapses to m
    assert zeta(6).reduced().n == 3
    gauss = sum(zeta(5, k * k % 5) for k in range(1, 5))  # sqrt(5) - 1 over 2 doubled
    assert gauss.reduced().n == 5


def test_str_and_json_round_trip():
    x = zeta(8, 3) - zeta(8) + rat(Fraction(1, 2))
    assert str(x) == "z8^3 - z8 + 1/2"
    j = x.to_json()
    assert j["conductor"] == 8
    assert Cyclotomic.from_json(j) == x
    assert str(rat(Fraction(-3, 4))) == "-3/4"
    assert Cyclotomic.from_json(rat(0).to_json()) == rat(0)


def test_division():
    x = zeta(3) * 6
    assert x / 3 == 2 * zeta(3)
    assert x / Fraction(1, 2) == 12 * zeta(3)
    assert x / rat(2) == 3 * zeta(3)
    with pytest.raises(ZeroDivisionError):
        x / 0


def test_non_rational_coefficients_are_refused(s3):
    with pytest.raises(TypeError):
        Cyclotomic.rational(0.1)
    with pytest.raises(TypeError):
        Cyclotomic(3, [1, 0.5])
    with pytest.raises(TypeError):
        Cyclotomic.from_json({"conductor": 1, "coeffs": [0.1]})
    with pytest.raises(TypeError):
        ClassFunction(s3, [0.1, 0, 0])
    with pytest.raises(TypeError):
        zeta(3) + 0.5


def test_zeta_needs_a_positive_conductor():
    with pytest.raises(ValueError, match="conductor must be positive"):
        zeta(0)
    with pytest.raises(ValueError, match="conductor must be positive"):
        Cyclotomic(0, [1])


small = st.integers(min_value=-4, max_value=4)


@st.composite
def cyclos(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    coeffs = draw(st.lists(small, min_size=1, max_size=phi(n)))
    return Cyclotomic(n, [Fraction(c) for c in coeffs])


@settings(max_examples=60, deadline=None)
@given(cyclos(), cyclos(), cyclos())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + rat(0) == a
    assert a * rat(1) == a
    assert a - a == rat(0)


@settings(max_examples=60, deadline=None)
@given(cyclos())
def test_conjugation_is_involution(a):
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert norm.conjugate() == norm


@settings(max_examples=60, deadline=None)
@given(cyclos())
def test_reduced_preserves_value(a):
    r = a.reduced()
    assert r == a
    assert r.n <= a.n


@settings(max_examples=30, deadline=None)
@given(cyclos(), cyclos())
def test_galois_is_ring_map(a, b):
    from math import gcd, lcm

    m = lcm(a.n, b.n)
    am = a + zeta(m) - zeta(m)  # force both onto the common conductor
    bm = b + zeta(m) - zeta(m)
    units = [k for k in range(2, m + 1) if gcd(k, m) == 1][:3]
    for k in units:
        assert (am + bm).galois(k) == am.galois(k) + bm.galois(k)
        assert (am * bm).galois(k) == am.galois(k) * bm.galois(k)


# -- every operation against the Fraction-list oracles ----------------------------

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coefficients = st.one_of(
    small_fractions,
    # past 2^40 the integer kernels move to Python ints
    st.integers(min_value=-(2**62), max_value=2**62).map(Fraction),
    st.builds(Fraction, st.integers(min_value=-(2**45), max_value=2**45), st.integers(1, 6)),
)


@st.composite
def oracle_cases(draw):
    """Values over Q(zeta_N), N <= 84, and over a divisor of N, with a Galois unit of the first.

    Coefficient lists run past phi(n), so the constructor reduces them; the
    first has N + 2 small nonzero coefficients, so it reads every row of z^t
    mod Phi_N, and the second may have coefficients past 2^40.
    """
    big = draw(st.sampled_from((12, 20, 21, 24, 28, 42, 84)))
    m = draw(st.sampled_from(divisors(big)))
    full = draw(st.lists(small_fractions.filter(bool), min_size=big + 2, max_size=big + 2))
    sparse = draw(st.lists(st.one_of(st.just(Fraction(0)), coefficients), max_size=m + 2))
    values = [(big, full), (m, sparse)]
    n = values[0][0]
    k = draw(st.sampled_from([k for k in range(1, n + 1) if gcd(k, n) == 1]))
    return big, values, k


def assert_matches(got, want):
    """got equals the oracle value want in stored form, minimal form, hash, str and JSON."""
    assert (got.n, got.coeffs) == want
    low = Cyclotomic(*oracle_reduced(want))
    assert (got.reduced().n, got.reduced().coeffs) == (low.n, low.coeffs)
    assert got.sort_key() == (low.n, tuple((c.numerator, c.denominator) for c in low.coeffs))
    assert hash(got) == (hash(low.coeffs[0]) if low.n == 1 else hash((low.n, low.coeffs)))
    assert (str(got), got.to_json()) == (str(low), low.to_json())
    assert got == low and hash(got) == hash(low)


@settings(max_examples=50, deadline=None)
@given(oracle_cases())
def test_operations_match_fraction_oracles(case):
    big, ((n, ac), (m, bc)), k = case
    a, b = Cyclotomic(n, ac), Cyclotomic(m, bc)
    A, B = (n, _reduce_mod_phi(ac, n)), (m, _reduce_mod_phi(bc, m))
    up = b + Cyclotomic(big, [])
    UP = oracle_add(B, (big, _reduce_mod_phi([], big)))
    q = Fraction(-3, 7)
    power = (1, (Fraction(1),))
    for _ in range(3):
        power = oracle_mul(power, B)
    cases = [
        (a, A),
        (b, B),
        (up, UP),
        (a + b, oracle_add(A, B)),
        (a - b, oracle_add(A, oracle_scale(B, -1))),
        (a * b, oracle_mul(A, B)),
        (a * up, oracle_mul(A, UP)),
        (a / q, oracle_scale(A, 1 / q)),
        (b**3, power),
        (a.galois(k), oracle_galois(A, k)),
        (b.galois(k), oracle_galois(B, k)),
        (a.conjugate(), oracle_galois(A, -1)),
        (zeta(big, k) * b, oracle_mul(oracle_zeta(big, k), B)),
    ]
    for got, want in cases:
        assert_matches(got, want)
    # a against b, b against itself over Q(zeta_N), that against a, a * b against a * up
    for i, j in ((0, 1), (1, 2), (2, 0), (5, 6)):
        (x, X), (y, Y) = cases[i], cases[j]
        assert (x == y) == oracle_eq(X, Y)
    assert up == b
