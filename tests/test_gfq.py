"""GF(q) kernel tests: agreement with exact Fraction references."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import oracle_charpoly, oracle_sqrt_mod
from formata import gfq
from formata.characters import _sqrt_mod
from formata.errors import DomainError
from formata.groups import is_prime

Q = 101


def frac_charpoly(A):
    """det(xI - A) by exact Fraction Gaussian elimination at sample points."""
    # Faddeev-LeVerrier: exact integer characteristic polynomial
    n = A.shape[0]
    M = np.zeros((n, n), dtype=object)
    coeffs = [Fraction(1)]
    I = np.eye(n, dtype=object)
    Af = A.astype(object)
    for k in range(1, n + 1):
        M = Af @ M + coeffs[-1] * I
        c = Fraction(-np.trace(Af @ M), k)
        coeffs.append(c)
    return list(reversed(coeffs))  # ascending


mats = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=Q - 1), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=40, deadline=None)
@given(mats)
def test_charpoly_matches_faddeev_leverrier(rows):
    A = np.array(rows, dtype=np.int64)
    got = gfq.charpoly_mod(A, Q)
    ref = [int(c) % Q for c in frac_charpoly(A)]
    assert list(got) == ref


PRIMES_TO_337 = [p for p in range(2, 338) if is_prime(p)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=60),
    st.sampled_from(PRIMES_TO_337),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0, 5, 9]),
)
def test_charpoly_matches_the_term_by_term_oracle(n, q, seed, zeros):
    # sparse matrices reach the Hessenberg reduction's zero columns and zero subdiagonals
    rng = np.random.default_rng(seed)
    A = rng.integers(0, q, size=(n, n)) * (rng.integers(0, 10, size=(n, n)) >= zeros)
    assert gfq.charpoly_mod(A, q).tolist() == oracle_charpoly(A, q).tolist()


@settings(max_examples=40, deadline=None)
@given(mats)
def test_rref_idempotent_and_rank(rows):
    A = np.array(rows, dtype=np.int64)
    R, piv = gfq.rref_mod(A, Q)
    R2, piv2 = gfq.rref_mod(R, Q)
    assert np.array_equal(R, R2)
    assert list(piv) == list(piv2)
    for r, c in enumerate(piv):
        col = R[:, c]
        assert col[r] == 1 and np.count_nonzero(col) == 1


@settings(max_examples=40, deadline=None)
@given(mats)
def test_nullspace_annihilates_and_spans(rows):
    A = np.array(rows, dtype=np.int64)
    ns = gfq.nullspace_mod(A, Q)
    if ns.shape[0]:
        assert not np.any((A @ ns.T) % Q)
    _, piv = gfq.rref_mod(A, Q)
    assert ns.shape[0] == A.shape[1] - len(piv)


def test_poly_roots_exhaustive():
    # (x - 3)(x - 5)(x^2 + 1) over GF(101); 10^2 = 100 = -1 so x^2+1 has roots 10, 91
    coeffs = np.array([1], dtype=np.int64)
    for poly in ([(-3) % Q, 1], [(-5) % Q, 1], [1, 0, 1]):
        out = np.zeros(len(coeffs) + len(poly) - 1, dtype=np.int64)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(poly):
                out[i + j] = (out[i + j] + a * b) % Q
        coeffs = out
    assert gfq.poly_roots_mod(coeffs, Q) == [3, 5, 10, 91]


@pytest.mark.parametrize("q", [7, 13, 17, 97, 193, 337])
def test_sqrt_mod_is_the_least_tonelli_shanks_root(q):
    # q = 7 is 3 mod 4, q = 13 is 5 mod 8, the others are 1 mod 8
    for a in range(q):
        r = oracle_sqrt_mod(a, q)
        assert _sqrt_mod(a, q) == (None if r is None else min(r, (q - r) % q)), a


def test_matmul_matches_python():
    rng = np.random.default_rng(3)
    A = rng.integers(0, Q, size=(5, 7))
    B = rng.integers(0, Q, size=(7, 4))
    got = gfq.matmul_mod(A, B, Q)
    ref = [[sum(int(A[i, k]) * int(B[k, j]) for k in range(7)) % Q for j in range(4)] for i in range(5)]
    assert got.tolist() == ref


def test_singular_matrix_has_zero_det_coeff():
    A = np.array([[1, 2], [2, 4]], dtype=np.int64)
    cp = gfq.charpoly_mod(A, Q)
    assert cp[0] == 0  # det = constant term up to sign


def test_modulus_overflowing_int64_rejected():
    A = np.array([[3, 5, 7], [2, 9, 4], [6, 1, 8]], dtype=np.int64)
    q = 2**61 - 1
    for kernel in (gfq.rref_mod, gfq.nullspace_mod, gfq.charpoly_mod, gfq.poly_roots_mod):
        with pytest.raises(DomainError):
            kernel(A, q)
    with pytest.raises(DomainError):
        gfq.matmul_mod(A, A, q)


def test_moduli_at_the_int64_bound():
    # inner dimension 3 (3x3 charpoly_mod and matmul_mod) needs 3(q-1)^2 < 2^63
    limit = math.isqrt((2**63 - 1) // 3) + 1
    rng = np.random.default_rng(5)
    A = rng.integers(limit - 1000, limit, size=(3, 3))
    ref = [[sum(int(A[i, k]) * int(A[k, j]) for k in range(3)) % limit for j in range(3)] for i in range(3)]
    assert gfq.matmul_mod(A, A, limit).tolist() == ref
    with pytest.raises(DomainError):
        gfq.matmul_mod(A, A, limit + 1)
    with pytest.raises(DomainError):
        gfq.charpoly_mod(A, limit + 1)
    q = 1753413037  # the largest prime below that limit
    assert is_prime(q) and q <= limit
    A = rng.integers(q - 1000, q, size=(3, 3))
    assert list(gfq.charpoly_mod(A, q)) == [int(c) % q for c in frac_charpoly(A)]
    # rref_mod multiplies two residues at a time: (q-1)^2 < 2^63
    limit = math.isqrt(2**63 - 1) + 1
    q = 3037000493  # the largest prime below that limit
    assert is_prime(q) and q <= limit
    A = np.array([[q - 1, q - 2, 3], [q - 3, 5, q - 7], [1, q - 1, q - 1]], dtype=np.int64)
    R, piv = gfq.rref_mod(A, q)
    assert list(piv) == [0, 1, 2] and R.tolist() == np.eye(3, dtype=np.int64).tolist()
    with pytest.raises(DomainError):
        gfq.rref_mod(A, limit + 1)
