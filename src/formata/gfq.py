"""Dense linear algebra over GF(q) on int64 arrays.

Entries are kept reduced to 0..q-1.  Between two reductions mod q a kernel adds
at most n products of two residues, plus one residue, where n is the inner
dimension of its matrix products: the column count of A in matmul_mod, the size
of A in charpoly_mod, and 1 in rref_mod, nullspace_mod and poly_roots_mod.
That stays below 2**63 whenever n*(q-1)**2 < 2**63.  A larger modulus would
overflow int64 silently, so every kernel rejects it with DomainError.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def _check_modulus(q, n=1):
    """Reject a modulus for which n products of residues can overflow int64."""
    if max(n, 1) * (q - 1) ** 2 >= 2**63:
        raise DomainError(
            "modulus %d too large for int64 kernels of inner dimension %d" % (q, n)
        )


def rref_mod(A, q):
    """Reduced row echelon form mod q; returns (R, pivot column array)."""
    _check_modulus(q)
    R = np.array(A, dtype=np.int64) % q
    m, n = R.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.nonzero(R[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            R[[row, pr]] = R[[pr, row]]
        inv = pow(int(R[row, col]), q - 2, q)
        R[row] = (R[row] * inv) % q
        factors = R[:, col].copy()
        factors[row] = 0
        R -= np.outer(factors, R[row])
        R %= q
        pivots.append(col)
        row += 1
    return R, np.array(pivots, dtype=np.int64)


def nullspace_mod(A, q):
    """Rows form a basis of the right kernel {x : A x = 0} over GF(q)."""
    A = np.atleast_2d(np.array(A, dtype=np.int64))
    R, pivots = rref_mod(A, q)
    n = A.shape[1]
    pivset = set(int(p) for p in pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, int(pc)] = (-int(R[r, fc])) % q
    return basis


def matmul_mod(A, B, q):
    A = np.asarray(A, dtype=np.int64) % q
    _check_modulus(q, A.shape[-1])
    return (A @ (np.asarray(B, dtype=np.int64) % q)) % q


def _hessenberg(H, q):
    """Reduce H in place to upper Hessenberg form by similarity mod q."""
    n = H.shape[0]
    for col in range(n - 2):
        nz = np.nonzero(H[col + 1 :, col])[0]
        if nz.size == 0:
            continue
        pr = col + 1 + int(nz[0])
        if pr != col + 1:
            H[[col + 1, pr]] = H[[pr, col + 1]]
            H[:, [col + 1, pr]] = H[:, [pr, col + 1]]
        inv = pow(int(H[col + 1, col]), q - 2, q)
        f = (H[col + 2 :, col] * inv) % q
        H[col + 2 :] = (H[col + 2 :] - np.outer(f, H[col + 1])) % q
        H[:, col + 1] = (H[:, col + 1] + H[:, col + 2 :] @ f) % q
    return H


def charpoly_mod(A, q):
    """Characteristic polynomial mod q, ascending coefficients, monic."""
    A = np.array(A, dtype=np.int64) % q
    n = A.shape[0]
    _check_modulus(q, n)
    if n == 0:
        return np.array([1], dtype=np.int64)
    H = _hessenberg(A, q)
    # p_m(x), the characteristic polynomial of the leading m x m block of H, is
    # (x - H[m-1, m-1]) p_{m-1}(x) - sum_{i < m-1} H[i, m-1] t_i p_i(x), with
    # t_i = H[i+1, i] ... H[m-1, m-2]; the sum is one product of the t-scaled
    # column with the rows p_0, ..., p_{m-2} of P, inner dimension below n
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[0, 0] = 1
    t = np.zeros(n, dtype=np.int64)
    for m in range(1, n + 1):
        if m > 1:
            t[m - 2] = 1
            t[: m - 1] = t[: m - 1] * H[m - 1, m - 2] % q
        p = np.zeros(n + 1, dtype=np.int64)
        p[1:] = P[m - 1, :-1]
        p -= H[m - 1, m - 1] * P[m - 1] % q
        p -= (H[: m - 1, m - 1] * t[: m - 1] % q) @ P[: m - 1] % q
        P[m] = p % q
    return P[n]


def poly_roots_mod(coeffs, q):
    """Sorted distinct roots in GF(q) of the polynomial (ascending coeffs)."""
    _check_modulus(q)
    coeffs = np.asarray(coeffs, dtype=np.int64) % q
    xs = np.arange(q, dtype=np.int64)
    acc = np.zeros(q, dtype=np.int64)
    for c in coeffs[::-1]:
        acc = (acc * xs + int(c)) % q
    return [int(r) for r in xs[acc == 0]]
