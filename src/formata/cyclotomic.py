"""Exact arithmetic in cyclotomic fields Q(zeta_n), on integer matrices.

A value of Q(zeta_n) is written in the power basis 1, z, ..., z^(phi(n)-1),
reduced mod the n-th cyclotomic polynomial Phi_n, so its coefficients are
canonical for a fixed n.  This module is the one home of that arithmetic: its
cached integer matrices reduce powers of z, embed Q(zeta_n) in Q(zeta_m), fold
products and read values over subfields, for ``Cyclotomic`` (one value, stored
as phi(n) Fractions and written as an integer row over a common denominator
for each operation) and ``characters.ClassFunction`` (one row per class).  One
routine, ``_minimal_forms``, finds the minimal conductor that fixes display,
hash, JSON and sort order.  Rational values (n = 1) stay in pure Python.

Integer kernels run in int64 only while an explicit bound on every entry and
partial sum, stated at each kernel, stays below 2^63; past it the same numpy
code runs on Python ints (object dtype).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from numbers import Rational

import numpy as np

_INT64 = 1 << 63


@lru_cache(maxsize=None)
def divisors(n):
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Integer coefficients of Phi_n, ascending, monic."""
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, exact division over Z
    f = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        g = cyclotomic_poly(d)
        q = [0] * (len(f) - len(g) + 1)
        r = list(f)
        for i in range(len(q) - 1, -1, -1):
            c = r[i + len(g) - 1]
            q[i] = c
            if c:
                for j, gj in enumerate(g):
                    r[i + j] -= c * gj
        assert all(c == 0 for c in r[: len(g) - 1])
        f = q
    return tuple(f)


def _widen(bound, *arrays):
    """The arrays, moved to Python ints when bound (on every entry and partial sum) reaches 2^63."""
    if bound < _INT64:
        return arrays
    return tuple(a.astype(object) for a in arrays)


def _height(a):
    """Largest absolute entry, as a Python int."""
    return int(np.abs(a).max()) if a.size else 0


def _narrow(a):
    """int64 when every entry fits, so each matrix has one dtype for its values."""
    if a.dtype == object and _height(a) < _INT64:
        return a.astype(np.int64)
    return a


@lru_cache(maxsize=None)
def _power_reduction(e):
    """Integer matrix R of shape (e, phi(e)): row t holds x^t mod Phi_e."""
    g = cyclotomic_poly(e)
    deg = len(g) - 1
    rows = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(e):
        rows.append(cur)
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c - top * gj for c, gj in zip(cur, g)]
    R = _narrow(np.array(rows, dtype=object))
    R.flags.writeable = False
    return R


@lru_cache(maxsize=None)
def _reduction_height(e):
    return _height(_power_reduction(e))


@lru_cache(maxsize=None)
def _fold(e, sign):
    """Matrix of shape (phi^2, phi): row a*phi+b holds z^(a + sign*b) mod Phi_e."""
    R = _power_reduction(e)
    a = np.arange(R.shape[1])
    F = R[(a[:, None] + sign * a[None, :]) % e].reshape(-1, R.shape[1])
    F.flags.writeable = False
    return F


@lru_cache(maxsize=None)
def _embedding(n, m):
    """Matrix of shape (phi(n), phi(m)) taking Q(zeta_n) coefficients to Q(zeta_m); n | m."""
    E = _power_reduction(m)[np.arange(phi(n)) * (m // n)]
    E.flags.writeable = False
    return E


@lru_cache(maxsize=None)
def _descent(d, e):
    """(L, D) with _embedding(d, e) @ L == D * I: an exact left inverse L / D of the embedding.

    Gauss-Jordan elimination of [E | I] (E has full row rank) leaves a unit
    column of E at one pivot per row; the identity part's row r is row
    pivot_r of L / D, and the other rows of L are 0.  When every prime of e
    divides d the rows of E are unit vectors, so L is a plain column selection
    and D is 1.
    """
    f, g = phi(d), phi(e)
    E = _embedding(d, e).tolist()
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(f)] for i, row in enumerate(E)]
    pivots = []
    for r in range(f):
        c = next(c for c in range(g) if A[r][c])
        pivots.append(c)
        p = A[r][c]
        A[r] = [x / p for x in A[r]]
        for s in range(f):
            t = A[s][c]
            if s != r and t:
                A[s] = [x - t * y for x, y in zip(A[s], A[r])]
    D = lcm(*(x.denominator for row in A for x in row[g:]))
    L = np.zeros((g, f), dtype=object)
    L[pivots] = [[x.numerator * (D // x.denominator) for x in row[g:]] for row in A]
    L = _narrow(L)
    L.flags.writeable = False
    return L, D


def _minimal_forms(e, X, dens):
    """The minimal form of each value X[i] / dens[i] over Q(zeta_e): (n, ((num, den), ...)).

    n is the value's minimal conductor and the pairs are its gcd-reduced
    coefficients over Q(zeta_n); this is the key ``Cyclotomic.sort_key``
    gives.  For each divisor d of e in increasing order, the values not yet
    placed are read over Q(zeta_d) as y = x @ L / D through _descent(d, e), all
    at once; x lies in Q(zeta_d) exactly when y embeds back to x, and then d is
    its conductor.  For d = 1 that test says the coefficients past the first
    are 0.
    """
    top = max(dens)
    dens = np.array(dens, dtype=np.int64 if top < _INT64 else object)
    f, h = X.shape[1], _height(X)
    keys = [None] * len(X)
    todo = np.arange(len(X))
    for d in divisors(e):
        L, D = _descent(d, e)
        # |partial sum| <= phi(e) * height(X) * height(L) for x @ L, phi(d) *
        # height(R_e) times that for its embedding back, and D * height(X) for x * D
        bound = f * h * _height(L)
        Y, L, E = _widen(max(phi(d) * bound * _reduction_height(e), D * h), X[todo], L, _embedding(d, e))
        num = Y @ L
        inside = (num @ E == Y * D).all(axis=1)
        idx, num = todo[inside], num[inside]
        todo = todo[~inside]
        num, den = _widen(max(bound, top * D), num, dens[idx, None])
        den = den * D
        g = np.gcd(num, den)
        for i, a, b in zip(idx.tolist(), (num // g).tolist(), (den // g).tolist()):
            keys[i] = (d, tuple(zip(a, b)))
        if not todo.size:
            break
    return keys


def _reduce_powers(X, n, exponents):
    """Rows X of coefficients of z^t for t in exponents, as coefficient rows over Q(zeta_n).

    z^t is row t mod n of _power_reduction(n), since Phi_n divides x^n - 1;
    every partial sum is at most len(exponents) * height(X) * height(R_n).
    """
    X, R = _widen(len(exponents) * _height(X) * _reduction_height(n), X, _power_reduction(n)[exponents % n])
    return X @ R


def _embed(X, n, m):
    """Coefficient rows X over Q(zeta_n) written over Q(zeta_m), for a multiple m of n."""
    if n == m:
        return X
    # |partial sum| <= phi(n) * height(X) * height(R_m)
    X, E = _widen(phi(n) * _height(X) * _reduction_height(m), X, _embedding(n, m))
    return _narrow(X @ E)


def _multiply(A, B, e, height):
    """Row-wise products of coefficient rows A and B over Q(zeta_e).

    height bounds height(A) * height(B).  z^a * z^b is row a*phi+b of
    _fold(e, 1); every partial sum is at most phi(e)^2 * height * height(R_e)
    in absolute value.
    """
    k, f = A.shape
    A, B = _widen(f * f * height * _reduction_height(e), A, B)
    return (A[:, :, None] * B[:, None, :]).reshape(k, f * f) @ _fold(e, 1)


def _scale(lists):
    """(den, integer lists) with lists[i][j] == out[i][j] / den; den is the lcm of the denominators."""
    den = lcm(*(c.denominator for cs in lists for c in cs))
    return den, [[c.numerator * (den // c.denominator) for c in cs] for cs in lists]


def _integer_rows(values, m):
    """(X, den): row i of X / den holds the coefficients of values[i] over Q(zeta_m).

    Every conductor divides m; den is the lcm of the coefficients' denominators.
    """
    den, nums = _scale([v.coeffs for v in values])
    rows = [_embed(_narrow(np.array([x], dtype=object)), v.n, m) for v, x in zip(values, nums)]
    return np.concatenate(rows), den


def _from_row(n, row, den):
    """The Cyclotomic with coefficients row / den over Q(zeta_n); row has phi(n) integer entries."""
    return Cyclotomic(n, [Fraction(c, den) for c in row.tolist()])


class Cyclotomic:
    """An element of Q(zeta_n), immutable and exact."""

    __slots__ = ("n", "coeffs", "_reduced")

    def __init__(self, n, coeffs):
        if n < 1:
            raise ValueError("conductor must be positive")
        coeffs = list(coeffs)
        if not all(isinstance(c, Rational) for c in coeffs):
            raise TypeError("cyclotomic coefficients must be rational numbers")
        f = phi(n)
        coeffs = [Fraction(c) for c in coeffs] + [Fraction(0)] * (f - len(coeffs))
        if len(coeffs) > f:
            den, (x,) = _scale([coeffs])
            x = _reduce_powers(_narrow(np.array([x], dtype=object)), n, np.arange(len(x)))
            coeffs = [Fraction(c, den) for c in x[0].tolist()]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "_reduced", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def rational(x):
        return Cyclotomic(1, [x])

    @staticmethod
    def zeta(n, k=1):
        return Cyclotomic(n, [0] * (k % max(n, 1)) + [1])

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.rational(x)
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.n == other.n:
            return Cyclotomic(self.n, [x + y for x, y in zip(self.coeffs, other.coeffs)])
        m = lcm(self.n, other.n)
        X, den = _integer_rows((self, other), m)
        # |entry| <= 2 * height(X)
        (X,) = _widen(2 * _height(X), X)
        return _from_row(m, X[0] + X[1], den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.n == 1:
            k = other.coeffs[0]
            return Cyclotomic(self.n, [c * k for c in self.coeffs])
        if self.n == 1:
            k = self.coeffs[0]
            return Cyclotomic(other.n, [c * k for c in other.coeffs])
        m = lcm(self.n, other.n)
        X, den = _integer_rows((self, other), m)
        return _from_row(m, _multiply(X[:1], X[1:], m, _height(X) ** 2)[0], den * den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return Cyclotomic(self.n, [c / other for c in self.coeffs])
        if isinstance(other, Cyclotomic) and other.is_rational():
            return self / other.as_fraction()
        return NotImplemented

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers not supported")
        out = Cyclotomic.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- Galois action ----------------------------------------------------

    def galois(self, k):
        """Apply zeta_n -> zeta_n^k; k must be coprime to the conductor."""
        n = self.n
        if gcd(k, n) != 1:
            raise ValueError("galois exponent must be coprime to conductor")
        X, den = _integer_rows((self,), n)
        return _from_row(n, _reduce_powers(X, n, np.arange(X.shape[1]) * k)[0], den)

    def conjugate(self):
        if self.n == 1:
            return self
        return self.galois(self.n - 1)

    # -- predicates and minimal form --------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return self.reduced().n == 1

    def is_integer(self):
        r = self.reduced()
        return r.n == 1 and r.coeffs[0].denominator == 1

    def as_fraction(self):
        r = self.reduced()
        if r.n != 1:
            raise ValueError("not a rational cyclotomic")
        return r.coeffs[0]

    def as_int(self):
        f = self.as_fraction()
        if f.denominator != 1:
            raise ValueError("not an integer cyclotomic")
        return f.numerator

    def reduced(self):
        """Equal element written over its minimal conductor (cached)."""
        if self.n == 1:
            return self
        if self._reduced is None:
            X, den = _integer_rows((self,), self.n)
            ((d, pairs),) = _minimal_forms(self.n, X, [den])
            out = Cyclotomic(d, [Fraction(a, b) for a, b in pairs])
            object.__setattr__(out, "_reduced", out)
            object.__setattr__(self, "_reduced", out)
        return self._reduced

    # -- comparison, hashing, display -------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.n == other.n:
            return self.coeffs == other.coeffs
        X, _ = _integer_rows((self, other), lcm(self.n, other.n))
        return bool((X[0] == X[1]).all())

    def __hash__(self):
        r = self.reduced()
        if r.n == 1:
            return hash(r.coeffs[0])
        return hash((r.n, r.coeffs))

    def sort_key(self):
        r = self.reduced()
        return (r.n, tuple((c.numerator, c.denominator) for c in r.coeffs))

    def __str__(self):
        r = self.reduced()
        if r.n == 1:
            return str(r.coeffs[0])
        terms = []
        for i in range(len(r.coeffs) - 1, -1, -1):
            c = r.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                mono = str(abs(c))
            else:
                z = f"z{r.n}" if i == 1 else f"z{r.n}^{i}"
                mono = z if abs(c) == 1 else f"{abs(c)}*{z}"
            if not terms:
                terms.append(mono if c > 0 else f"-{mono}")
            else:
                terms.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(terms) if terms else "0"

    def __repr__(self):
        return f"Cyclotomic({self})"

    # -- serialization -----------------------------------------------------

    def to_json(self):
        r = self.reduced()
        return {"conductor": r.n, "coeffs": [str(c) for c in r.coeffs]}

    @staticmethod
    def from_json(obj):
        return Cyclotomic(obj["conductor"], [Fraction(s) if isinstance(s, str) else s for s in obj["coeffs"]])
