"""Exact character tables of permutation groups via eigenspace splitting mod q.

The table is computed with Dixon's method over GF(q), for a prime q = 1 mod
exponent(G) with q^2 > 4|G|, restated as a few products over the whole table.
The central characters are the joint eigenvectors of the class matrices.  The
indicator of the identity class is a combination of all of them with nonzero
coefficients mod q, so projecting it onto the eigenspaces of a generic element
of the class algebra, and the projections onto those of the next, splits it
into one vector per central character (``_split_spaces``): each round is a
few Krylov products and one tensordot, with no nullspace or echelon form.
The degrees follow by array operations, and every row is lifted exactly to
cyclotomic integers through the power maps with one product per element
order (``_lift_character``).  No floating point anywhere.

A class function is held in one exact integer form: a conductor e, an integer
matrix with one row per class holding the value's coefficients in the power
basis 1, z, ..., z^(phi(e)-1) of Q(zeta_e) (reduced mod Phi_e, so canonical
for a fixed e), and a common denominator.  Inner products, products,
restriction, the Dixon lift and the order of the table's rows are products of
these matrices with the cached reduction, fold, embedding and descent
matrices of ``cyclotomic``, the same kernels ``Cyclotomic`` computes with;
``Cyclotomic`` values are the per-value view, built on first use.

Restriction and conjugation are row gathers by class maps built once and
kept in the memo of a root: the fusion map of a subgroup into a group under
the subgroup's root, the class permutation of a conjugating element under the
group's.  A class function keeps its embedding into each larger conductor.
``inner_products`` computes all inner products of two lists of class
functions on one group with one matrix product, of which
``ClassFunction.inner`` is the 1 x 1 case.  The decomposition matrix of a
pair (G, S), the multiplicity of each row of Irr(S) in each row of Irr(G)
restricted to S, is one gather of G's stacked rows by the fusion map and one
such product against S's rows (``_decomposition``); it is certified by
Frobenius reciprocity at the identity and kept in the memo of G's root, and
the head-character code reads Theorem A's constituents and the invariant
constituents of a Navarro triple from it.

A ``CharacterTable`` answers questions about its rows with one array
operation on their (n, k, phi(m)) stack over a multiple m of the rows'
conductor (the row kernels).  ``index`` finds a class function among the rows
by one dict lookup of its coefficient bytes, so ``is_irreducible`` of a
character on a group whose table is built needs no inner product;
``extensions`` gathers the stack by a subgroup's fusion map once and then
lists the rows restricting to a character of the subgroup by one lookup;
``invariant_rows`` compares the stack with its gather by the class
permutation of each generator of a normalizing group; ``twists`` multiplies
stacked rows by one class function in one product.  The head-character code
reads these instead of building and comparing one class function per row.

Integer kernels run in int64 only while an explicit bound on every entry and
partial sum, stated at each kernel, stays below 2^63; past it the same numpy
code runs on Python ints (object dtype).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm

import numpy as np

from .cyclotomic import (
    Cyclotomic,
    _embed,
    _fold,
    _height,
    _integer_rows,
    _minimal_forms,
    _multiply,
    _narrow,
    _reduce_powers,
    _reduction_height,
    _widen,
    phi,
)
from .errors import InternalInconsistencyError
from .gfq import _check_modulus, charpoly_mod, poly_roots_mod
from .groups import class_products, is_prime, mask_subgroup, prime_divisors


def _row_keys(rows):
    """Sort key of each class function in rows, which share one conductor.

    A row's key is (key at the identity class, keys at every class), where a
    value's key is its minimal form from ``cyclotomic._minimal_forms``: its
    minimal conductor n and its reduced coefficients over Q(zeta_n), the key
    ``Cyclotomic.sort_key`` gives.  The whole table is one matrix.
    """
    k = rows[0].coeffs.shape[0]
    X = np.concatenate([chi.coeffs for chi in rows])
    keys = _minimal_forms(rows[0].e, X, [chi.den for chi in rows for _ in range(k)])
    return [(keys[r], tuple(keys[r : r + k])) for r in range(0, len(keys), k)]


@lru_cache(maxsize=None)
def _trace_vector(e):
    """Tr(z^i) over Q for i < phi(e): the Ramanujan sums mu(e/g) phi(e)/phi(e/g), g = gcd(i, e).

    A read-only int64 array; every entry is at most phi(e) in absolute value.
    """
    out = []
    for i in range(phi(e)):
        r = e // gcd(i, e)
        ps = prime_divisors(r)
        squarefree = all((r // p) % p for p in ps)
        out.append((-1) ** len(ps) * phi(e) // phi(r) if squarefree else 0)
    t = np.array(out, dtype=np.int64)
    t.flags.writeable = False
    return t


@lru_cache(maxsize=4096)
def _cyclotomic(e, row, den):
    """The Cyclotomic with power-basis coefficients row/den over Q(zeta_e)."""
    if not any(row[1:]):
        return Cyclotomic.rational(Fraction(row[0], den))
    return Cyclotomic(e, [Fraction(c, den) for c in row])


def _admissible_prime(e, order):
    """The least prime q = 1 mod e with q^2 > 4 order."""
    q = e + 1
    while not (q * q > 4 * order and is_prime(q)):
        q += e if e > 1 else 1
    return q


def _root_of_unity(e, q):
    """Deterministic element of exact multiplicative order e in GF(q)."""
    if e == 1:
        return 1
    parts = prime_divisors(e)
    for a in range(2, q):
        z = pow(a, (q - 1) // e, q)
        if z != 1 and all(pow(z, e // p, q) != 1 for p in parts):
            return z
    raise InternalInconsistencyError("no element of order e in GF(q)")


def _sqrt_mod(a, q):
    """The least square root mod the prime q of a, or of each entry of the array a.

    The roots of a residue are r and q - r, so the least lies in 0..(q-1)/2,
    where x -> x^2 is one to one: one lookup table, from squares below
    (q - 1)^2 < 2^63.  A non-residue gives None, or -1 in an array.
    """
    half = np.arange((q + 1) // 2, dtype=np.int64)
    table = np.full(q, -1, dtype=np.int64)
    table[half * half % q] = half
    if np.ndim(a):
        return table[np.asarray(a) % q]
    root = int(table[a % q])
    return None if root < 0 else root


class ClassFunction:
    """A class function on a permutation group, one exact value per class.

    ``coeffs[j] / den`` are the power-basis coefficients over Q(zeta_e) of the
    value at class j; den > 0 is coprime to the content of ``coeffs`` (it is 1
    for characters), so the form is canonical for a fixed e.  ``values`` is the
    same data as a tuple of ``Cyclotomic``, built on first use.
    """

    __slots__ = ("group", "e", "coeffs", "den", "_values", "_coeff_height", "_embedded", "_irreducible")

    def __init__(self, group, values):
        vals = tuple(v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v) for v in values)
        if len(vals) != len(group.conjugacy_classes()):
            raise ValueError("one value per conjugacy class required")
        e = lcm(*(v.n for v in vals))
        X, den = _integer_rows(vals, e)
        self._set(group, e, X, den)
        self._values = vals

    @classmethod
    def _from_coeffs(cls, group, e, coeffs, den=1):
        self = object.__new__(cls)
        self._set(group, e, coeffs, den)
        return self

    def _set(self, group, e, coeffs, den):
        coeffs = _narrow(coeffs)
        if den != 1:
            g = gcd(den, *coeffs.ravel().tolist())
            if g > 1:
                coeffs, den = coeffs // g, den // g
        coeffs.flags.writeable = False
        self.group = group
        self.e = e
        self.coeffs = coeffs
        self.den = den
        self._values = None
        self._coeff_height = None
        self._embedded = None
        self._irreducible = None

    def height(self):
        """Bound on the entries of ``coeffs``: their largest, once, or for ``_rows`` the source's."""
        if self._coeff_height is None:
            self._coeff_height = _height(self.coeffs)
        return self._coeff_height

    def _value(self, j):
        if self._values is not None:
            return self._values[j]
        return _cyclotomic(self.e, tuple(self.coeffs[j].tolist()), self.den)

    @property
    def values(self):
        if self._values is None:
            e, den = self.e, self.den
            self._values = tuple(_cyclotomic(e, tuple(row), den) for row in self.coeffs.tolist())
        return self._values

    def degree(self):
        return self._value(0)

    def __call__(self, g):
        return self._value(self.group.class_of(g))

    def _over(self, m):
        """(coefficient matrix, its height) over Q(zeta_m), for a multiple m of the conductor, kept per m."""
        if m == self.e:
            return self.coeffs, self.height()
        if self._embedded is None:
            self._embedded = {}
        got = self._embedded.get(m)
        if got is None:
            X = _embed(self.coeffs, self.e, m)
            X.flags.writeable = False
            got = self._embedded[m] = (X, _height(X))
        return got

    def _rows(self, idx, group):
        """The class function on group whose class j has self's value at class idx[j]."""
        out = ClassFunction._from_coeffs(group, self.e, self.coeffs[idx], self.den)
        out._coeff_height = self.height()  # its rows are rows of self's
        return out

    def _common(self, other):
        """(conductor, self's matrix and height, other's matrix and height) over the lcm of the conductors."""
        m = lcm(self.e, other.e)
        return (m, *self._over(m), *other._over(m))

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        if self.group is not other.group:
            a = [c.rep for c in self.group.conjugacy_classes()]
            b = [c.rep for c in other.group.conjugacy_classes()]
            if a != b:
                return False
        if self.den != other.den:
            return False
        _, A, _, B, _ = self._common(other)
        return np.array_equal(A, B)

    def __hash__(self):
        # Tr(v) / phi(e) does not depend on the conductor v is written over; it is
        # hashed as a gcd-reduced (numerator, denominator) pair per class
        f, scale = phi(self.e), self.den * phi(self.e)
        # |partial sum| <= phi(e)^2 * height(coeffs)
        C, t = _widen(max(f * f * self.height(), scale), self.coeffs, _trace_vector(self.e))
        num = C @ t
        g = np.gcd(num, scale)
        return hash((tuple((num // g).tolist()), tuple((scale // g).tolist())))

    def _combine(self, other, sign):
        e, A, hA, B, hB = self._common(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        # |entry| <= height(A) * |a| + height(B) * |b|
        A, B = _widen(hA * a + hB * abs(b), A, B)
        return ClassFunction._from_coeffs(self.group, e, A * a + B * b, den)

    def __add__(self, other):
        if isinstance(other, ClassFunction):
            return self._combine(other, 1)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ClassFunction):
            return self._combine(other, -1)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            e, A, hA, B, hB = self._common(other)
            return ClassFunction._from_coeffs(self.group, e, _multiply(A, B, e, hA * hB), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            x = Fraction(other)
            (C,) = _widen(self.height() * abs(x.numerator), self.coeffs)
            return ClassFunction._from_coeffs(self.group, self.e, C * x.numerator, self.den * x.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inner(self, other):
        """Standard inner product (1/|G|) sum |C| chi(g) psi(g)-bar, exact: the 1 x 1 case of ``_gram``."""
        G = self.group
        e, A, hA, B, hB = self._common(other)
        r = _gram(G, e, A, hA, B, hB, 1, 1)[0, 0]
        return _cyclotomic(e, tuple(r.tolist()), G.order() * self.den * other.den)

    def is_irreducible(self):
        """Whether this character is irreducible, memoized on it.

        Once the group's table is built, that is whether the character is one
        of its rows (``CharacterTable.index``); before, whether <chi, chi> = 1.
        The two agree on every character, and no table is built to answer.  A
        class function that is not a character can have norm 1 without being
        a row (-chi, or half the sum of four rows); the answer is defined for
        characters.
        """
        if self._irreducible is None:
            table = _built_table(self.group)
            if table is not None:
                self._irreducible = table.index(self) is not None
            else:
                v = self.inner(self)
                self._irreducible = v.is_rational() and v.as_fraction() == 1
        return self._irreducible

    def restrict(self, sub):
        """Restriction to a subgroup of the same ambient symmetric group, by its fusion map.

        The fusion map, from sub's classes to this group's classes, is built
        once and kept in the memo of sub's root.
        """
        return self._rows(_fusion(self.group, sub), sub)

    def induce(self, big):
        """Induced class function on an overgroup containing this group."""
        sub = self.group
        classes = big.conjugacy_classes()
        # class sums over the elements of sub, then class j scaled by |big| / (|sub| |C_j|);
        # a cold path, so it runs on Python ints throughout
        acc = np.zeros((len(classes), self.coeffs.shape[1]), dtype=object)
        hs = sub.elements()
        rows = self.coeffs[[sub.class_of(h) for h in hs]].astype(object)
        np.add.at(acc, [big.class_of(h) for h in hs], rows)
        scale = [Fraction(big.order(), sub.order() * c.size) for c in classes]
        den = lcm(*(x.denominator for x in scale))
        mult = np.array([[x.numerator * (den // x.denominator)] for x in scale], dtype=object)
        return ClassFunction._from_coeffs(big, self.e, acc * mult, self.den * den)

    def conjugate_by(self, t):
        """The class function x -> self(t x t^-1); t must normalize the group.

        The class permutation of t does not depend on the class function; it
        is built once and kept in the memo of the group's root.
        """
        return self._rows(_class_conj(self.group, t), self.group)

    def is_invariant_under(self, H):
        """Whether conjugation by each generator of H, which must normalize the group, fixes this function.

        A row of the group's built table reads the table's invariant-row mask.
        """
        table = _built_table(self.group)
        i = None if table is None else table.index(self)
        if i is not None:
            return bool(table.invariant_rows(H)[i])
        return all(self.conjugate_by(t) == self for t in H.generators)

    def kernel_mask(self):
        """Class mask of the kernel: the classes whose value equals the degree, the value at class 0."""
        return sum(1 << int(j) for j in np.flatnonzero((self.coeffs == self.coeffs[0]).all(axis=1)))

    def kernel(self):
        """Subgroup of elements where the value equals the degree."""
        return mask_subgroup(self.group, self.kernel_mask())

    def constituents(self, table):
        """Pairs (index into table.irr, multiplicity > 0), exact."""
        out = []
        for i, chi in enumerate(table.irr):
            m = self.inner(chi)
            if not m.is_rational():
                raise InternalInconsistencyError("non-rational multiplicity")
            mf = m.as_fraction()
            if mf:
                if mf.denominator != 1 or mf < 0:
                    raise InternalInconsistencyError("bad multiplicity %s" % mf)
                out.append((i, mf.numerator))
        return out


def _class_map(indices):
    """A map between class lists, as a read-only index array."""
    idx = np.fromiter(indices, dtype=np.intp)
    idx.flags.writeable = False
    return idx


def _fusion(G, sub):
    """The class of G holding each class of the subgroup sub, built once in the memo of sub's root."""
    return sub.memo(
        ("fusion", sub, G), lambda: _class_map(G.class_of(c.rep) for c in sub.conjugacy_classes())
    )


def _class_conj(G, t):
    """The class of t x t^-1 for each class of x, t normalizing G, built once in the memo of G's root."""

    def compute():
        ti = t.inverse()
        return _class_map(G.class_of(cls.rep.conj(ti)) for cls in G.conjugacy_classes())

    return G.memo(("class_conj", G, t), compute)


def _key(X):
    """Exact key of an integer matrix among those of its shape: its int64 bytes, or its entries past int64."""
    X = _narrow(X)
    return tuple(X.ravel().tolist()) if X.dtype == object else X.tobytes()


def _built_table(G):
    """G's character table if it is already built, else None; never builds one."""
    return G._memo.get(("chartab", G))


def _gram(G, e, A, hA, B, hB, na, nb):
    """Coefficients of the inner products of na stacked class functions with nb, over Q(zeta_e).

    A is the (k, na * phi(e)) matrix of the first functions side by side, of
    height at most hA, and B likewise.  With s the class sizes, M = A^T
    diag(s) B holds at block (i, j) the coefficient of z^a * z^-b at (a, b);
    folding a - b mod e and reducing mod Phi_e is one product with the cached
    matrix _fold(e, -1).  Returns the (na, nb, phi(e)) integer array; entry
    (i, j) is |G| den_i den_j times the inner product of functions i and j.
    Every partial sum is at most phi(e)^2 * |G| * hA * hB * height(R_e) in
    absolute value.
    """
    f = phi(e)
    A, B, sizes = _widen(f * f * G.order() * hA * hB * _reduction_height(e), A, B, G.class_sizes())
    M = ((A * sizes[:, None]).T @ B).reshape(na, f, nb, f)
    return M.transpose(0, 2, 1, 3).reshape(na, nb, f * f) @ _fold(e, -1)


def inner_products(rows, cols):
    """All inner products of rows with cols, class functions on one group, in one product.

    Returns (e, P): P[i, j] holds the power-basis coefficients over
    Q(zeta_e), e the lcm of every conductor, of |G| den_i den_j times the
    inner product of rows[i] with cols[j]; it is zero exactly when that
    inner product is.
    """
    e = lcm(*(chi.e for chi in rows), *(psi.e for psi in cols))
    if not rows or not cols:
        return e, np.zeros((len(rows), len(cols), phi(e)), dtype=np.int64)
    A = [chi._over(e) for chi in rows]
    B = [psi._over(e) for psi in cols]
    return e, _gram(
        rows[0].group, e,
        np.concatenate([X for X, _ in A], axis=1), max(h for _, h in A),
        np.concatenate([X for X, _ in B], axis=1), max(h for _, h in B),
        len(rows), len(cols),
    )


def _side_by_side(S):
    """The (k, n * phi) matrix of an (n, k, phi) stack's rows side by side, as ``_gram`` takes them."""
    n, k, f = S.shape
    return S.transpose(1, 0, 2).reshape(k, n * f)


def _decomposition(G, S):
    """D[i, j] = <irr_G[i] restricted to S, irr_S[j]>, for a subgroup S of G; memoized per (G, S).

    One gather of G's table stack by the fusion map restricts every row, and
    one ``_gram`` against S's stack over the lcm m of the two conductors
    gives every inner product.  Each is a rational integer, so only the
    constant coefficient may be nonzero and it is a multiple of |S|; then
    ``_check_decomposition`` certifies the matrix.  A read-only int64 array,
    kept in the memo of G's root; both tables must be built or are built here.
    """

    def compute():
        big, sub = character_table(G), character_table(S)
        m = lcm(big.e, sub.e)
        A, hA, _ = big._over(m)
        B, hB, _ = sub._over(m)
        P = _gram(S, m, _side_by_side(A[:, _fusion(G, S)]), hA, _side_by_side(B), hB, len(A), len(B))
        if P[:, :, 1:].any() or (P[:, :, 0] % S.order()).any():
            raise InternalInconsistencyError("a restricted multiplicity is not an integer")
        D = np.asarray(P[:, :, 0] // S.order(), dtype=np.int64)
        _check_decomposition(D, A[:, 0, 0], B[:, 0, 0])  # class 0 is the identity: the degrees
        D.flags.writeable = False
        return D

    return G.memo(("decomposition", G, S), compute)


def _check_decomposition(D, degrees, sub_degrees):
    """Raise unless every entry of D is non-negative and sum_j D[i, j] psi_j(1) = chi_i(1) for every row i.

    That is Frobenius reciprocity at the identity: the restriction of chi_i
    to the subgroup has the degree of chi_i.  degrees holds the chi_i(1) and
    sub_degrees the psi_j(1).
    """
    if (D < 0).any():
        raise InternalInconsistencyError("a restricted multiplicity is negative")
    if not np.array_equal(D @ sub_degrees, degrees):
        raise InternalInconsistencyError("restricted multiplicities do not add up to the degrees")


class CharacterTable:
    """Irreducible characters of a group, rows in canonical sorted order.

    Rows are sorted by their values, class by class starting at the identity
    (so by degree first).  A value is ordered by its minimal conductor n, then
    by its coefficients over Q(zeta_n) as (numerator, denominator) pairs.

    The rows are characters (denominator 1) over the conductor e, the lcm of
    theirs (a Dixon table writes every row over exp(G)).  Questions about the
    rows are answered on their stack over Q(zeta_m), for a multiple m of e,
    by the row kernels ``index`` (with ``row_of``), ``extensions``,
    ``invariant_rows`` and ``twists``.
    """

    __slots__ = ("group", "irr", "prime", "e", "_stacks")

    def __init__(self, group, irr, prime):
        self.group = group
        self.irr = tuple(irr)
        self.prime = prime
        self.e = lcm(*(chi.e for chi in self.irr))
        self._stacks = {}

    def _over(self, m):
        """(S, height, lookup) for a multiple m of e, built once per m.

        S is the read-only (n, k, phi(m)) stack of the rows over Q(zeta_m),
        height its largest absolute entry, and lookup the dict from each row's
        ``_key`` over m to its index.
        """
        got = self._stacks.get(m)
        if got is None:
            if m == self.e:
                S = np.stack([chi._over(m)[0] for chi in self.irr])
            else:
                S = self._over(self.e)[0]
                S = _embed(S.reshape(-1, S.shape[2]), self.e, m).reshape(*S.shape[:2], -1)
            S.flags.writeable = False
            got = self._stacks[m] = (S, _height(S), {_key(X): i for i, X in enumerate(S)})
        return got

    def row_of(self, X, m):
        """The index of the row whose coefficient matrix over Q(zeta_m) is X, or None; m a multiple of e."""
        return self._over(m)[2].get(_key(X))

    def index(self, chi):
        """The index of the row equal to chi, a class function on the table's group, or None.

        One dict lookup of chi's coefficients over m = lcm(e, chi.e); a
        function with a denominator is never a row.
        """
        if chi.group is not self.group or chi.den != 1:
            return None
        m = lcm(self.e, chi.e)
        return self.row_of(chi._over(m)[0], m)

    def twists(self, rows, psi):
        """(m, P) for a class function psi on the table's group, m = lcm(e, psi.e).

        P[i] holds the coefficients over Q(zeta_m) of irr[rows[i]] * psi
        times psi.den: one ``_multiply`` of the stacked rows against psi.
        """
        m = lcm(self.e, psi.e)
        S, h, _ = self._over(m)
        A = S[list(rows)]
        B, hB = psi._over(m)
        n, k, f = A.shape
        return m, _narrow(_multiply(A.reshape(n * k, f), np.tile(B, (n, 1)), m, h * hB)).reshape(n, k, f)

    def extensions(self, chi):
        """The indices, in row order, of the rows whose restriction to chi's group is chi.

        For each subgroup and conductor m, one gather of the stack over m by
        the fusion map restricts every row, and the dict from each restricted
        row's key to the rows giving it is kept in the memo of the table's
        group; chi is then one lookup.
        """
        if chi.den != 1:
            return ()
        G, sub, m = self.group, chi.group, lcm(self.e, chi.e)

        def compute():
            out = {}
            for i, X in enumerate(self._over(m)[0][:, _fusion(G, sub)]):
                out.setdefault(_key(X), []).append(i)
            return {key: tuple(rows) for key, rows in out.items()}

        return G.memo(("restricted_rows", G, sub, m), compute).get(_key(chi._over(m)[0]), ())

    def invariant_rows(self, H):
        """Read-only bool mask of the rows fixed by conjugation by H, which must normalize the group.

        Conjugation by t permutes the classes (``_class_conj``), so the rows
        it fixes are those the gather by that permutation leaves unchanged: one
        compare of the stack per generator of H.  Memoized per H in the memo of
        the table's group.
        """
        G = self.group

        def compute():
            S = self._over(self.e)[0]
            mask = np.ones(len(self.irr), dtype=bool)
            for t in H.generators:
                mask &= (S[:, _class_conj(G, t)] == S).all(axis=(1, 2))
            mask.flags.writeable = False
            return mask

        return G.memo(("invariant_rows", G, H), compute)

    def degrees(self):
        return [chi.degree().as_int() for chi in self.irr]

    def linear_characters(self):
        return [chi for chi in self.irr if chi.degree() == 1]

    def trivial(self):
        return self.irr[0]

    def verify(self):
        """Rows are characters of positive integer degree, orthogonal in pairs, with the degree sum; raises on failure.

        The degree check rejects a table with a row negated, which passes
        orthogonality and the degree sum.
        """
        G = self.group
        k = len(G.conjugacy_classes())
        if len(self.irr) != k:
            raise InternalInconsistencyError("character count != class count")
        if any(chi.den != 1 or chi.coeffs[0, 1:].any() or chi.coeffs[0, 0] <= 0 for chi in self.irr):
            raise InternalInconsistencyError("a row's degree is not a positive integer")
        if sum(d * d for d in self.degrees()) != G.order():
            raise InternalInconsistencyError("degree squares do not sum to |G|")
        for i, chi in enumerate(self.irr):
            for j in range(i, k):
                v = chi.inner(self.irr[j])
                want = 1 if i == j else 0
                if not (v.is_rational() and v.as_fraction() == want):
                    raise InternalInconsistencyError("row orthogonality fails at (%d, %d)" % (i, j))
            chi._irreducible = True  # <chi, chi> = 1 was the first product of the row
        return True

    def to_json(self):
        G = self.group
        classes = G.conjugacy_classes()
        return {
            "group": G.to_json(),
            "order": G.order(),
            "exponent": G.exponent(),
            "classes": [
                {"rep_cycles": c.rep.cycle_string(), "size": c.size, "order": c.rep.order()}
                for c in classes
            ],
            "irreducibles": [
                {"degree": chi.degree().as_int(), "values": [v.to_json() for v in chi.values]}
                for chi in self.irr
            ],
        }


# rounds of _split_spaces that use a generic element of the class algebra
_GENERIC_ROUNDS = 3


def _split_spaces(G, q):
    """One vector mod q per central character of G, each a joint eigenvector of the class matrices.

    The central characters omega_chi are the joint eigenvectors of the class
    matrices A_i (groups.class_products), with eigenvalue omega_chi(C_i) on A_i.
    The indicator e_0 of the identity class is sum_chi (chi(1)^2/|G|) omega_chi,
    and every coefficient is nonzero mod q, because q does not divide |G| and
    q > 2 chi(1).  So the projection of e_0 onto an eigenspace of any element
    M of the class algebra holds every omega_chi of that eigenspace with a
    nonzero coefficient.  The split starts from the one seed e_0; each round
    picks M and replaces every seed by its nonzero projections onto M's
    eigenspaces.  With m(x) the product of x - lam over the r distinct roots of
    M's characteristic polynomial, P_lam u is proportional to
    sum_j y_lam[j] M^j u, y_lam the coefficients of m(x)/(x - lam): r Krylov
    products for all seeds and one tensordot, with no nullspace and no
    echelon form.  A seed u with M u proportional to u stays as it is.  The
    seeds are then sums over disjoint sets of central characters, so there
    are k of them exactly when each is proportional to one omega_chi.

    Every M is a class sum M = sum_i c_i A_i, counted from class_products:
    M[j, t] is the sum of c_i over the y with js[t, y] = j and y^-1 in C_i.
    Round r < _GENERIC_ROUNDS takes c_i = a^(i mod q) with a = g^(r + 1), g
    a primitive root mod q: a generic element, whose eigenvalues separate the
    central characters unless k > q or values collide; then A_1, A_2, ...
    finish the split in order (c a unit vector).  Plain powers a^i repeat
    with a period dividing q - 1, which can line up with the class order (on
    C2^6, q = 17, sum_i g^i A_i is 0 on 56 of the 64 central characters);
    i mod q has period q, which does not divide |G|.

    Returns the (k, k) array of the seeds as rows, in no particular order or
    scale.  Bounds on every entry and partial sum before a reduction mod q:
    the combination matrix |G| (q - 1), the Krylov products k (q - 1)^2, the
    tensordot r (q - 1)^2 with r <= k.
    """
    k = len(G.conjugacy_classes())
    _check_modulus(q, k)
    js, inverse = class_products(G)
    ts = np.broadcast_to(np.arange(k)[:, None], js.shape)
    g = _root_of_unity(q - 1, q)
    generic = (np.array([pow(g, (r + 1) * (i % q), q) for i in range(k)], dtype=np.int64) for r in range(_GENERIC_ROUNDS))
    seeds = np.zeros((k, 1), dtype=np.int64)
    seeds[0, 0] = 1
    for c in chain(generic, np.eye(k, dtype=np.int64)[1:]):
        if seeds.shape[1] >= k:
            break
        M = np.zeros((k, k), dtype=np.int64)
        np.add.at(M, (js, ts), c[inverse])
        seeds = _project(M % q, seeds, q)
    if seeds.shape[1] != k:
        raise InternalInconsistencyError("class matrices failed to split the space")
    return seeds.T


def _project(M, seeds, q):
    """The nonzero projections of the seeds (columns) onto the eigenspaces of M, as columns.

    M is diagonalizable over GF(q) with entries below q; see _split_spaces.
    """
    k, s = seeds.shape
    MU = M @ seeds % q
    cols = np.arange(s)
    lead = (seeds != 0).argmax(axis=0)
    scale = MU[lead, cols] * _inverses(seeds[lead, cols], q) % q
    still = (MU == scale * seeds % q).all(axis=0)
    if still.all():
        return seeds
    roots = np.array(poly_roots_mod(charpoly_mod(M, q), q), dtype=np.int64)
    r = len(roots)
    m = np.ones(1, dtype=np.int64)  # ascending coefficients of the product of x - lam
    for lam in roots.tolist():
        m = (np.concatenate(([0], m)) - lam * np.concatenate((m, [0]))) % q
    # row l of y: m(x) / (x - roots[l]) by synthetic division, all rows at once
    y = np.zeros((r, r), dtype=np.int64)
    y[:, r - 1] = 1
    for j in range(r - 1, 0, -1):
        y[:, j - 1] = (m[j] + roots * y[:, j]) % q
    krylov = [seeds[:, ~still], MU[:, ~still]][:r]
    while len(krylov) < r:
        krylov.append(M @ krylov[-1] % q)
    P = np.tensordot(y, np.stack(krylov), axes=(1, 0)) % q  # (r, k, active seeds)
    P = P.transpose(1, 0, 2).reshape(k, -1)
    return np.concatenate((seeds[:, still], P[:, P.any(axis=0)]), axis=1)


def _inverses(a, q):
    """Inverses mod the prime q of the nonzero residues a, as an int64 array."""
    return np.array([pow(int(x), q - 2, q) for x in a], dtype=np.int64)


@lru_cache(maxsize=1024)
def _dft(n, zn_inv, q):
    """Read-only (n, n) matrix W[t, s] = zn_inv^(st) / n mod q, every entry below q."""
    n_inv = pow(n, q - 2, q)
    powers = np.array([pow(zn_inv, r, q) * n_inv % q for r in range(n)], dtype=np.int64)
    st = np.arange(n)
    W = powers[np.outer(st, st) % n]
    W.flags.writeable = False
    return W


def _lift_character(G, c_mod, d, q, z, e, power_cache):
    """Exact values of every row from its values mod q, through the power maps.

    c_mod is the (rows, k) matrix of character values mod q and d the vector
    of the rows' degrees.  At a class of element order n (the length of its
    power map), the multiplicity m_s of the eigenvalue zeta_n^s is
    (1/n) sum_t chi(g^t) zeta_n^(-st) mod q.  The classes of one element order
    share one product with _dft(n, ...) for all rows; m_s is written into
    column s*e/n of a (rows, k, e) count array, and one product with the
    reduction matrix of Phi_e turns that into the (rows, k, phi(e))
    power-basis coefficients.
    """
    rows, k = c_mod.shape
    counts = np.zeros((rows, k, e), dtype=np.int64)
    by_order = {}
    for j, powers in enumerate(power_cache):
        by_order.setdefault(len(powers), []).append(j)
    for n, js in by_order.items():
        W = _dft(n, pow(pow(z, e // n, q), q - 2, q), q)
        # |partial sum| <= n (q - 1)^2
        W, c = _widen(n * (q - 1) ** 2, W, c_mod[:, np.array([power_cache[j] for j in js])])
        m = c @ W % q
        if (m > d[:, None, None]).any():
            raise InternalInconsistencyError("multiplicity lift out of range")
        counts[:, np.array(js)[:, None], np.arange(n) * (e // n)] = m
    return _reduce_powers(counts.reshape(rows * k, e), e, np.arange(e)).reshape(rows, k, -1)


def _dixon_once(G, q):
    classes = G.conjugacy_classes()
    index_of = G.class_index()
    e = G.exponent()
    z = _root_of_unity(e, q)
    size_inv = _inverses([c.size for c in classes], q)
    power_cache = []
    for cls in classes:
        g = cls.rep
        pw = [0]
        cur = g
        while not cur.is_identity():
            pw.append(index_of[cur])
            cur = cur * g
        power_cache.append(pw)
    inv_class = np.array([pw[-1] for pw in power_cache])  # the class of g^-1 = g^(n-1)
    # GF(q) arithmetic, one row per central character: every product of two
    # residues is below (q - 1)^2, and a sum of k residues below k q, < 2^63
    U = _split_spaces(G, q) % q
    if not U[:, 0].all():
        raise InternalInconsistencyError("central character vanishes at identity")
    U = U * _inverses(U[:, 0], q)[:, None] % q
    s = (U * U[:, inv_class] % q * size_inv % q).sum(axis=1) % q
    if not s.all():
        raise InternalInconsistencyError("degree denominator vanished")
    d = _sqrt_mod(G.order() % q * _inverses(s, q) % q, q)
    if (d < 0).any():
        raise InternalInconsistencyError("degree square has no root mod q")
    coeffs = _lift_character(G, U * d[:, None] % q * size_inv % q, d, q, z, e, power_cache)
    rows = [ClassFunction._from_coeffs(G, e, X) for X in coeffs]
    keys = _row_keys(rows)
    table = CharacterTable(G, [rows[i] for i in sorted(range(len(rows)), key=keys.__getitem__)], q)
    table.verify()
    return table


def character_table(G):
    """Exact character table, memoized on the group.

    The first admissible prime q always works: q = 1 mod the exponent, so q
    does not divide |G| and GF(q) splits the class algebra, and q^2 > 4|G| puts
    every degree, and so every multiplicity, below q/2.  A failed certificate
    is an error, not a reason to try another prime.
    """
    return G.memo(
        ("chartab", G), lambda: _dixon_once(G, _admissible_prime(G.exponent(), G.order()))
    )


def trivial_character(G):
    return ClassFunction._from_coeffs(G, 1, np.ones((len(G.conjugacy_classes()), 1), dtype=np.int64))


def linear_characters(G):
    return character_table(G).linear_characters()


def extensions_of(chi, big):
    """Irreducible characters of the overgroup restricting to chi exactly, in row order."""
    table = character_table(big)
    return [table.irr[i] for i in table.extensions(chi)]

def inflate(chi, gmap):
    """Pull a character of the quotient back to the source group of gmap."""
    Q = gmap.target
    idx = [Q.class_of(gmap.apply(cls.rep)) for cls in gmap.source.conjugacy_classes()]
    return chi._rows(idx, gmap.source)


def deflate(chi, gmap):
    """Push a character with kernel containing ker(gmap) down to the quotient."""
    idx = [gmap.source.class_of(gmap.lift(cls.rep)) for cls in gmap.target.conjugacy_classes()]
    return chi._rows(idx, gmap.target)
