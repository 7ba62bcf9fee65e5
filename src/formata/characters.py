"""Exact character tables of permutation groups via eigenspace splitting mod q.

The table is computed with Dixon's method: central characters are found as
joint eigenvectors of the class matrices over GF(q) for a prime q = 1 mod
exponent(G) with q^2 > 4|G|, then character values are lifted exactly to
cyclotomic integers through the power maps.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .cyclotomic import Cyclotomic
from .errors import InternalInconsistencyError
from .gfq import charpoly_mod, nullspace_mod, poly_roots_mod, rref_mod
from .groups import PermGroup, is_prime, prime_divisors


def _admissible_primes(e, order):
    q = e + 1
    while True:
        if q * q > 4 * order and is_prime(q):
            yield q
        q += e if e > 1 else 1


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
    """Tonelli-Shanks square root mod an odd prime; None if non-residue."""
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    s, t = 0, q - 1
    while t % 2 == 0:
        s += 1
        t //= 2
    z = next(x for x in range(2, q) if pow(x, (q - 1) // 2, q) == q - 1)
    c = pow(z, t, q)
    r = pow(a, (t + 1) // 2, q)
    u = pow(a, t, q)
    m = s
    while u != 1:
        d, i = u, 0
        while d != 1:
            d = d * d % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        r = r * b % q
        c = b * b % q
        u = u * c % q
        m = i
    return r


class ClassFunction:
    """A class function on a permutation group, one exact value per class."""

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        self.group = group
        self.values = tuple(v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v) for v in values)
        if len(self.values) != len(group.conjugacy_classes()):
            raise ValueError("one value per conjugacy class required")

    def degree(self):
        return self.values[0]

    def __call__(self, g):
        return self.values[self.group.class_of(g)]

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        if self.group is not other.group:
            a = [c.rep for c in self.group.conjugacy_classes()]
            b = [c.rep for c in other.group.conjugacy_classes()]
            if a != b:
                return False
        return self.values == other.values

    def __hash__(self):
        return hash(tuple(v.sort_key() for v in self.values))

    def __add__(self, other):
        if isinstance(other, ClassFunction):
            return ClassFunction(self.group, [a + b for a, b in zip(self.values, other.values)])
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ClassFunction):
            return ClassFunction(self.group, [a - b for a, b in zip(self.values, other.values)])
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            return ClassFunction(self.group, [a * b for a, b in zip(self.values, other.values)])
        if isinstance(other, (int, Fraction)):
            return ClassFunction(self.group, [v * other for v in self.values])
        return NotImplemented

    __rmul__ = __mul__

    def sort_key(self):
        return (self.values[0].sort_key(), tuple(v.sort_key() for v in self.values))

    def inner(self, other):
        """Standard inner product (1/|G|) sum |C| chi(g) psi(g)-bar."""
        classes = self.group.conjugacy_classes()
        acc = Cyclotomic.rational(0)
        for j, cls in enumerate(classes):
            acc = acc + self.values[j] * other.values[j].conjugate() * cls.size
        return acc / self.group.order()

    def is_irreducible(self, table=None):
        v = self.inner(self)
        return v.is_rational() and v.as_fraction() == 1

    def restrict(self, sub):
        """Restriction to a subgroup of the same ambient symmetric group."""
        vals = [self.values[self.group.class_of(c.rep)] for c in sub.conjugacy_classes()]
        return ClassFunction(sub, vals)

    def induce(self, big):
        """Induced class function on an overgroup containing this group."""
        sub = self.group
        classes = big.conjugacy_classes()
        acc = [Cyclotomic.rational(0)] * len(classes)
        for h in sub.elements():
            j = big.class_of(h)
            acc[j] = acc[j] + self.values[sub.class_of(h)]
        scale = Fraction(big.order(), sub.order())
        vals = [acc[j] * (scale / classes[j].size) for j in range(len(classes))]
        return ClassFunction(big, vals)

    def conjugate_by(self, t):
        """The class function x -> self(t x t^-1); t must normalize the group."""
        ti = t.inverse()
        vals = []
        for cls in self.group.conjugacy_classes():
            vals.append(self.values[self.group.class_of(cls.rep.conj(ti))])
        return ClassFunction(self.group, vals)

    def is_invariant_under(self, H):
        return all(self.conjugate_by(t) == self for t in H.generators)

    def kernel(self):
        """Subgroup of elements where the value equals the degree."""
        d = self.values[0]
        elems = []
        for j, cls in enumerate(self.group.conjugacy_classes()):
            if self.values[j] == d:
                elems.extend(cls.elements)
        return PermGroup.from_elements(self.group.degree, elems)

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


class CharacterTable:
    """Irreducible characters of a group, rows in canonical sorted order."""

    __slots__ = ("group", "irr", "prime")

    def __init__(self, group, irr, prime):
        self.group = group
        self.irr = tuple(irr)
        self.prime = prime

    def degrees(self):
        return [chi.values[0].as_int() for chi in self.irr]

    def linear_characters(self):
        return [chi for chi in self.irr if chi.values[0] == 1]

    def trivial(self):
        return self.irr[0]

    def verify(self):
        """First and second orthogonality plus degree sum; raises on failure."""
        G = self.group
        k = len(G.conjugacy_classes())
        if len(self.irr) != k:
            raise InternalInconsistencyError("character count != class count")
        if sum(d * d for d in self.degrees()) != G.order():
            raise InternalInconsistencyError("degree squares do not sum to |G|")
        for i, chi in enumerate(self.irr):
            for j in range(i, k):
                v = chi.inner(self.irr[j])
                want = 1 if i == j else 0
                if not (v.is_rational() and v.as_fraction() == want):
                    raise InternalInconsistencyError("row orthogonality fails at (%d, %d)" % (i, j))
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


def _class_matrix(G, i, index_of):
    """Matrix A with A[j][t] = #{x in C_i : x^-1 * rep_t in C_j}."""
    classes = G.conjugacy_classes()
    k = len(classes)
    A = np.zeros((k, k), dtype=np.int64)
    inv_elems = [x.inverse() for x in classes[i].elements]
    for t in range(k):
        z = classes[t].rep
        for xi in inv_elems:
            A[index_of[xi * z], t] += 1
    return A


def _split_spaces(G, q, index_of):
    classes = G.conjugacy_classes()
    k = len(classes)
    spaces = [(np.eye(k, dtype=np.int64), np.arange(k))]
    for i in range(1, k):
        if all(B.shape[0] == 1 for B, _ in spaces):
            break
        A = _class_matrix(G, i, index_of)
        nxt = []
        for B, piv in spaces:
            d = B.shape[0]
            if d == 1:
                nxt.append((B, piv))
                continue
            C = ((A @ B.T) % q)[piv, :]
            roots = poly_roots_mod(charpoly_mod(C, q), q)
            total = 0
            for lam in roots:
                N = nullspace_mod((C - lam * np.eye(d, dtype=np.int64)) % q, q)
                if N.shape[0] == 0:
                    continue
                W = (N @ B) % q
                R, p2 = rref_mod(W, q)
                nxt.append((R[: len(p2)], p2))
                total += len(p2)
            if total != d:
                raise InternalInconsistencyError("eigenspace dimensions do not add up")
        spaces = nxt
    if any(B.shape[0] != 1 for B, _ in spaces):
        raise InternalInconsistencyError("class matrices failed to split the space")
    return [B[0] for B, _ in spaces]


def _lift_character(G, c_mod, d, q, z, e, index_of, power_cache):
    """Exact cyclotomic values from mod-q values through power maps."""
    classes = G.conjugacy_classes()
    vals = []
    for j, cls in enumerate(classes):
        n = cls.rep.order()
        if n == 1:
            vals.append(Cyclotomic.rational(d))
            continue
        zn = pow(z, e // n, q)
        zn_inv = pow(zn, q - 2, q)
        n_inv = pow(n, q - 2, q)
        powers = power_cache[j]
        val = Cyclotomic.rational(0)
        for s in range(n):
            m = 0
            for t in range(n):
                m = (m + c_mod[powers[t]] * pow(zn_inv, s * t, q)) % q
            m = m * n_inv % q
            if m > d:
                raise InternalInconsistencyError("multiplicity lift out of range")
            if m:
                val = val + m * Cyclotomic.zeta(n, s)
        vals.append(val)
    return vals


def _dixon_once(G, q):
    classes = G.conjugacy_classes()
    k = len(classes)
    index_of = {}
    for j, cls in enumerate(classes):
        for x in cls.elements:
            index_of[x] = j
    e = G.exponent()
    z = _root_of_unity(e, q)
    inv_class = [index_of[cls.rep.inverse()] for cls in classes]
    power_cache = []
    for cls in classes:
        n = cls.rep.order()
        g = cls.rep
        pw = [0] * n
        cur = classes[0].rep
        for t in range(1, n):
            cur = cur * g
            pw[t] = index_of[cur]
        power_cache.append(pw)
    rows = []
    for u in _split_spaces(G, q, index_of):
        u = u % q
        if u[0] == 0:
            raise InternalInconsistencyError("central character vanishes at identity")
        u = (u * pow(int(u[0]), q - 2, q)) % q
        s = 0
        for j in range(k):
            s = (s + int(u[j]) * int(u[inv_class[j]]) * pow(classes[j].size, q - 2, q)) % q
        s = s % q
        if s == 0:
            raise InternalInconsistencyError("degree denominator vanished")
        d2 = G.order() * pow(s, q - 2, q) % q
        d = _sqrt_mod(d2, q)
        if d is None:
            raise InternalInconsistencyError("degree square has no root mod q")
        if d > q - d:
            d = q - d
        c_mod = [int(u[j]) * d % q * pow(classes[j].size, q - 2, q) % q for j in range(k)]
        vals = _lift_character(G, c_mod, d, q, z, e, index_of, power_cache)
        rows.append(ClassFunction(G, vals))
    rows.sort(key=lambda chi: chi.sort_key())
    table = CharacterTable(G, rows, q)
    table.verify()
    return table


def character_table(G):
    """Exact character table, cached on the group object."""
    cached = getattr(G, "_chartab", None)
    if cached is not None:
        return cached
    e = G.exponent()
    last = None
    for tries, q in enumerate(_admissible_primes(e, G.order())):
        if tries >= 8:
            break
        try:
            table = _dixon_once(G, q)
            G._chartab = table
            return table
        except InternalInconsistencyError as exc:
            last = exc
    raise InternalInconsistencyError("character table failed for all primes tried: %s" % last)


def trivial_character(G):
    return ClassFunction(G, [1] * len(G.conjugacy_classes()))


def linear_characters(G):
    return character_table(G).linear_characters()


def extensions_of(chi, big):
    """Irreducible characters of the overgroup restricting to chi exactly."""
    return [psi for psi in character_table(big).irr if psi.restrict(chi.group) == chi]


def inflate(chi, gmap):
    """Pull a character of the quotient back to the source group of gmap."""
    Q = gmap.target
    vals = []
    for cls in gmap.source.conjugacy_classes():
        vals.append(chi.values[Q.class_of(gmap.apply(cls.rep))])
    return ClassFunction(gmap.source, vals)


def deflate(chi, gmap):
    """Push a character with kernel containing ker(gmap) down to the quotient."""
    vals = []
    for cls in gmap.target.conjugacy_classes():
        vals.append(chi.values[gmap.source.class_of(gmap.lift(cls.rep))])
    return ClassFunction(gmap.target, vals)
