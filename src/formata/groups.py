"""Permutation groups: stabilizer chains, subgroup machinery, quotients, series.

A normal subgroup of G is a class mask, a bitmask over G's conjugacy classes
closed under G's class support: the masks of the classes in each product
C_i*C_j, read off one gather of class products over G's elements
(``class_products``), which Dixon's split in ``characters`` counts its class
sums from too.  Normal closures, commutators, the derived series and
solvability, chief steps and minimal normal subgroups are closures on the
support, and the centre is the union of the classes of size one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .errors import (
    CapacityError,
    DomainError,
    InternalInconsistencyError,
    UnsupportedGroupError,
)
from .perms import Perm


def order_cap():
    """Largest group order the desk-scale algorithms will touch."""
    text = os.environ.get("FORMATA_MAX_ORDER", "5000")
    if not text.strip().isdecimal() or int(text) < 1:
        raise DomainError("FORMATA_MAX_ORDER must be a positive integer, got %r" % text)
    return int(text)


class StabilizerChain:
    """Deterministic stabilizer chain built by incremental Schreier-Sims.

    Level i stores a base point, the generators of the i-th stabilizer, and a
    transversal mapping each orbit point to a coset representative that carries
    the base point onto it.  Certifies the order without enumeration.
    """

    def __init__(self, degree):
        self.degree = degree
        self.base = []
        self.gens = []
        self.transversals = []

    def order(self):
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n


def build_chain(degree, generators):
    chain = StabilizerChain(degree)
    for g in generators:
        _chain_add(chain, g, 0)
    return chain


def _chain_add(chain, p, level):
    """Insert p, known to fix base[0..level-1], sifting it to its proper level."""
    for i in range(level, len(chain.base)):
        b = chain.base[i]
        img = p.images[b]
        t = chain.transversals[i]
        if img in t:
            p = p * t[img].inverse()
            if p.is_identity():
                return
        else:
            _chain_new_gen(chain, p, i)
            return
    if not p.is_identity():
        _chain_new_gen(chain, p, len(chain.base))


def _level_gens(chain, level):
    """Strong generators fixing base[0..level-1]: those stored at this level or deeper."""
    out = []
    for j in range(level, len(chain.gens)):
        out.extend(chain.gens[j])
    return out


def _chain_new_gen(chain, p, level):
    if level == len(chain.base):
        b = min(i for i in range(chain.degree) if p.images[i] != i)
        chain.base.append(b)
        chain.gens.append([])
        chain.transversals.append({b: Perm.identity(chain.degree)})
    chain.gens[level].append(p)
    # the new generator enlarges the effective generating set of every level
    # above it as well, so re-close from here back up to the top
    for i in range(level, -1, -1):
        _chain_close(chain, i)


def _chain_close(chain, level):
    """Rebuild the orbit at this level; sift every Schreier generator deeper."""
    b = chain.base[level]
    gens = _level_gens(chain, level)
    trans = {b: Perm.identity(chain.degree)}
    queue = [b]
    while queue:
        pt = queue.pop(0)
        rep = trans[pt]
        for g in gens:
            img = g.images[pt]
            if img not in trans:
                trans[img] = rep * g
                queue.append(img)
    chain.transversals[level] = trans
    for pt in sorted(trans):
        rep = trans[pt]
        for g in gens:
            sg = rep * g * trans[g.images[pt]].inverse()
            if not sg.is_identity():
                _chain_add(chain, sg, level + 1)


@dataclass(frozen=True)
class ConjClass:
    """Conjugacy class: representative is the lexicographically least element."""

    representative: Perm
    elements: tuple
    size: int

    @property
    def rep(self):
        return self.representative


class PermGroup:
    """Finite permutation group of fixed degree, immutable after construction.

    A group built from generators is a root.  Roots come only from user
    generators (``generate``, a group file, ``PermGroup(...)``) and from
    ``quotient`` by a nontrivial subgroup (G/1 is G); every subgroup formata
    builds inside a group, from products, meets, closures, preimages and
    images to projectors and series terms, goes through ``from_elements`` and
    is interned under its root ``_root``.  A root owns a memo, one dict
    shared with every subgroup interned under it; groups under different
    roots share nothing, and a memo lives as long as its root.

    The memo is the intern table: under a frozenset of elements it holds the
    one group object of the root with that element set, the root itself for
    all of its elements, so each subgroup has one identity and whatever is
    cached on it is shared by every route that reaches it.  The memo also
    caches the subgroup algebra: under a tuple ``(operation, *input groups,
    *parameters)`` it holds a result, keyed by the input objects, which
    interning makes unique per element set within a root.  A computation that
    raises stores nothing, so every check runs on the first computation.

    The group's own data stays in attributes, filled lazily and idempotently:
    ``_order``, ``_elements`` and ``_element_set``, the stabilizer chain
    ``_chain``, the conjugacy classes ``_classes`` with ``_class_index`` and
    the read-only int64 array of their sizes ``_class_sizes``, the
    element lookup by base images ``_element_keys`` (see ``_element_keys``),
    the class-product support ``_class_support`` (``class_support``), which
    every normal-subgroup question reads, the derived series (memoized) and
    the centre included, and the lattice filled by
    ``normal_subgroups`` only where a result lists it: ``_normals`` and the
    dict ``_normal_masks`` from each normal subgroup's class mask to the
    subgroup (in the order of ``_normals``, read through ``normal_masks``).
    Only a root given by generators builds a chain to certify its order; a
    quotient's order is its number of cosets.
    """

    def __init__(self, degree, generators=()):
        self.degree = degree
        gens = []
        seen = set()
        for g in generators:
            if g.degree != degree:
                raise DomainError("generator degree mismatch")
            if not g.is_identity() and g.images not in seen:
                seen.add(g.images)
                gens.append(g)
        self.generators = tuple(gens)
        self._memo = {}
        self._root = self
        self._chain = None
        self._order = None
        self._elements = None
        self._element_set = None
        self._classes = None
        self._class_index = None
        self._class_sizes = None
        self._normals = None
        self._normal_masks = None
        self._class_support = None
        self._element_keys = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_elements(cls, G, elements):
        """The group with this element set, interned in the memo of G's root.

        This is how every subgroup is built; it never makes a root.  The
        identity is added if missing.  The set of all of the root's elements
        gives the root itself, with its own generators; for any other set the
        generators are reduced greedily from the sorted elements, so they
        depend on the set alone.  A set that is not closed under products
        raises InternalInconsistencyError.
        """
        key = frozenset(elements)
        memo = G._memo
        got = memo.get(key)
        if got is not None:
            return got
        ident = Perm.identity(G.degree)
        if ident not in key:
            key = key | {ident}
            got = memo.get(key)
            if got is not None:
                return got
        root = G._root
        if len(key) == root.order() and key == root.element_set():
            memo[key] = root
            return root
        elts = sorted(key)
        H = cls(G.degree, _greedy_generators(G.degree, elts))
        H._memo = memo
        H._root = root
        H._elements = tuple(elts)
        H._element_set = key
        H._order = len(elts)
        memo[key] = H
        return H

    def memo(self, key, compute):
        """The result stored under key in the root's memo; compute() on a miss."""
        memo = self._memo
        got = memo.get(key)
        if got is None:
            got = memo[key] = compute()
        return got

    def identity(self):
        return Perm.identity(self.degree)

    # -- basic structure ------------------------------------------------------

    def chain(self):
        if self._chain is None:
            self._chain = build_chain(self.degree, self.generators)
        return self._chain

    def order(self):
        if self._order is None:
            self._order = self.chain().order()
        return self._order

    def contains(self, p):
        return p in self.element_set()

    def elements(self):
        """All elements, sorted; capped by FORMATA_MAX_ORDER."""
        if self._elements is None:
            n = self.order()
            if n > order_cap():
                raise CapacityError(f"group order {n} exceeds cap {order_cap()}")
            try:
                found = closure_elements(self.degree, self.generators, cap=n + 1)
            except CapacityError:
                found = ()
            if len(found) != n:
                raise InternalInconsistencyError("closure disagrees with chain order")
            self._elements = tuple(sorted(found))
            self._element_set = frozenset(found)
        return self._elements

    def element_set(self):
        if self._element_set is None:
            self.elements()
        return self._element_set

    def is_abelian(self):
        gens = self.generators
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1 :])

    def exponent(self):
        return math.lcm(*(c.representative.order() for c in self.conjugacy_classes()))

    def subgroup(self, gens):
        """The subgroup generated by gens, interned under this group's root."""
        for g in gens:
            if not self.contains(g):
                raise DomainError("subgroup generator outside the group")
        return PermGroup.from_elements(self, closure_elements(self.degree, gens))

    def is_subgroup_of(self, other):
        return self.degree == other.degree and all(
            other.contains(g) for g in self.generators
        )

    def same_group_as(self, other):
        return (
            self.degree == other.degree
            and self.order() == other.order()
            and self.is_subgroup_of(other)
        )

    def to_json(self):
        """Name (set on catalog groups), order, degree and generator cycles."""
        return {
            "name": getattr(self, "name", None),
            "order": self.order(),
            "degree": self.degree,
            "generators": self.generator_strings(),
        }

    def generator_strings(self):
        """The cycle strings of the generators, as a new list; built once in the memo."""
        gens = self.generators
        return list(self.memo(("generator_strings", self), lambda: tuple(g.cycle_string() for g in gens)))

    def sort_key(self):
        """Fixed total order on subgroups: order first, then element list."""
        return (self.order(), tuple(p.images for p in self.elements()))

    # -- conjugacy classes ----------------------------------------------------

    def conjugacy_classes(self):
        """Classes sorted by size then least element; the identity class is first."""
        if self._classes is None:
            elts = self.elements()
            gens = self.generators
            seen = set()
            classes = []
            for x in elts:
                if x in seen:
                    continue
                orbit = {x}
                queue = [x]
                while queue:
                    y = queue.pop()
                    for g in gens:
                        z = y.conj(g)
                        if z not in orbit:
                            orbit.add(z)
                            queue.append(z)
                seen |= orbit
                members = tuple(sorted(orbit))
                classes.append(ConjClass(members[0], members, len(members)))
            classes.sort(key=lambda c: (c.size, c.representative))
            self._classes = tuple(classes)
            index = {}
            for i, c in enumerate(classes):
                for m in c.elements:
                    index[m] = i
            self._class_index = index
        return self._classes

    def class_index(self):
        if self._class_index is None:
            self.conjugacy_classes()
        return self._class_index

    def class_sizes(self):
        """Sizes of the conjugacy classes in class order, as a read-only int64 array."""
        if self._class_sizes is None:
            sizes = np.array([c.size for c in self.conjugacy_classes()], dtype=np.int64)
            sizes.flags.writeable = False
            self._class_sizes = sizes
        return self._class_sizes

    def class_of(self, p):
        try:
            return self.class_index()[p]
        except KeyError:
            raise DomainError("element outside the group") from None

    # -- derived series and centre, as class masks ----------------------------

    def derived_subgroup(self):
        """G' = [G, G], a closure on a class support (commutator_mask); memoized.

        G' is characteristic in G, so when G is normal in its root R it is
        normal in R too, and the closure runs on R's class masks, with G's mask
        the normal closure in R of G's generators: G needs no class algebra of
        its own.
        """

        def compute():
            R = self._root
            if self is not R and is_normal_in(self, R):
                m = _closure_mask(R, (R.class_of(g) for g in self.generators))
                return mask_subgroup(R, commutator_mask(R, m, m))
            full = _full_mask(self)
            return mask_subgroup(self, commutator_mask(self, full, full))

        return self.memo(("derived", self), compute)

    def derived_series(self):
        """G, G', G'', ... down to the first perfect term; memoized.

        Each term is characteristic in G, so it is a class mask of G, and the
        next term is its commutator_mask with itself.
        """

        def compute():
            masks = [_full_mask(self)]
            while (m := commutator_mask(self, masks[-1], masks[-1])) != masks[-1]:
                masks.append(m)
            return tuple(mask_subgroup(self, m) for m in masks)

        return list(self.memo(("derived_series", self), compute))

    def is_solvable(self):
        return self.derived_series()[-1].order() == 1

    def center(self):
        """Z(G): the union of the classes of size one."""
        return mask_subgroup(self, sum(1 << i for i, c in enumerate(self.conjugacy_classes()) if c.size == 1))


def _greedy_generators(degree, elements):
    """Smallest-first generating sequence extracted from a sorted element list.

    Raises InternalInconsistencyError when the elements are not a group.
    """
    target = len(elements)
    gens = []
    span = {Perm.identity(degree)}
    for x in elements:
        if len(span) == target:
            break
        if x in span:
            continue
        gens.append(x)
        try:
            span = closure_elements(degree, gens, cap=target)
        except CapacityError:  # more products than elements: refused below
            break
    if len(span) != target or not span.issuperset(elements):
        raise InternalInconsistencyError("element set is not closed under products")
    return gens


def generate(degree, generator_words):
    """Build a group from cycle-notation generator words."""
    from .perms import parse_cycles

    gens = [parse_cycles(w, degree) for w in generator_words]
    return PermGroup(degree, gens)


def closure_elements(degree, gens, cap=None):
    """Element set generated by gens; raises CapacityError past the cap."""
    cap = order_cap() if cap is None else cap
    ident = Perm.identity(degree)
    found = {ident}
    queue = [ident]
    gens = [g for g in gens if not g.is_identity()]
    while queue:
        x = queue.pop()
        for g in gens:
            y = x * g
            if y not in found:
                if len(found) >= cap:
                    raise CapacityError(f"closure exceeds cap {cap}")
                found.add(y)
                queue.append(y)
    return found


def intersection(A, B):
    """Subgroup intersection via element sets (desk scale)."""
    if A.degree != B.degree:
        raise DomainError("degree mismatch")
    return A.memo(
        ("meet", A, B), lambda: PermGroup.from_elements(A, A.element_set() & B.element_set())
    )


def subgroup_product(A, B):
    """Product AB as a subgroup; requires the setwise product to be one."""
    if A.degree != B.degree:
        raise DomainError("degree mismatch")

    def compute():
        gens = list(A.generators) + list(B.generators)
        P = PermGroup.from_elements(A, closure_elements(A.degree, gens))
        expected = A.order() * B.order() // intersection(A, B).order()
        if P.order() != expected:
            raise DomainError("setwise product AB is not a subgroup")
        return P

    return A.memo(("product", A, B), compute)


def is_normal_in(N, G):
    """True when N <= G and N is closed under conjugation by G's generators."""
    return N.is_subgroup_of(G) and is_invariant_under(N, G)


def is_invariant_under(U, H):
    """True when conjugation by H's generators maps U into itself."""
    uset = U.element_set()
    return all(u.conj(h) in uset for u in U.generators for h in H.generators)


def normalizer(G, U):
    uset = U.element_set()
    ugens = U.generators
    members = [
        g for g in G.elements() if all(u.conj(g) in uset for u in ugens)
    ]
    return PermGroup.from_elements(G, members)


def is_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def prime_divisors(n):
    """The distinct primes dividing n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def sylow(G, p):
    """The first Sylow p-subgroup in deterministic order (normalizer ascent)."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    n = G.order()
    a = 0
    m = n
    while m % p == 0:
        m //= p
        a += 1
    target = p**a
    P = PermGroup.from_elements(G, [G.identity()])
    while P.order() < target:
        N = G if P.order() == 1 else normalizer(G, P)
        grown = False
        for x in N.elements():
            if x in P.element_set():
                continue
            o = x.order()
            if o != 1 and p ** _int_log(o, p) == o:
                members = closure_elements(G.degree, list(P.generators) + [x])
                P = PermGroup.from_elements(G, members)
                grown = True
                break
        if not grown:
            raise InternalInconsistencyError("sylow ascent stalled")
    return P


def _int_log(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k if n == 1 else -1


# -- element keys and the class support --------------------------------------


def _element_keys(G):
    """Lookup data for G's sorted elements by their images of a base; cached on G.

    Returns (steps, base_images, row_class, reps): the sorted lookup arrays of
    _element_rows, the (|G|, base length) int32 images of the base points by
    each element of G.elements(), the class index of each element, and the
    (classes, degree) int32 images of the class representatives.

    The base is grown over the points in ascending order, and a point is kept
    only when it splits elements that the earlier base points leave together.
    After each kept point p the key is dense-ranked: steps[j] is the sorted
    array of the distinct values key * degree + x(p), and the new key is a
    value's position in it.  So a key stays below |G|, and a step value below
    |G| * degree, the size of the element table itself: int64 cannot overflow
    for any group whose elements fit in memory.  Two elements are split at
    the first point where their images differ, so the final key orders the
    elements as their image tuples do, and it is the element's row in
    G.elements().
    """
    if G._element_keys is None:
        elts = G.elements()
        n, degree = len(elts), G.degree
        table = np.array([x.images for x in elts], dtype=np.int32).reshape(n, degree)
        key = np.zeros(n, dtype=np.int64)
        base, steps, distinct = [], [], 1
        for p in range(degree):
            if distinct == n:
                break
            value = key * degree + table[:, p]
            ordered = np.sort(value)
            values = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
            if len(values) > distinct:
                base.append(p)
                steps.append(values)
                key = np.searchsorted(values, value)
                distinct = len(values)
        classes = G.conjugacy_classes()
        index = G.class_index()
        G._element_keys = (
            tuple(steps),
            table[:, base],
            np.array([index[x] for x in elts], dtype=np.int32),
            np.array([c.rep.images for c in classes], dtype=np.int32).reshape(len(classes), degree),
        )
    return G._element_keys


def _element_rows(G, points):
    """Rows in G.elements() of the elements with these base images, an (..., base length) array."""
    key = np.zeros(points.shape[:-1], dtype=np.int64)
    for j, values in enumerate(_element_keys(G)[0]):
        value = key * G.degree + points[..., j]
        key = np.searchsorted(values, value)
        if not np.array_equal(values.take(key, mode="clip"), value):
            raise InternalInconsistencyError("base images of no element of the group")
    return key


def class_products(G):
    """(js, inverse): js[t, y] is the class of y * rep_t, and inverse[y] the class of y^-1.

    t runs over the classes and y over the rows of G.elements(), so js is a
    (k, |G|) array.  The structure constants of the class algebra are counts
    in it: A_i[j, t] = #{x in C_i : x^-1 * rep_t in C_j} is the number of y
    with inverse[y] = i and js[t, y] = j.  (y * z)(b) = z(y(b)), so the base
    images of all the products are one gather of the representatives' images
    at the base images of G's elements; _element_rows turns them into rows,
    and rows into classes.  Not cached: the class support and Dixon's split
    each read it once.
    """
    _, base_images, row_class, reps = _element_keys(G)
    inverse = np.array([G.class_of(c.rep.inverse()) for c in G.conjugacy_classes()], dtype=np.int64)
    return row_class[_element_rows(G, reps[:, base_images])], inverse[row_class]


def class_support(G):
    """The class product support of G, cached on G.

    Entry (i, j) is the mask of the classes in C_i*C_j: C_t lies in it iff
    A_i[j, t] > 0 (see class_products).  The triples (i, j, t) are read off
    class_products in one pass, as the distinct keys (i k + j) k + t, at
    most k |G| of them; no normal subgroup is built.  Every normal-subgroup
    question reads it.
    """
    if G._class_support is None:
        js, inverse = class_products(G)
        k = len(js)
        support = [[0] * k for _ in range(k)]
        for key in np.unique((inverse * k + js) * k + np.arange(k)[:, None]).tolist():
            pair, t = divmod(key, k)
            support[pair // k][pair % k] |= 1 << t
        G._class_support = support
    return G._class_support


# -- normal subgroups as class masks ------------------------------------------


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close_classes(support, mask, i):
    """Smallest product-closed class mask containing the closed mask and class i.

    C_a*C_b = C_b*C_a, because xy and yx are conjugate, so a class taken from
    the queue is multiplied only by the classes present then; a class that
    arrives later meets it when its own turn comes.
    """
    mask |= 1 << i
    todo = [i]
    while todo:
        row = support[todo.pop()]
        grown = 0
        for b in _bits(mask):
            grown |= row[b]
        new = grown & ~mask
        mask |= new
        todo.extend(_bits(new))
    return mask


def mask_subgroup(G, m):
    """The normal subgroup of G that is the union of the classes in mask m, interned under G's root."""
    classes = G.conjugacy_classes()
    return G.memo(
        ("mask", G, m),
        lambda: PermGroup.from_elements(G, [x for i in _bits(m) for x in classes[i].elements]),
    )


def normal_subgroups(G):
    """All normal subgroups, sorted by sort_key; cached on G.

    A normal subgroup is a union of conjugacy classes, held here as a bitmask
    over class indices that contains class 0 and is closed under
    class_support(G).  The lattice is searched breadth first from the trivial
    mask, adding one class and closing with bit operations; each subgroup
    found is then built once through mask_subgroup.

    The lattice can be exponentially large (C2^n has one normal subgroup per
    subspace of F_2^n), so it is enumerated only where a result lists normal
    subgroups: the supersolvable residual and ``verify thm-a`` without
    ``--normal``.  Every other normal-subgroup question, the kernel bound of
    Theorems B and C included, is a closure on the support.
    """
    if G._normals is None:
        support = class_support(G)
        found = {1}
        queue = [1]
        for base in queue:
            for i in range(len(support)):
                if not base >> i & 1:
                    mask = _close_classes(support, base, i)
                    if mask not in found:
                        found.add(mask)
                        queue.append(mask)
        lattice = sorted(((mask_subgroup(G, m), m) for m in found), key=lambda pair: pair[0].sort_key())
        G._normal_masks = {mask: N for N, mask in lattice}
        G._normals = tuple(N for N, _ in lattice)
    return G._normals


def normal_masks(G):
    """Dict from each normal subgroup's class mask to it, in normal_subgroups order; built on first use."""
    if G._normal_masks is None:
        normal_subgroups(G)
    return G._normal_masks


def _class_closures(G):
    """The class mask of the normal closure of each class, in class order; cached in G's memo."""
    support = class_support(G)
    return G.memo(("class_closures", G), lambda: tuple(_close_classes(support, 1, i) for i in range(len(support))))


def minimal_normal_subgroups(G):
    """Nontrivial normal subgroups containing no other nontrivial one, sorted by sort_key.

    A nontrivial normal subgroup contains the normal closure of each of its
    nontrivial classes, so the minimal ones are the inclusion-minimal
    closures of single classes.
    """

    def compute():
        closures = set(_class_closures(G)[1:])
        minimal = [m for m in closures if not any(o != m and o & m == o for o in closures)]
        return tuple(sorted((mask_subgroup(G, m) for m in minimal), key=PermGroup.sort_key))

    return list(G.memo(("minimal_normal", G), compute))


# -- the normal-subgroup algebra on class masks -------------------------------


def _full_mask(G):
    return (1 << len(G.conjugacy_classes())) - 1


def _mask_order(G, m):
    """Order of the normal subgroup with class mask m: the sum of its class sizes."""
    classes = G.conjugacy_classes()
    return sum(classes[i].size for i in _bits(m))


def _mask_key(G, m):
    """Order, then sorted class representatives: masks sort as PermGroup.sort_key sorts their subgroups.

    Normal subgroups of one order first differ at a class's least element, its representative.
    """
    classes = G.conjugacy_classes()
    return _mask_order(G, m), tuple(sorted(classes[i].rep.images for i in _bits(m)))


def _closure_mask(G, indices):
    """Class mask of the subgroup generated by the classes with these indices."""
    support, mask = class_support(G), 1
    for i in indices:
        if not mask >> i & 1:
            mask = _close_classes(support, mask, i)
    return mask


def commutator_mask(G, a, b):
    """Class mask of [A, B] for the normal subgroups of G with class masks a and b.

    With A = <X> and B = <Y> normal, [A, B] is normal in G and equals the
    normal closure of the commutators [x, y], x in X and y in Y: that closure
    lies in [A, B] and contains the normal closure in AB, which is [A, B].
    The normal closure is the class closure of the commutators' classes.
    """
    A, B = mask_subgroup(G, a), mask_subgroup(G, b)
    index = G.class_index()
    return _closure_mask(G, (index[x.commutator(y)] for x in A.generators for y in B.generators))


def lower_central_mask(G, m):
    """Class mask of the last term of the lower central series of the normal M with mask m.

    Each term [gamma_i(M), M] is again normal in G, so every term is a
    closure on G's class support; M is nilpotent iff its last term is trivial
    (mask 1).
    """

    def compute():
        term = m
        while True:
            nxt = commutator_mask(G, term, m)
            if nxt == term:
                return term
            term = nxt

    return G.memo(("lower_central", G, m), compute)


def _chief_step(G, lo, hi):
    """Class mask of the least normal subgroup of G, by _mask_key, strictly above lo inside hi; memoized.

    Every normal subgroup above lo contains the closure of lo with one of its
    classes, so the least is the least such closure.  The closure with class i
    is lo N_i, N_i the class's normal closure, of order |lo| |N_i| / |lo meet
    N_i|; only closures of least order are built, one per class they cover.
    """

    def compute():
        closures = _class_closures(G)
        size = _mask_order(G, lo)
        orders = {i: size * _mask_order(G, closures[i]) // _mask_order(G, closures[i] & lo) for i in _bits(hi & ~lo)}
        least = min(orders.values())
        support = class_support(G)
        tied, covered = [], lo
        for i, o in orders.items():
            if o == least and not covered >> i & 1:
                tied.append(_close_classes(support, lo, i))
                covered |= tied[-1]
        return tied[0] if len(tied) == 1 else min(tied, key=lambda m: _mask_key(G, m))

    return G.memo(("chief_step", G, lo, hi), compute)


def chief_series(G, through=()):
    """A chief series of G passing through the given chain of normal subgroups, one _chief_step at a time."""
    if not G.is_solvable():
        raise UnsupportedGroupError("chief series requires a solvable group")
    index = G.class_index()
    # an anchor's mask is its normal closure, which has the anchor's order iff it is normal
    anchors = {A: _closure_mask(G, (index[g] for g in A.generators)) if A.is_subgroup_of(G) else 0 for A in through}
    if any(_mask_order(G, m) != A.order() for A, m in anchors.items()):
        raise DomainError("chief series anchor is not normal")
    series = [1]
    for t in sorted(set(anchors.values()), key=lambda m: _mask_key(G, m)) + [_full_mask(G)]:
        if t & series[-1] != series[-1]:
            raise DomainError("chief series anchors do not form a chain")
        while series[-1] != t:
            series.append(_chief_step(G, series[-1], t))
    return [mask_subgroup(G, m) for m in series]


# -- quotients ----------------------------------------------------------------


class GroupMap:
    """Homomorphism onto a quotient, with kernel and a section.

    Coset i of the kernel goes to the i-th element of the target in sorted
    order, so the map is the coset index, and apply, lift, images and
    preimages are lookups.  For the identity map of G onto itself the cosets
    are G's elements; for the coset action, G/N is regular on the cosets and
    the i-th element is the one sending coset 0, the kernel, to coset i.
    """

    def __init__(self, source, target, coset_reps, coset_index, kernel):
        self.source = source
        self.target = target
        self._reps = coset_reps
        self._index = coset_index
        self._kernel = kernel
        self._by_coset = target.elements()
        self._coset_of = {q: i for i, q in enumerate(self._by_coset)}

    def kernel(self):
        return self._kernel

    def apply(self, x):
        coset = self._index.get(x)
        if coset is None:
            raise DomainError("element outside the map's source")
        return self._by_coset[coset]

    def lift(self, q):
        """A coset representative mapping onto q (a section, not a morphism)."""
        coset = self._coset_of.get(q)
        if coset is None:
            raise DomainError("element outside the map's target")
        return self._reps[coset]

    def image_of_subgroup(self, U):
        """The image of U <= source, interned under the target's root."""
        return PermGroup.from_elements(self.target, {self.apply(u) for u in U.elements()})

    def preimage_of_subgroup(self, V):
        """The preimage of V <= target, interned under the source's root.

        It is the union of the kernel's cosets that V reaches from the kernel.
        """
        if not V.is_subgroup_of(self.target):
            raise DomainError("subgroup outside the map's target")
        reached = {self._coset_of[v] for v in V.elements()}
        return PermGroup.from_elements(self.source, [g for g, i in self._index.items() if i in reached])


def quotient(G, N):
    """Quotient by a normal subgroup; returns (Q, map).

    G/1 is G itself with the identity map; any other G/N is the right-coset
    action.
    """

    def compute():
        if N.order() == 1 and N.is_subgroup_of(G):
            elts = G.elements()
            return G, GroupMap(G, G, elts, {g: i for i, g in enumerate(elts)}, N)
        return _coset_action(G, N)

    return G.memo(("quotient", G, N), compute)


def _coset_action(G, N):
    if not is_normal_in(N, G):
        raise DomainError("quotient requires a normal subgroup")
    reps, index = _right_cosets(G, N)
    qgens = [Perm(tuple(index[rep * g] for rep in reps)) for g in G.generators]
    # G/N is regular on the cosets: Q's order is their number, and the closure checks it
    Q = PermGroup(len(reps), qgens)
    Q._order = len(reps)
    Q.elements()
    gmap = GroupMap(G, Q, reps, index, N)
    for a, qa in zip(G.generators, qgens):
        for b, qb in zip(G.generators, qgens):
            if gmap.apply(a * b) != qa * qb:
                raise InternalInconsistencyError("coset action is not a morphism")
    return Q, gmap


def _right_cosets(G, U):
    """(reps, index) of the right cosets Ug, index taking each g to its coset's number.

    Each rep is its coset's least element, the reps are sorted, and U is coset 0.
    """
    uelts = U.elements()
    index, reps = {}, []
    for g in G.elements():
        if g not in index:
            index.update(dict.fromkeys([u * g for u in uelts], len(reps)))
            reps.append(g)
    return reps, index


# -- complements --------------------------------------------------------------


def complement(G, A):
    """A complement to the abelian normal subgroup A, or None (certified).

    Enumerates the lift tuples (one element from each generator coset) in
    order, which is exhaustive: a complement is generated by its unique lift
    tuple.  ``projector`` prints the least conjugate of what is found.
    """
    if not is_normal_in(A, G):
        raise DomainError("complement requires a normal subgroup")
    if not A.is_abelian():
        raise DomainError("complement target must be abelian")
    if A.order() == 1:
        return G
    index = G.order() // A.order()
    if index == 1:
        return PermGroup.from_elements(G, [G.identity()])
    aelts = sorted(A.element_set())
    cosets = [sorted(a * g for a in aelts) for g in _greedy_generators(G.degree, G.elements())]
    for lifts in iproduct(*cosets):
        members = closure_elements(G.degree, lifts, cap=G.order() + 1)
        if len(members) == index:
            C = PermGroup.from_elements(G, members)
            if intersection(C, A).order() != 1:
                raise InternalInconsistencyError("complement intersects kernel")
            return C
    return None


def least_conjugate(G, U):
    """The conjugate of U <= G with the least sort_key, interned under G's root; one g per coset N_G(U)g."""
    reps, _ = _right_cosets(G, normalizer(G, U))
    return PermGroup.from_elements(G, min(sorted(u.conj(g) for u in U.elements()) for g in reps))


# -- H-composition series -----------------------------------------------------


def h_composition_series(G, H, anchors=()):
    """H-invariant subnormal series refining the anchors, with H-simple factors.

    Each anchor gap (A, B) is refined by a chief series of B*H through A and B;
    the refinement is iterated to a fixpoint, after which every factor M/U is a
    chief factor of M*H, i.e. admits no proper nontrivial H-invariant subgroup
    normal in the upper term.
    """
    if not H.is_subgroup_of(G):
        raise DomainError("H must be a subgroup of G")
    chain = [PermGroup.from_elements(G, [G.identity()])]
    for A in sorted(anchors, key=lambda A: A.sort_key()):
        if not is_invariant_under(A, H):
            raise DomainError("anchor is not H-invariant")
        if A.element_set() not in (chain[-1].element_set(), G.element_set()):
            chain.append(A)
    chain.append(G)
    for lo, hi in zip(chain, chain[1:]):
        if not lo.is_subgroup_of(hi):
            raise DomainError("anchors do not form a chain")
        if not is_normal_in(lo, subgroup_product(hi, H)):
            raise DomainError("anchor is not normal in the next term times H")
    while True:
        new_chain = [chain[0]]
        changed = False
        for lo, hi in zip(chain, chain[1:]):
            if hi.order() > lo.order():
                M = subgroup_product(hi, H)
                cs = chief_series(M, through=[lo, hi])
                # cs passes through lo and hi, so these are the terms between them
                mids = [T for T in cs if lo.order() < T.order() < hi.order()]
                if mids:
                    changed = True
                new_chain.extend(mids)
            new_chain.append(hi)
        chain = new_chain
        if not changed:
            return chain


INTERMEDIATE_MAX_ORDER = 600


def intermediate_subgroups(G, H):
    """All subgroups U with H <= U <= G, grown one element at a time."""
    if not H.is_subgroup_of(G):
        raise DomainError("H must be a subgroup of G")
    if G.order() > INTERMEDIATE_MAX_ORDER:
        raise CapacityError(
            "intermediate subgroup sweep capped at order %d" % INTERMEDIATE_MAX_ORDER
        )
    start = PermGroup.from_elements(G, closure_elements(G.degree, H.generators))
    found = {start}
    queue = [start]
    while queue:
        U = queue.pop(0)
        for x in G.elements():
            if x in U.element_set():
                continue
            W = PermGroup.from_elements(G, closure_elements(G.degree, list(U.generators) + [x]))
            if W not in found:
                found.add(W)
                queue.append(W)
    return sorted(found, key=lambda U: U.sort_key())
