"""Saturated formations: membership, residuals and projectors.

A formation here is one of a fixed family of descriptors (nilpotent,
supersolvable, p-groups, pi-groups, p-nilpotent, metanilpotent, bounded
nilpotent length).  All of these are saturated, so projectors exist in every
finite solvable group and are computed by the usual minimal-normal-subgroup
recursion with a complement step at the bottom.

Membership of a quotient G/N, for N normal in G, is decided on class masks
of G and no quotient group is built: the normal subgroups M >= N of G stand
for the normal subgroups M/N of G/N.  Indices are sums of class sizes, and
lower central series are closures on G's class support
(``groups.class_support``), so p-groups, pi-groups and nilpotent membership
and the nilpotent residual, the last term of G's lower central series, never
enumerate the lattice of normal subgroups.  The other kinds walk that lattice
(``groups.normal_masks``): chief series, the Fitting series, and for the
residual the meet, a bitwise AND, of the masks whose quotients lie in the
formation.  A group itself is the case N = 1.
"""

from __future__ import annotations

from .errors import DomainError, InternalInconsistencyError, UnsupportedGroupError
from .groups import (
    INTERMEDIATE_MAX_ORDER,
    _bits,
    _full_mask,
    chief_masks,
    complement,
    intermediate_subgroups,
    intersection,
    is_normal_in,
    is_prime,
    lower_central_mask,
    mask_subgroup,
    minimal_normal_subgroups,
    normal_masks,
    prime_divisors,
    quotient,
    subgroup_product,
)

_KINDS = (
    "nilpotent",
    "supersolvable",
    "p_groups",
    "pi_groups",
    "p_nilpotent",
    "metanilpotent",
    "nilpotent_length",
)


def is_nilpotent(G):
    """The lower central series of G reaches 1."""
    return Formation("nilpotent").is_member(G)


def is_supersolvable(G):
    """Every chief factor has prime order."""
    return Formation("supersolvable").is_member(G)


def fitting_subgroup(G):
    """Largest nilpotent normal subgroup."""
    return normal_masks(G)[_fitting_mask(G, 1)]


def nilpotent_length(G):
    """Length of the Fitting series; None when it stalls (nonsolvable)."""
    return _fitting_length(G, 1)


def is_p_nilpotent(G, p):
    """Has a normal p-complement."""
    return Formation("p_nilpotent", (p,)).is_member(G)


# -- quotients G/N on G's lattice; N is given by its class mask n -------------


def _index(G, n):
    """|G:N|, with |N| the sum of its class sizes."""
    sizes = G.class_sizes()
    return G.order() // sum(int(sizes[i]) for i in _bits(n))


def _nilpotent_over(G, m, n):
    """Whether M/N is nilpotent, for normal N <= M of G: gamma_inf(M) <= N."""
    return lower_central_mask(G, m) & ~n == 0


def _fitting_mask(G, n):
    """Mask of the M >= N of G with M/N the Fitting subgroup of G/N.

    A product of normal nilpotent subgroups is nilpotent, so the largest M
    with M/N nilpotent contains every other; the lattice is sorted by order,
    so it is the first one met from the top.
    """
    return next(m for m in reversed(normal_masks(G)) if m & n == n and _nilpotent_over(G, m, n))


def _fitting_length(G, n):
    """Nilpotent length of G/N; None when the Fitting series stalls (G/N nonsolvable)."""
    full = _full_mask(G)
    length = 0
    while n != full:
        top = _fitting_mask(G, n)
        if top == n:
            return None
        n, length = top, length + 1
    return length


def _supersolvable_over(G, n):
    """Whether every chief factor of G between N and G has prime order.

    Chief factors are unique up to isomorphism (Jordan-Hoelder), so one
    chief series from N to G decides it.
    """
    series = chief_masks(G, n, _full_mask(G))
    masks = normal_masks(G)
    return all(is_prime(masks[b].order() // masks[a].order()) for a, b in zip(series, series[1:]))


def _p_nilpotent_over(G, n, p):
    """Whether G/N has a normal p-complement: a normal M >= N with |G:M| = |G:N|_p."""
    index = _index(G, n)
    pa = 1
    while index % (pa * p) == 0:
        pa *= p
    order = G.order()
    return any(m & n == n and order // M.order() == pa for m, M in normal_masks(G).items())


class Formation:
    """One of the supported saturated formation descriptors."""

    __slots__ = ("kind", "params")

    def __init__(self, kind, params=()):
        if kind not in _KINDS:
            raise DomainError("unknown formation kind %r" % kind)
        params = tuple(params)
        name = kind.replace("_", "-")  # the descriptor as the user writes it
        if kind in ("p_groups", "p_nilpotent"):
            if len(params) != 1 or not is_prime(params[0]):
                raise DomainError("%s needs a single prime parameter" % name)
        elif kind == "pi_groups":
            if not params or not all(is_prime(p) for p in params):
                raise DomainError("%s needs a nonempty set of primes" % name)
            params = tuple(sorted(set(params)))
        elif kind == "nilpotent_length":
            if len(params) != 1 or params[0] < 1:
                raise DomainError("%s needs a positive bound" % name)
        elif params:
            raise DomainError("%s takes no parameters" % name)
        self.kind = kind
        self.params = params

    @staticmethod
    def parse(text):
        """Parse descriptors like 'nilpotent', 'p-groups:2', 'pi-groups:2,3'."""
        text = text.strip().lower().replace("_", "-")
        name, _, arg = text.partition(":")
        kind = name.strip().replace("-", "_")
        if kind not in _KINDS:
            raise DomainError("unknown formation %r" % text)
        if not arg:
            return Formation(kind)
        try:
            params = tuple(int(tok) for tok in arg.split(",") if tok.strip())
        except ValueError:
            raise DomainError("bad formation parameters %r" % arg)
        return Formation(kind, params)

    def key(self):
        return (self.kind, self.params)

    def __eq__(self, other):
        return isinstance(other, Formation) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        name = self.kind.replace("_", "-")
        if self.params:
            return "%s:%s" % (name, ",".join(str(p) for p in self.params))
        return name

    def __repr__(self):
        return "Formation(%s)" % self

    @property
    def contains_nilpotent(self):
        """Whether every nilpotent group belongs to the formation."""
        return self.kind in ("nilpotent", "supersolvable", "p_nilpotent", "metanilpotent", "nilpotent_length")

    def is_member(self, G):
        return self.contains_quotient(G, 1)

    def contains_quotient(self, G, n):
        """Whether G/N lies in the formation, for the normal N of G with class mask n.

        Decided on G's class masks; no quotient group is built.
        """
        index = _index(G, n)
        if index == 1:
            return True
        if self.kind in ("p_groups", "pi_groups"):
            return set(prime_divisors(index)) <= set(self.params)
        if self.kind == "nilpotent":
            return _nilpotent_over(G, _full_mask(G), n)
        if self.kind == "supersolvable":
            return _supersolvable_over(G, n)
        if self.kind == "p_nilpotent":
            return _p_nilpotent_over(G, n, self.params[0])
        bound = 2 if self.kind == "metanilpotent" else self.params[0]
        length = _fitting_length(G, n)
        return length is not None and length <= bound


def residual(G, formation):
    """Smallest normal subgroup with quotient in the formation."""
    return G.memo(("residual", G, formation.key()), lambda: _residual(G, formation))


def _residual(G, formation):
    if formation.kind == "nilpotent":
        return mask_subgroup(G, lower_central_mask(G, _full_mask(G)))
    lattice = normal_masks(G)
    out = _full_mask(G)
    for m in lattice:
        # meeting with an overgroup of out cannot shrink it
        if out & m != out and formation.contains_quotient(G, m):
            out &= m
    if not formation.contains_quotient(G, out):
        raise InternalInconsistencyError("residual intersection left the formation")
    return lattice[out]


def require_solvable(G):
    """Refuse a nonsolvable G, as every projector computation does."""
    if not G.is_solvable():
        raise UnsupportedGroupError("projectors are computed for solvable groups only")


def projector(G, formation):
    """A formation projector, deterministic; requires a solvable group."""
    require_solvable(G)
    return G.memo(("projector", G, formation.key()), lambda: _projector_rec(G, formation))


def _projector_rec(G, formation):
    if formation.is_member(G):
        return G
    A = minimal_normal_subgroups(G)[0]
    Q, gmap = quotient(G, A)
    Ubar = _projector_rec(Q, formation)
    U = gmap.preimage_of_subgroup(Ubar)
    if U.order() < G.order():
        return _projector_rec(U, formation)
    # U = G: the residual is A itself, abelian minimal normal, so a
    # complement exists by saturation and every complement is a projector
    C = complement(G, A)
    if C is None:
        raise InternalInconsistencyError("missing complement to an abelian residual")
    return C


def navarro_condition(G, K, L, H):
    """K, L normal, K/L abelian, KH = G and K meet LH = L."""
    return G.memo(("navarro", G, K, L, H), lambda: _navarro(G, K, L, H))


def _navarro(G, K, L, H):
    if not (is_normal_in(K, G) and is_normal_in(L, G)):
        return False
    if not L.element_set() <= K.element_set():
        return False
    # K/L is abelian iff [K, K] <= L, iff K's generators commute modulo L
    lset = L.element_set()
    gens = K.generators
    if any(a.commutator(b) not in lset for i, a in enumerate(gens) for b in gens[i + 1 :]):
        return False
    if subgroup_product(K, H).order() != G.order():
        return False
    LH = subgroup_product(L, H)
    return intersection(K, LH).element_set() == L.element_set()


def verify_projector(G, H, formation):
    """Named checks of the defining projector properties; exact, no floats."""
    out = {}
    out["member"] = formation.is_member(H)
    out["covers_residual"] = subgroup_product(H, residual(G, formation)).order() == G.order()
    if G.order() <= INTERMEDIATE_MAX_ORDER:
        maximal = True
        for U in intermediate_subgroups(G, H):
            if U.order() > H.order() and formation.is_member(U):
                maximal = False
        out["f_maximal"] = maximal
    else:
        out["f_maximal"] = None
    checks = []
    for N in minimal_normal_subgroups(G):
        Q, gmap = quotient(G, N)
        HN = gmap.image_of_subgroup(H)
        PQ = projector(Q, formation)
        checks.append(HN.order() == PQ.order() and formation.is_member(HN) and subgroup_product(HN, residual(Q, formation)).order() == Q.order())
    out["quotient_projector"] = all(checks)
    return out
