"""Saturated formations: membership, residuals and projectors.

A formation here is one of a fixed family of descriptors (nilpotent,
supersolvable, p-groups, pi-groups, p-nilpotent, metanilpotent, bounded
nilpotent length).  All of these are saturated, so projectors exist in every
finite solvable group and are computed by the usual minimal-normal-subgroup
recursion with a complement step at the bottom.
"""

from __future__ import annotations

from .errors import DomainError, InternalInconsistencyError, UnsupportedGroupError
from .groups import (
    chief_series,
    complement,
    intermediate_subgroups,
    intersection,
    is_normal_in,
    is_prime,
    minimal_normal_subgroups,
    normal_subgroups,
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
    """All Sylow subgroups normal.

    With |G| = p^a * m, p not dividing m, the Sylow p-subgroup is normal iff
    exactly p^a elements have p-power order: a normal Sylow subgroup holds
    every p-element, and two Sylow subgroups together hold more than p^a.
    An element order o divides |G|, so it is a power of p iff it divides p^a.
    """
    n = G.order()
    orders = [x.order() for x in G.elements()]
    for p in prime_divisors(n):
        pa = p
        while n % (pa * p) == 0:
            pa *= p
        if sum(1 for o in orders if pa % o == 0) != pa:
            return False
    return True


def is_supersolvable(G):
    """Solvable with all chief factors of prime order."""
    if not G.is_solvable():
        return False
    series = chief_series(G)
    return all(is_prime(series[i + 1].order() // series[i].order()) for i in range(len(series) - 1))


def fitting_subgroup(G):
    """Largest nilpotent normal subgroup."""
    best = None
    for N in normal_subgroups(G):
        if is_nilpotent(N) and (best is None or N.order() > best.order()):
            best = N
    return best


def nilpotent_length(G):
    """Length of the Fitting series; None when it stalls (nonsolvable)."""
    length = 0
    cur = G
    while cur.order() > 1:
        F = fitting_subgroup(cur)
        if F.order() == 1:
            return None
        cur = quotient(cur, F)[0]
        length += 1
    return length


def is_p_nilpotent(G, p):
    """Has a normal p-complement."""
    m = G.order()
    while m % p == 0:
        m //= p
    return any(N.order() == m for N in normal_subgroups(G))


class Formation:
    """One of the supported saturated formation descriptors."""

    __slots__ = ("kind", "params")

    def __init__(self, kind, params=()):
        if kind not in _KINDS:
            raise DomainError("unknown formation kind %r" % kind)
        params = tuple(params)
        if kind in ("p_groups", "p_nilpotent"):
            if len(params) != 1 or not is_prime(params[0]):
                raise DomainError("%s needs a single prime parameter" % kind)
        elif kind == "pi_groups":
            if not params or not all(is_prime(p) for p in params):
                raise DomainError("pi_groups needs a nonempty set of primes")
            params = tuple(sorted(set(params)))
        elif kind == "nilpotent_length":
            if len(params) != 1 or params[0] < 1:
                raise DomainError("nilpotent_length needs a positive bound")
        elif params:
            raise DomainError("%s takes no parameters" % kind)
        self.kind = kind
        self.params = params

    @staticmethod
    def parse(text):
        """Parse descriptors like 'nilpotent', 'p-groups:2', 'pi-groups:2,3'."""
        text = text.strip().lower().replace("_", "-")
        name, _, arg = text.partition(":")
        name = name.strip()
        table = {
            "nilpotent": "nilpotent",
            "supersolvable": "supersolvable",
            "p-groups": "p_groups",
            "pi-groups": "pi_groups",
            "p-nilpotent": "p_nilpotent",
            "metanilpotent": "metanilpotent",
            "nilpotent-length": "nilpotent_length",
        }
        if name not in table:
            raise DomainError("unknown formation %r" % text)
        kind = table[name]
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
        if G.order() == 1:
            return True
        if self.kind == "nilpotent":
            return is_nilpotent(G)
        if self.kind == "supersolvable":
            return is_supersolvable(G)
        if self.kind == "p_groups":
            (p,) = self.params
            return set(prime_divisors(G.order())) <= {p}
        if self.kind == "pi_groups":
            return set(prime_divisors(G.order())) <= set(self.params)
        if self.kind == "p_nilpotent":
            return is_p_nilpotent(G, self.params[0])
        if self.kind == "metanilpotent":
            length = nilpotent_length(G)
            return length is not None and length <= 2
        length = nilpotent_length(G)
        return length is not None and length <= self.params[0]


def residual(G, formation):
    """Smallest normal subgroup with quotient in the formation."""
    return G.memo(("residual", G, formation.key()), lambda: _residual(G, formation))


def _residual(G, formation):
    out = None
    for N in sorted(normal_subgroups(G), key=lambda n: n.order()):
        if out is not None and out.element_set() <= N.element_set():
            continue  # intersecting with an overgroup cannot shrink the result
        if formation.is_member(quotient(G, N)[0]):
            out = N if out is None else intersection(out, N)
    if out is None:
        raise InternalInconsistencyError("no residual found; G/G should always qualify")
    if not formation.is_member(quotient(G, out)[0]):
        raise InternalInconsistencyError("residual intersection left the formation")
    return out


def projector(G, formation):
    """A formation projector, deterministic; requires a solvable group."""
    if not G.is_solvable():
        raise UnsupportedGroupError("projectors are computed for solvable groups only")
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
    KL = quotient(K, L)[0]
    if KL.derived_subgroup().order() != 1:
        return False
    if subgroup_product(K, H).order() != G.order():
        return False
    LH = subgroup_product(L, H)
    return intersection(K, LH).element_set() == L.element_set()


def verify_projector(G, H, formation, max_lattice=600):
    """Named checks of the defining projector properties; exact, no floats."""
    out = {}
    out["member"] = formation.is_member(H)
    out["covers_residual"] = subgroup_product(H, residual(G, formation)).order() == G.order()
    if G.order() <= max_lattice:
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
