"""Saturated formations: membership, residuals and projectors.

A formation here is one of a fixed family of descriptors (nilpotent,
supersolvable, p-groups, pi-groups, p-nilpotent, metanilpotent, bounded
nilpotent length).  All of these are saturated, so projectors exist in every
finite solvable group; the usual minimal-normal-subgroup recursion, with a
complement step at the bottom, finds one, and its least conjugate is returned.

Residuals, membership and solvability (the derived series) are decided on
G's class masks, by closures on its class support (``groups.class_support``),
and no quotient group is built.
The residual of a product formation is a composition, (G^H)^F: nilpotent is
gamma_inf(G), bounded nilpotent length k is gamma_inf applied k times
(metanilpotent: k = 2), p-groups and pi-groups give O^pi(G), the closure of
the classes of pi'-elements, and p-nilpotent gives O^p'(O^p(G)).  G/N lies
in the formation iff the residual lies in N, one mask test.  Supersolvable
membership walks chief steps up from N, and its residual is the one result
here that enumerates the normal lattice (``groups.normal_masks``): the meet
of the masks whose quotients are supersolvable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InternalInconsistencyError, UnsupportedGroupError
from .groups import (
    INTERMEDIATE_MAX_ORDER,
    _bits,
    _chief_step,
    _class_closures,
    _closure_mask,
    _full_mask,
    _mask_order,
    complement,
    intermediate_subgroups,
    intersection,
    is_normal_in,
    is_prime,
    least_conjugate,
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
    """Largest nilpotent normal subgroup: the union of the classes whose normal closure is nilpotent."""
    return mask_subgroup(G, sum(1 << i for i, m in enumerate(_class_closures(G)) if lower_central_mask(G, m) == 1))


def nilpotent_length(G):
    """Fitting length: the steps of gamma_inf, iterated, down to 1; None when it stalls (nonsolvable)."""
    m, length = _full_mask(G), 0
    while m != 1:
        nxt = lower_central_mask(G, m)
        if nxt == m:
            return None
        m, length = nxt, length + 1
    return length


def is_p_nilpotent(G, p):
    """Has a normal p-complement."""
    return Formation("p_nilpotent", (p,)).is_member(G)


def _supersolvable_over(G, n):
    """Whether every chief factor of G above N has prime order; memoized per mask, one chief step per call."""

    def compute():
        step = _chief_step(G, n, _full_mask(G))
        return is_prime(_mask_order(G, step) // _mask_order(G, n)) and _supersolvable_over(G, step)

    return n == _full_mask(G) or G.memo(("supersolvable_over", G, n), compute)


@dataclass(frozen=True, slots=True)
class Formation:
    """One of the supported saturated formation descriptors; a value, and its own memo key."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        kind, params = self.kind, tuple(self.params)
        if kind not in _KINDS:
            raise DomainError("unknown formation kind %r" % kind)
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
        object.__setattr__(self, "params", params)

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

    def __str__(self):
        name = self.kind.replace("_", "-")
        if self.params:
            return "%s:%s" % (name, ",".join(str(p) for p in self.params))
        return name

    @property
    def contains_nilpotent(self):
        """Whether every nilpotent group belongs to the formation."""
        return self.kind in ("nilpotent", "supersolvable", "p_nilpotent", "metanilpotent", "nilpotent_length")

    def is_member(self, G):
        return self.contains_quotient(G, 1)

    def contains_quotient(self, G, n):
        """Whether G/N lies in the formation, for the normal N of G with class mask n.

        (G/N)^F = G^F N / N, so G/N lies in F iff G^F <= N; supersolvable
        walks the chief factors above N instead.  No quotient group is built.
        """
        if self.kind == "supersolvable":
            return _supersolvable_over(G, n)
        return _residual_mask(G, self) & ~n == 0


def residual(G, formation):
    """Smallest normal subgroup with quotient in the formation."""
    return mask_subgroup(G, _residual_mask(G, formation))


def _residual_mask(G, formation):
    """Class mask of the residual, cached in G's memo."""
    return G.memo(("residual", G, formation), lambda: _residual(G, formation))


def _residual(G, formation):
    kind, params, full = formation.kind, formation.params, _full_mask(G)

    def generated(m, keep):
        # the subgroup generated by the classes in m whose element order passes keep
        return _closure_mask(G, (i for i in _bits(m) if keep(G.conjugacy_classes()[i].rep.order())))

    if kind in ("p_groups", "pi_groups"):
        return generated(full, lambda o: all(o % p for p in params))
    if kind == "p_nilpotent":
        p = params[0]
        return generated(generated(full, lambda o: o % p), lambda o: set(prime_divisors(o)) <= {p})
    if kind == "supersolvable":
        out = full
        for m in normal_masks(G):
            # meeting with an overgroup of out cannot shrink it
            if out & m != out and _supersolvable_over(G, m):
                out &= m
        if not _supersolvable_over(G, out):
            raise InternalInconsistencyError("residual intersection left the formation")
        return out
    out = full
    for _ in range({"nilpotent": 1, "metanilpotent": 2}.get(kind) or params[0]):
        out = lower_central_mask(G, out)
    return out


def require_solvable(G):
    """Refuse a nonsolvable G, as every projector computation does."""
    if not G.is_solvable():
        raise UnsupportedGroupError("projectors are computed for solvable groups only")


def projector(G, formation):
    """The projector least of its conjugates by sort_key, so it depends on G and F alone; needs G solvable."""
    require_solvable(G)
    return G.memo(("projector", G, formation), lambda: least_conjugate(G, _projector_rec(G, formation)))


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
