"""Direct products of permutation groups, for test inputs beyond the catalog."""

from formata.groups import PermGroup
from formata.perms import Perm


def direct_product(*factors):
    """The direct product acting on the disjoint union of the factors' points."""
    degree = sum(F.degree for F in factors)
    gens = []
    offset = 0
    for F in factors:
        for g in F.generators:
            images = list(range(degree))
            for i, j in enumerate(g.images):
                images[offset + i] = offset + j
            gens.append(Perm(tuple(images)))
        offset += F.degree
    return PermGroup(degree, gens)
