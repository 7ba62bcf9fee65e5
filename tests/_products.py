"""Direct products of permutation groups, for test inputs beyond the catalog."""

from formata.catalog import load_catalog
from formata.groups import PermGroup
from formata.perms import Perm

# catalog groups of order <= 24, paired so the product has order <= 48: the
# closure oracles then take about a second per example at most
PAIRS = [
    (a.name, b.name)
    for a in load_catalog()
    for b in load_catalog()
    if a.order <= 24 and b.order <= 24 and a.order * b.order <= 48
]


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
