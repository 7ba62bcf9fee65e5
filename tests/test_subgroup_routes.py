"""One route per construction: closures, quotients, preimages and the lattice."""

import pytest

from _oracles import oracle_greedy_generators, oracle_preimage
from _products import PAIRS, direct_product
from formata import formations
from formata.catalog import catalog_group, load_catalog
from formata.errors import DomainError, InternalInconsistencyError
from formata.formations import Formation, projector
from formata.groups import (
    PermGroup,
    _greedy_generators,
    generate,
    normal_masks,
    normal_subgroups,
    quotient,
)
from formata.headchars import theorem_54_report
from test_bench_contract import count_module_calls

RECURSION_FORMATIONS = [
    Formation.parse(desc)
    for desc in ("nilpotent", "supersolvable", "metanilpotent", "p-nilpotent:2", "p-groups:2")
]


def projector_recursion(monkeypatch, G):
    """(groups, quotient maps) the projector recursion visits, returns and builds on G."""
    seen, maps = [], []
    rec, quo = formations._projector_rec, formations.quotient

    def recording_rec(X, F):
        out = rec(X, F)
        seen.extend((X, out))
        return out

    def recording_quotient(X, N):
        Q, gmap = quo(X, N)
        maps.append(gmap)
        return Q, gmap

    monkeypatch.setattr(formations, "_projector_rec", recording_rec)
    monkeypatch.setattr(formations, "quotient", recording_quotient)
    for F in RECURSION_FORMATIONS:
        projector(G, F)
    return seen, maps


def assert_routes_match_oracles(monkeypatch, G):
    seen, maps = projector_recursion(monkeypatch, G)
    assert maps or all(F.is_member(G) for F in RECURSION_FORMATIONS)
    for X in (*normal_subgroups(G), *seen):
        elts = X.elements()
        assert _greedy_generators(X.degree, elts) == oracle_greedy_generators(X.degree, elts)
    for gmap in maps:
        for V in normal_subgroups(gmap.target):
            U = gmap.preimage_of_subgroup(V)
            assert U.element_set() == oracle_preimage(gmap, V).element_set()
            assert PermGroup.from_elements(gmap.source, U.elements()) is U


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda entry: entry.name)
def test_routes_match_oracles_on_catalog(monkeypatch, entry):
    assert_routes_match_oracles(monkeypatch, generate(entry.degree, entry.words))


@pytest.mark.parametrize("pair", PAIRS, ids="x".join)
def test_routes_match_oracles_on_products(monkeypatch, pair):
    assert_routes_match_oracles(monkeypatch, direct_product(*(catalog_group(n) for n in pair)))


def test_greedy_generators_refuse_a_set_that_is_not_closed():
    elts = sorted(generate(4, ["(0 1)", "(0 1 2 3)"]).elements())
    # dropping the top element leaves a set whose closure outgrows it
    with pytest.raises(InternalInconsistencyError, match="not closed"):
        _greedy_generators(4, elts[:-1])
    with pytest.raises(InternalInconsistencyError, match="not closed"):
        PermGroup.from_elements(PermGroup(4), elts[:-1])


def test_quotients_build_no_stabilizer_chain(monkeypatch):
    G = direct_product(catalog_group("S4"), catalog_group("S3"))
    normals = normal_subgroups(G)  # G's own chain is built here
    calls = count_module_calls(monkeypatch, ("build_chain",))
    for N in normals:
        Q, _ = quotient(G, N)
        assert Q.order() * N.order() == G.order()
        assert len(Q.elements()) == Q.order()
    assert calls["build_chain"] == 0


def test_only_the_user_group_builds_a_chain(monkeypatch):
    # every subgroup is interned and every quotient takes its order from its
    # cosets, so thm54 certifies one order by Schreier-Sims: G's own
    G = direct_product(catalog_group("S4"), catalog_group("S3"))
    calls = count_module_calls(monkeypatch, ("build_chain",))
    assert theorem_54_report(G, Formation.parse("nilpotent"))["summary"]["all_pass"]
    assert calls["build_chain"] == 1


def test_preimage_refuses_a_subgroup_outside_the_target(s4, v4):
    _, gmap = quotient(s4, v4)
    with pytest.raises(DomainError):
        gmap.preimage_of_subgroup(generate(4, ["(0 1)"]))


def test_normal_masks_is_the_lattice_in_its_order(monkeypatch):
    calls = count_module_calls(monkeypatch, ("normal_subgroups",))
    G = generate(4, ["(0 1)", "(0 1 2 3)"])
    masks = normal_masks(G)
    assert calls["normal_subgroups"] == 1
    assert normal_masks(G) is masks and calls["normal_subgroups"] == 1
    assert tuple(masks.values()) == normal_subgroups(G)
    classes = G.conjugacy_classes()
    for mask, N in masks.items():
        members = {x for i, c in enumerate(classes) if mask >> i & 1 for x in c.elements}
        assert members == N.element_set()

