"""The quotient map as its coset index, against the product-built images it replaced."""

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import oracle_apply, oracle_image_of_subgroup
from _products import PAIRS, direct_product
from formata.catalog import catalog_group, load_catalog
from formata.errors import DomainError
from formata.groups import PermGroup, _coset_action, normal_subgroups, quotient
from formata.perms import Perm
from test_subgroup_memo import subgroups_of

CATALOG = [entry.name for entry in load_catalog()]


def assert_quotient_map_matches_oracles(G):
    subs = subgroups_of(G)
    for N in normal_subgroups(G):
        Q, gmap = quotient(G, N)
        if N.order() == 1:
            assert Q is G
            assert_identity_map(G, gmap, subs)
            # the regular representation stays the coset action's oracle route
            Q, gmap = _coset_action(G, N)
        assert_coset_map_matches_oracles(G, N, Q, gmap, subs)


def assert_identity_map(G, gmap, subs):
    assert gmap.source is gmap.target is G
    assert all(gmap.apply(x) == x and gmap.lift(x) == x for x in G.elements())
    for U in (*subs, *normal_subgroups(G)):
        assert gmap.image_of_subgroup(U) is U
        assert gmap.preimage_of_subgroup(U) is U


def assert_coset_map_matches_oracles(G, N, Q, gmap, subs):
    images = {x: oracle_apply(G, N, x) for x in G.elements()}
    assert all(gmap.apply(x) == q for x, q in images.items()), N.order()
    for q in Q.elements():
        # a section: the least element of the coset mapping onto q
        assert gmap.lift(q) == min(x for x, image in images.items() if image == q)
    for U in subs:
        image = gmap.image_of_subgroup(U)
        assert image.element_set() == oracle_image_of_subgroup(G, N, U)
        assert gmap.preimage_of_subgroup(image).element_set() == {
            x for x, q in images.items() if q in image.element_set()
        }
    for V in normal_subgroups(Q):
        assert gmap.preimage_of_subgroup(V).element_set() == {
            x for x, q in images.items() if q in V.element_set()
        }


@pytest.mark.parametrize("name", CATALOG)
def test_quotient_map_matches_oracles_on_catalog(name):
    assert_quotient_map_matches_oracles(catalog_group(name))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(PAIRS))
def test_quotient_map_matches_oracles_on_products(pair):
    assert_quotient_map_matches_oracles(direct_product(*(catalog_group(n) for n in pair)))


def test_apply_and_image_make_no_product(monkeypatch):
    G = catalog_group("2S4")
    N = normal_subgroups(G)[1]
    Q, gmap = quotient(G, N)
    subs = subgroups_of(G)
    # interning a new element set reads generators off it by closures; intern the images first
    expected = [PermGroup.from_elements(Q, oracle_image_of_subgroup(G, N, U)) for U in subs]
    calls = []
    mul = Perm.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Perm, "__mul__", counting_mul)
    images = [gmap.apply(x) for x in G.elements()]
    assert all(gmap.image_of_subgroup(U) is V for U, V in zip(subs, expected))
    assert not calls
    monkeypatch.undo()
    assert len(set(images)) == Q.order() == G.order() // N.order() > 1


def test_apply_and_lift_refuse_outside_elements(s4, v4):
    _, gmap = quotient(s4, v4)
    with pytest.raises(DomainError):
        gmap.apply(Perm((1, 0, 2, 3, 4)))
    with pytest.raises(DomainError):
        gmap.lift(Perm((1, 0, 2, 3)))
