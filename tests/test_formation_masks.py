"""Membership of G/N and residuals on G's class-mask lattice, against quotient groups."""

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    oracle_commutator,
    oracle_fitting_subgroup,
    oracle_is_member,
    oracle_nilpotent_length,
    oracle_residual,
)
from _products import PAIRS, direct_product
from formata.catalog import catalog_group, load_catalog
from formata.formations import (
    Formation,
    fitting_subgroup,
    is_nilpotent,
    is_p_nilpotent,
    is_supersolvable,
    nilpotent_length,
    residual,
)
from formata.groups import (
    commutator_mask,
    generate,
    lower_central_mask,
    normal_subgroups,
    quotient,
)
from formata.headchars import theorem_54_report, theorem_b_report, theorem_c_report
from test_bench_contract import count_module_calls
from test_class_support import elementary_abelian_2

FORMATIONS = [
    Formation.parse(desc)
    for desc in (
        "nilpotent",
        "supersolvable",
        "p-groups:2",
        "p-groups:3",
        "pi-groups:2,3",
        "pi-groups:3,5",
        "p-nilpotent:2",
        "p-nilpotent:3",
        "p-nilpotent:5",
        "metanilpotent",
        "nilpotent-length:1",
        "nilpotent-length:2",
        "nilpotent-length:3",
    )
]


def assert_masks_match_quotients(G):
    normals = normal_subgroups(G)
    masks = G._normal_masks
    assert list(masks.values()) == list(normals)
    for n, N in masks.items():
        Q = quotient(G, N)[0]
        for F in FORMATIONS:
            assert F.contains_quotient(G, n) == oracle_is_member(F, Q), (F, N.order())
    for F in FORMATIONS:
        assert residual(G, F).element_set() == oracle_residual(G, F), F
        assert F.is_member(G) == oracle_is_member(F, G), F
    assert is_nilpotent(G) == oracle_is_member(Formation("nilpotent"), G)
    assert is_supersolvable(G) == oracle_is_member(Formation("supersolvable"), G)
    for p in (2, 3, 5):
        assert is_p_nilpotent(G, p) == oracle_is_member(Formation("p_nilpotent", (p,)), G)
    assert fitting_subgroup(G).element_set() == oracle_fitting_subgroup(G).element_set()
    assert nilpotent_length(G) == oracle_nilpotent_length(G)


def assert_commutators_match(G):
    normal_subgroups(G)
    masks = G._normal_masks
    full = max(masks)
    assert masks[commutator_mask(G, full, full)].element_set() == G.derived_subgroup().element_set()
    for a, A in masks.items():
        for b, B in masks.items():
            assert masks[commutator_mask(G, a, b)].element_set() == oracle_commutator(A, B)
        # the lower central series of A, one element-level commutator at a time
        term = A.element_set()
        while True:
            nxt = oracle_commutator(_group(G, term), A)
            if nxt == term:
                break
            term = nxt
        assert masks[lower_central_mask(G, a)].element_set() == term


def _group(G, elements):
    return next(N for N in normal_subgroups(G) if N.element_set() == elements)


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda entry: entry.name)
def test_masks_match_quotients_on_catalog(entry):
    G = generate(entry.degree, entry.words)
    assert_masks_match_quotients(G)
    assert_commutators_match(G)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(PAIRS))
def test_masks_match_quotients_on_products(pair):
    G = direct_product(*(catalog_group(n) for n in pair))
    assert_masks_match_quotients(G)
    assert_commutators_match(G)


def test_nonsolvable_quotients_fail_the_length_bound():
    # A5 x C2: the Fitting series of G/N stalls for every N below A5
    a5 = generate(5, ["(0 1 2 3 4)", "(0 1 2)"])
    G = direct_product(a5, generate(2, ["(0 1)"]))
    assert nilpotent_length(G) is None
    assert_masks_match_quotients(G)


@pytest.mark.parametrize("desc", ["nilpotent", "metanilpotent", "nilpotent-length:2", "p-nilpotent:2"])
def test_thm54_on_c2_5_enumerates_no_lattice(monkeypatch, desc):
    # C2^5 has 374 normal subgroups; chief series and residuals are closures
    G = elementary_abelian_2(5)
    calls = count_module_calls(monkeypatch, ("normal_subgroups",))
    assert theorem_54_report(G, Formation.parse(desc))["summary"]["all_pass"]
    assert calls["normal_subgroups"] == 0


def test_closure_kinds_on_c2_6_enumerate_no_lattice(monkeypatch):
    # C2^6 has 2 825 normal subgroups
    G = elementary_abelian_2(6)
    calls = count_module_calls(monkeypatch, ("normal_subgroups",))
    for desc, order in (
        ("nilpotent", 1),
        ("p-groups:3", 64),
        ("pi-groups:3,5", 64),
        ("p-nilpotent:2", 1),
        ("metanilpotent", 1),
        ("nilpotent-length:2", 1),
    ):
        F = Formation.parse(desc)
        assert residual(G, F).order() == order, desc
        assert F.is_member(G) == (order == 1), desc
    assert fitting_subgroup(G) is G
    assert nilpotent_length(G) == 1
    assert is_p_nilpotent(G, 2)
    assert is_supersolvable(G)  # a chief walk of closures
    # the kernel bound of Theorems B and C is a closure too: only N = 1 qualifies
    assert theorem_b_report(G, Formation("nilpotent"))["summary"] == {"all_pass": True, "M_order": 1}
    assert theorem_c_report(G, 2)["summary"] == {"all_pass": True, "K_order": 1}
    assert calls["normal_subgroups"] == 0
    # the one walk left: the supersolvable residual meets the masks of the lattice
    S4 = generate(4, ["(0 1)", "(0 1 2 3)"])
    assert residual(S4, Formation.parse("supersolvable")).order() == 4
    assert calls["normal_subgroups"] == 1


def test_closure_kinds_on_s4_s4_s3_enumerate_no_lattice(monkeypatch):
    # S4 x S4 x S3 (order 3456) has 61 normal subgroups
    G = direct_product(catalog_group("S4"), catalog_group("S4"), catalog_group("S3"))
    calls = count_module_calls(monkeypatch, ("normal_subgroups",))
    for desc, order in (
        ("nilpotent", 432),
        ("p-groups:2", 432),
        ("p-groups:3", 3456),
        ("pi-groups:2,3", 1),
        ("pi-groups:3,5", 3456),
        ("p-nilpotent:2", 16),
        ("p-nilpotent:3", 432),
        ("p-nilpotent:5", 1),
        ("metanilpotent", 16),
        ("nilpotent-length:1", 432),
        ("nilpotent-length:2", 16),
        ("nilpotent-length:3", 1),
    ):
        F = Formation.parse(desc)
        assert residual(G, F).order() == order, desc
        assert F.is_member(G) == (order == 1), desc
    assert fitting_subgroup(G).order() == 48
    assert nilpotent_length(G) == 3
    assert theorem_c_report(G, 2)["summary"] == {"all_pass": True, "K_order": 3}
    assert theorem_c_report(G, 3)["summary"] == {"all_pass": True, "K_order": 16}
    assert calls["normal_subgroups"] == 0
