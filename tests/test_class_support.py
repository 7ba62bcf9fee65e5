"""The class products by one base-image gather, the class support read off them, and the questions answered from closures on it.

Minimal normal subgroups are compared with the oracle lattice, in order, on
the catalog and on the Hypothesis products in test_groups.py.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import oracle_class_matrix
from _products import PAIRS, direct_product
from formata.catalog import catalog_group, load_catalog
from formata.characters import character_table
from formata.errors import InternalInconsistencyError
from formata.formations import Formation, projector, residual
from formata.groups import (
    PermGroup,
    _element_keys,
    _element_rows,
    class_products,
    class_support,
    generate,
    minimal_normal_subgroups,
)
from formata.headchars import fprime_ascending
from test_bench_contract import count_module_calls

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def elementary_abelian_2(n):
    """C2^n on 2n points."""
    return generate(2 * n, ["(%d %d)" % (i, i + 1) for i in range(0, 2 * n, 2)])


def benchmark_products(names=("tables", "ladder")):
    """The benchmark products of these workloads at seed 1; ``tables`` includes G75xC2 and 2S4xC3."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    catalog = {e.name: (e.degree, e.words) for e in load_catalog()}
    return [
        (label, generate(degree, words))
        for workload in names
        for label, (degree, words) in workloads.make_inputs(workload, 1, catalog).items()
    ]


def class_matrix(G, i, products=None):
    """A_i[j, t] = #{y : y^-1 in C_i, y * rep_t in C_j}, a bincount of class_products(G)."""
    js, inverse = class_products(G) if products is None else products
    k = len(js)
    return np.bincount((js[:, inverse == i] * k + np.arange(k)[:, None]).ravel(), minlength=k * k).reshape(k, k)


def assert_class_matrices_match_oracle(G):
    products = class_products(G)
    for i in range(len(G.conjugacy_classes())):
        assert np.array_equal(class_matrix(G, i, products), oracle_class_matrix(G, i)), i


def test_class_products_are_gathered_once_per_group():
    # the class support and Dixon's split read the same read-only int32 arrays
    G = generate(4, ["(0 1)", "(0 1 2 3)"])
    js, inverse = class_products(G)
    assert js.dtype == inverse.dtype == np.int32
    assert not js.flags.writeable and not inverse.flags.writeable
    class_support(G), character_table(G)
    assert class_products(G)[0] is js and class_products(G)[1] is inverse


@pytest.mark.parametrize("entry", load_catalog(), ids=lambda entry: entry.name)
def test_class_matrix_matches_oracle_on_catalog(entry):
    assert_class_matrices_match_oracle(generate(entry.degree, entry.words))


@pytest.mark.parametrize("G", [pytest.param(G, id=label) for label, G in benchmark_products()])
def test_class_matrix_matches_oracle_on_benchmark_products(G):
    assert_class_matrices_match_oracle(G)


def test_class_matrix_matches_oracle_on_c2_5():
    assert_class_matrices_match_oracle(elementary_abelian_2(5))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(PAIRS))
def test_class_matrix_matches_oracle_on_products(pair):
    assert_class_matrices_match_oracle(direct_product(*(catalog_group(n) for n in pair)))


def test_element_keys_are_element_rows():
    for label, G in benchmark_products():
        base_images = _element_keys(G)[1]
        rows = _element_rows(G, base_images)
        assert np.array_equal(rows, np.arange(G.order())), label


def test_element_rows_refuse_images_of_no_element():
    G = catalog_group("S3")
    bad = np.full((1, _element_keys(G)[1].shape[1]), 0, dtype=np.int32)
    with pytest.raises(InternalInconsistencyError):
        _element_rows(G, bad)


def test_class_support_is_cached_and_symmetric():
    G = catalog_group("2S4")
    support = class_support(G)
    assert class_support(G) is support
    k = len(support)
    assert all(support[i][j] == support[j][i] for i in range(k) for j in range(k))
    assert all(support[0][j] == 1 << j for j in range(k))


@pytest.mark.parametrize(
    "G",
    [
        pytest.param(catalog_group("2S4"), id="2S4"),
        pytest.param(elementary_abelian_2(5), id="C2^5"),
        # 75 classes: masks wider than 64 bits
        pytest.param(direct_product(*(catalog_group(n) for n in ("S4", "S4", "S3"))), id="S4xS4xS3"),
    ],
)
def test_class_support_is_the_nonzero_pattern_of_the_class_matrices(G):
    products, support = class_products(G), class_support(G)
    for i in range(len(support)):
        A = class_matrix(G, i, products)
        assert support[i] == [sum(1 << t for t in np.flatnonzero(row).tolist()) for row in A], i


@pytest.mark.parametrize("n", [6, 7])
def test_nilpotent_questions_on_c2_n_build_no_lattice(monkeypatch, n):
    # C2^6 has 2 825 normal subgroups, C2^7 tens of thousands
    G = elementary_abelian_2(n)
    F = Formation("nilpotent")
    calls = count_module_calls(monkeypatch, ("normal_subgroups",))
    assert F.is_member(G)
    assert residual(G, F).order() == 1
    assert projector(G, F) is G
    mins = minimal_normal_subgroups(G)
    assert len(fprime_ascending(G, F)) == G.order()
    assert calls["normal_subgroups"] == 0
    # the minimal normal subgroups of C2^n are its subgroups of order 2, in lattice order
    ident = G.identity()
    want = sorted(
        (PermGroup.from_elements(G, [ident, x]) for x in G.elements() if x != ident),
        key=PermGroup.sort_key,
    )
    assert mins == want
