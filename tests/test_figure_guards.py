"""Validity guards for the paper's evaluation workloads (Section VI).

``repro experiment fig4``/``fig9``/``ablation-ordering`` time algorithm
pairs against each other; a timing comparison only means something if
both sides give the same answers.  These guards check that on the
experiments' own datasets and seeded workloads:

* Fig. 4 — Online-Reach equals Span-Reach on the first 200 Section VI-A
  queries of the six-dataset ladder;
* Fig. 9 — ES-Reach equals ES-Reach* on the first 100 queries at each
  θ fraction, on the four representative datasets;
* ordering ablation — the paper's degree-product order (Section IV-A)
  yields no more label entries than random or identity on enron.

Each dataset is built once (the experiments' prepared-dataset cache,
cleared around this module); the default build is the degree-product
side of the ordering check.
"""

import pytest

from repro import TILLIndex
from repro.core.online import online_span_reachable
from repro.core.queries import (
    span_reachable,
    theta_reachable,
    theta_reachable_naive,
)
from repro.datasets import REPRESENTATIVE
from repro.experiments import harness
from repro.workloads import make_span_workload, make_theta_workload

#: Smallest dataset, the four representative ones, and the largest.
LADDER = ["chess", "email-eu", "enron", "dblp", "youtube", "flickr"]

THETA_FRACTIONS = (0.1, 0.5, 0.9)


@pytest.fixture(autouse=True, scope="module")
def _prepared_cache():
    harness.clear_prepared()
    yield
    harness.clear_prepared()


@pytest.mark.parametrize("dataset", LADDER)
def test_fig4_online_equals_span_reach(dataset):
    prepared = harness.prepare_dataset(dataset)
    graph, index = prepared.graph, prepared.index
    rank, store = index.order.rank, index.flat
    workload = make_span_workload(
        graph, num_pairs=100, intervals_per_pair=10, seed=0
    )
    for q in workload.queries[:200]:
        ui, vi = graph.index_of(q.u), graph.index_of(q.v)
        assert online_span_reachable(graph, ui, vi, q.interval) == \
            span_reachable(graph, store, rank, ui, vi, q.interval)


@pytest.mark.parametrize("dataset", REPRESENTATIVE)
def test_fig9_es_reach_equals_es_reach_star(dataset):
    prepared = harness.prepare_dataset(dataset)
    graph, index = prepared.graph, prepared.index
    rank, store = index.order.rank, index.flat
    for fraction in THETA_FRACTIONS:
        workload = make_theta_workload(
            graph, fraction, num_pairs=50, intervals_per_pair=5, seed=0
        )
        for q in workload.queries[:100]:
            ui, vi = graph.index_of(q.u), graph.index_of(q.v)
            assert theta_reachable(
                graph, store, rank, ui, vi, q.interval, q.theta
            ) == theta_reachable_naive(
                graph, store, rank, ui, vi, q.interval, q.theta
            )


def test_degree_product_order_is_smallest():
    prepared = harness.prepare_dataset("enron")
    assert prepared.index.ordering_name == "degree-product"
    sizes = {"degree-product": prepared.index.labels.total_entries()}
    for strategy in ("random", "identity"):
        sizes[strategy] = TILLIndex.build(
            prepared.graph, ordering=strategy
        ).labels.total_entries()
    assert sizes["degree-product"] <= sizes["random"]
    assert sizes["degree-product"] <= sizes["identity"]
