"""Pin the builders' exact output.

``TestBuilderEquivalence`` compares the two builders with each other,
so a fault in the covered check they share would go unseen there.
These tests compare each build against recorded values instead: a
SHA-256 over the flattened label arrays and the five
:data:`~repro.core.construction.SearchCounts` tallies.  A change to
construction that keeps the labels byte-identical keeps every value.
"""

import hashlib
from array import array

import pytest

from repro.core.construction import build_labels_basic, build_labels_optimized
from repro.core.flatstore import ARRAY_FIELDS, FlatTILLStore
from repro.core.ordering import make_order
from repro.datasets import load_dataset
from repro.obs import Telemetry

from tests.conftest import random_graph

#: The SearchCounts tallies, in order, as build telemetry counters.
COUNTERS = (
    "build_label_entries_total",
    "build_covered_prunes_total",
    "build_stale_pops_total",
    "build_cap_skips_total",
    "build_expansions_total",
)


def _digest(labels) -> str:
    store = FlatTILLStore.from_labels(labels)
    sha = hashlib.sha256(b"directed" if store.directed else b"undirected")
    directions = (store.out, store.inn) if store.directed else (store.out,)
    for direction in directions:
        for name, _ in ARRAY_FIELDS:
            sha.update(array("q", getattr(direction, name)).tobytes())
    return sha.hexdigest()


def _build(graph, builder=build_labels_optimized, **kwargs):
    telemetry = Telemetry()
    labels = builder(graph, make_order(graph), telemetry=telemetry, **kwargs)
    counts = tuple(
        int(telemetry.metrics.get(name).value()) for name in COUNTERS
    )
    return _digest(labels), counts


def _random(seed, directed):
    return random_graph(seed, num_vertices=40, num_edges=220, max_time=30,
                        directed=directed)


#: (case id, graph factory, builder, builder kwargs, sha256, counts).
#: Recorded while the covered check still scanned unsorted groups
#: linearly, before groups were kept chronological on insert.
CASES = [
    ("chess", lambda: load_dataset("chess"), build_labels_optimized,
     {},
     "f4553dae2248e939e4a60654f1bbe0fb938f9d6e3fefe6669b0cdbde4fbaee9d",
     (24632, 22251, 10168, 0, 57051)),
    ("directed", lambda: _random(11, True), build_labels_optimized,
     {},
     "ed0317b5d0666e3e68862d73fada7b1ae5d11bb0fa9f8ef2b6ac272bc6fa5d1e",
     (1102, 715, 398, 0, 2215)),
    ("undirected", lambda: _random(12, False), build_labels_optimized,
     {},
     "997a2feef177f5adf8c96220539c58a938b76b36f55be9d6db7fe4ede26d5a8e",
     (918, 807, 666, 0, 2391)),
    ("vartheta", lambda: _random(13, True), build_labels_optimized,
     {"vartheta": 6},
     "34c238f361e31a33adf1fbc6cf36b04ae4ff8496f223af3658b883fe353e8a02",
     (741, 72, 19, 2123, 832)),
    ("no-subtree-pruning", lambda: _random(14, True),
     build_labels_optimized,
     {"prune_covered_subtrees": False},
     "96acf1ffb3182d8ca4a98f68784fd82a32b093f0f8a63841828139cafcfa27d2",
     (1310, 2557, 1276, 0, 5143)),
    ("undirected-vartheta-no-pruning", lambda: _random(15, False),
     build_labels_optimized,
     {"vartheta": 8, "prune_covered_subtrees": False},
     "2c0b45dad5b4bb0e71cf6d1c09e73ff323af0e7cee9bce71297e2b037405c472",
     (840, 2634, 757, 17311, 4231)),
    ("basic-directed", lambda: _random(16, True), build_labels_basic,
     {},
     "d53c25000b9ab132c7296c0a3f52cb6aac83af85f2830f97e7d620b13dad89cd",
     (1044, 1991, 717, 0, 4852)),
    ("basic-undirected-vartheta", lambda: _random(17, False),
     build_labels_basic,
     {"vartheta": 5},
     "c84b1d01a22f43173015bd0d1a29901b9e5ea11973aa980b4154b47f692c8dab",
     (791, 1229, 69, 13891, 2266)),
]


@pytest.mark.parametrize(
    "make_graph, builder, kwargs, sha, counts",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_build_matches_recorded_digest(
    make_graph, builder, kwargs, sha, counts
):
    got_sha, got_counts = _build(make_graph(), builder, **kwargs)
    assert got_counts == counts
    assert got_sha == sha
