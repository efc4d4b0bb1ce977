"""Failure minimization: turn a fuzz hit into a tiny pytest repro.

A raw fuzz failure names a random graph with dozens of edges — too big
to reason about.  :func:`shrink_failure` minimizes it with greedy
delta debugging: repeatedly drop chunks of edges (then single edges,
then unused vertices) while the original mismatch keeps reproducing on
a freshly rebuilt index.  A mismatch found in a batch of query pairs
has its batch shrunk the same way first.  The result carries a
ready-to-paste pytest function that rebuilds the minimal graph and
asserts the failing check family is clean.

The reproduction predicate rebuilds the index from scratch each probe,
so only *real* algorithmic failures shrink; a mismatch caused by
mutating a live index (label corruption) will not survive the rebuild
and is reported as non-reproducible instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.fuzz.differential import Mismatch, replay
from repro.fuzz.profiles import FuzzCase, _rebuild

Edge = Tuple[object, object, int]
T = TypeVar("T")


@dataclass(frozen=True)
class ShrunkFailure:
    """A minimized failing (graph, query) pair plus its pytest repro."""

    edges: Tuple[Edge, ...]
    vertices: Tuple[object, ...]
    directed: bool
    vartheta: Optional[int]
    mismatch: Mismatch
    rounds: int

    @property
    def pytest_source(self) -> str:
        return emit_pytest(self)


def _build_predicate(
    mismatch: Mismatch, vartheta: Optional[int]
) -> Callable[..., bool]:
    """``True`` iff the mismatch (or the variant passed as *candidate*)
    reproduces on a candidate subgraph."""
    from repro.core.index import TILLIndex

    def still_fails(vertices, edges, directed, candidate=mismatch) -> bool:
        if not edges:
            return False
        try:
            graph = _rebuild(vertices, edges, directed)
            index = TILLIndex.build(graph, vartheta=vartheta)
            return replay(index, candidate)
        except Exception:
            # A candidate that fails *differently* (build error, missing
            # vertex, ...) is not a reproduction of this mismatch.
            return False

    return still_fails


def _required_vertices(mismatch: Mismatch) -> List[object]:
    required = [x for x in (mismatch.u, mismatch.v) if x is not None]
    for pair in mismatch.batch or ():
        required.extend(pair)
    return required


def _delta_debug(
    items: List[T], fails: Callable[[List[T]], bool], budget: int
) -> Tuple[List[T], int, int]:
    """Greedily drop chunks of *items* (halving the chunk down to single
    items) while ``fails`` holds for the rest; ``fails`` is not asked
    about an empty list.  Returns ``(items, rounds, probes)``."""
    probes = rounds = 0
    chunk = max(1, len(items) // 2)
    while chunk >= 1 and probes < budget:
        i = 0
        shrunk_this_pass = False
        while i < len(items) and probes < budget:
            candidate = items[:i] + items[i + chunk:]
            probes += 1
            if candidate and fails(candidate):
                items = candidate
                shrunk_this_pass = True
            else:
                i += chunk
        rounds += 1
        if chunk == 1 and not shrunk_this_pass:
            break
        chunk = max(1, chunk // 2) if chunk > 1 else (1 if shrunk_this_pass else 0)
    return items, rounds, probes


def shrink_failure(
    case: FuzzCase,
    mismatch: Mismatch,
    max_probes: int = 2000,
) -> Optional[ShrunkFailure]:
    """Minimize ``(case.graph, mismatch)``; ``None`` when the mismatch
    does not reproduce on a clean rebuild of the full graph (the
    failure lives in mutated index state, not in the algorithms)."""
    still_fails = _build_predicate(mismatch, case.vartheta)
    vertices: List[object] = list(case.graph.vertices())
    edges: List[Edge] = list(case.graph.edges())
    directed = case.graph.directed
    if not still_fails(vertices, edges, directed):
        return None

    probes = rounds = 0
    if mismatch.batch:
        # Shrink the batch on the full graph first: every later probe
        # then runs the smaller batch.
        def batch_fails(pairs: List[Tuple[object, object]]) -> bool:
            return still_fails(vertices, edges, directed,
                               replace(mismatch, batch=tuple(pairs)))

        batch, rounds, probes = _delta_debug(
            list(mismatch.batch), batch_fails, max_probes
        )
        mismatch = replace(mismatch, batch=tuple(batch))
        still_fails = _build_predicate(mismatch, case.vartheta)

    edges, edge_rounds, _ = _delta_debug(
        edges, lambda candidate: still_fails(vertices, candidate, directed),
        max_probes - probes,
    )
    rounds += edge_rounds

    # Drop vertices that neither carry an edge nor appear in the query.
    keep = set(_required_vertices(mismatch))
    for u, v, _t in edges:
        keep.add(u)
        keep.add(v)
    trimmed = [v for v in vertices if v in keep]
    if trimmed != vertices and still_fails(trimmed, edges, directed):
        vertices = trimmed

    return ShrunkFailure(
        edges=tuple(edges),
        vertices=tuple(vertices),
        directed=directed,
        vartheta=case.vartheta,
        mismatch=mismatch,
        rounds=rounds,
    )


def _replay_call(mismatch: Mismatch) -> Tuple[str, str]:
    """(import line, assertion call) re-running the failing check."""
    if mismatch.check == "invariant":
        return (
            "from repro.fuzz.invariants import label_invariant_violations",
            "assert label_invariant_violations(index) == []",
        )
    if mismatch.check.startswith("shard:"):
        num_shards, policy, stitch_limit = (
            mismatch.shard_config or (2, "equal-edges", 64)
        )
        return (
            "from repro.fuzz.differential import check_sharded_query",
            f"assert check_sharded_query(index, {mismatch.u!r}, "
            f"{mismatch.v!r}, {mismatch.window!r}, "
            f"theta={mismatch.theta!r}, num_shards={num_shards!r}, "
            f"policy={policy!r}, stitch_limit={stitch_limit!r}) == []",
        )
    if mismatch.check.startswith(("flat:", "flatio:")):
        batch = ("" if mismatch.batch is None
                 else f", batch={list(mismatch.batch)!r}")
        return (
            "from repro.fuzz.differential import check_flat_query",
            f"assert check_flat_query(index, {mismatch.u!r}, {mismatch.v!r}, "
            f"{mismatch.window!r}, theta={mismatch.theta!r}{batch}) == []",
        )
    if mismatch.check.startswith("span:"):
        return (
            "from repro.fuzz.differential import check_span_query",
            f"assert check_span_query(index, {mismatch.u!r}, {mismatch.v!r}, "
            f"{mismatch.window!r}) == []",
        )
    if mismatch.check.startswith("theta:"):
        return (
            "from repro.fuzz.differential import check_theta_query",
            f"assert check_theta_query(index, {mismatch.u!r}, {mismatch.v!r}, "
            f"{mismatch.window!r}, {mismatch.theta!r}) == []",
        )
    return (
        "from repro.fuzz.differential import check_pair_windows",
        f"assert check_pair_windows(index, {mismatch.u!r}, {mismatch.v!r}) "
        "== []",
    )


def emit_pytest(shrunk: ShrunkFailure) -> str:
    """A self-contained pytest function reproducing the failure."""
    import_line, assertion = _replay_call(shrunk.mismatch)
    edge_lines = "\n".join(
        f"        {edge!r}," for edge in shrunk.edges
    )
    slug = shrunk.mismatch.check.replace(":", "_").replace("-", "_")
    return f'''\
from repro import TemporalGraph, TILLIndex
{import_line}


def test_fuzz_regression_{slug}():
    """Shrunk fuzz repro: {shrunk.mismatch}"""
    graph = TemporalGraph(directed={shrunk.directed!r})
    for vertex in {list(shrunk.vertices)!r}:
        graph.add_vertex(vertex)
    for u, v, t in [
{edge_lines}
    ]:
        graph.add_edge(u, v, t)
    graph.freeze()
    index = TILLIndex.build(graph, vartheta={shrunk.vartheta!r})
    {assertion}
'''
