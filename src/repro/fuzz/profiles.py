"""Fuzz-case generation: random temporal graphs across the whole
configuration space the library claims to support.

A :class:`FuzzProfile` describes a distribution over graph
configurations — generator family, size ranges, directedness,
multi-edges, negative timestamps (via a time shift), and a build-time
ϑ cap — and :func:`make_case` draws one reproducible :class:`FuzzCase`
from it.  The differential checker then asserts that every answer path
agrees on the drawn graph.

Six built-in profiles (see :data:`PROFILES`):

``small``
    The default smoke profile: tiny graphs from all four generator
    families, directed and undirected, with multi-edges, negative
    timestamps and occasional ϑ caps.  Brute-force oracles stay cheap,
    so many queries per case are affordable.
``wide``
    Larger, longer-lived graphs — exercises deeper label sets and the
    merge-join paths with real hub overlap.
``theta``
    Short lifetimes and frequent ϑ caps — concentrates on the
    θ-reachability paths (sliding vs naive vs online) and the capped
    fallback behaviour, where historical bugs cluster.
``sharded``
    Additionally builds a :class:`~repro.shard.ShardedTILLIndex` over
    each case (2-4 slices, random policy) and cross-checks every
    routed answer — contained, stitched and fallback — against the
    monolithic index and the oracles.
``flat``
    Additionally round-trips each case's
    :class:`~repro.core.flatstore.FlatTILLStore` through a format-3
    save → mmap-load and checks every query path (span, θ sliding,
    θ naive, prefilter on and off, the batch kernels) on the mapped
    store against the in-memory one on every window, and both against
    the brute-force oracle within the ϑ cap.  Its cases that keep
    non-negative times also lift them past 2^8, 2^16 and 2^32 in
    rotation, so the round trip stores times at every width format 3
    writes (``B``/``H``/``I``/``q``).
``incremental``
    Additionally builds an
    :class:`~repro.core.incremental.IncrementalTILLIndex` over a
    time-ordered prefix of each case and streams the rest in, under a
    rebuild threshold small enough that most cases cross it.  A third
    of the seeds interleave removals of base and buffered edges; the
    rest stream inserts only or remove only buffered edges, so that
    their rebuilds mostly fold (the summary line counts folds and full
    builds).  After
    each mutation, span and θ answers must match the oracle on the live
    edge set and, every few mutations, a from-scratch build.  A
    mismatch replays with ``repro fuzz --profile incremental
    --base-seed N --seeds 1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.graph.generators import GENERATORS
from repro.graph.temporal_graph import TemporalGraph


#: flat cases lift their latest timestamp to just past 2**bits, *bits*
#: rotating through these values plus one unshifted slot every two seeds
#: — so the even and the odd seeds each see every stored time width
_TIME_WIDTH_BITS = (8, 16, 32)


@dataclass(frozen=True)
class FuzzProfile:
    """A distribution over temporal-graph configurations."""

    name: str
    num_vertices: Tuple[int, int]
    num_edges: Tuple[int, int]
    lifetime: Tuple[int, int]
    #: generator names from :data:`repro.graph.generators.GENERATORS`
    generators: Tuple[str, ...] = ("uniform", "preferential", "community", "cascade")
    undirected_probability: float = 0.5
    #: probability of shifting all timestamps below zero
    negative_shift_probability: float = 0.3
    #: probability of duplicating existing edges at fresh timestamps
    multi_edge_probability: float = 0.4
    #: probability of building with a finite ϑ cap
    vartheta_probability: float = 0.35
    #: differential-check budget per case
    span_queries: int = 40
    theta_queries: int = 12
    window_pairs: int = 8
    #: shard counts to draw from for the sharded-vs-monolithic sweep;
    #: empty disables it
    shard_counts: Tuple[int, ...] = ()
    #: run the flat-store sweep (the format-3 save → mmap-load round
    #: trip against the in-memory store and the oracle)
    flat: bool = False
    #: run the incremental sweep (a mutation stream into an
    #: ``IncrementalTILLIndex``, checked after every mutation)
    incremental: bool = False


PROFILES: Dict[str, FuzzProfile] = {
    "small": FuzzProfile(
        name="small",
        num_vertices=(4, 12),
        num_edges=(6, 40),
        lifetime=(4, 12),
    ),
    "wide": FuzzProfile(
        name="wide",
        num_vertices=(18, 36),
        num_edges=(60, 150),
        lifetime=(15, 35),
        span_queries=30,
        theta_queries=8,
        window_pairs=6,
    ),
    "theta": FuzzProfile(
        name="theta",
        num_vertices=(4, 10),
        num_edges=(8, 30),
        lifetime=(4, 8),
        vartheta_probability=0.5,
        span_queries=20,
        theta_queries=30,
        window_pairs=6,
    ),
    "sharded": FuzzProfile(
        name="sharded",
        num_vertices=(5, 14),
        num_edges=(10, 45),
        lifetime=(6, 16),
        vartheta_probability=0.3,
        span_queries=25,
        theta_queries=10,
        window_pairs=2,
        shard_counts=(2, 3, 4),
    ),
    "flat": FuzzProfile(
        name="flat",
        num_vertices=(4, 14),
        num_edges=(6, 45),
        lifetime=(4, 14),
        vartheta_probability=0.4,
        span_queries=25,
        theta_queries=15,
        window_pairs=2,
        flat=True,
    ),
    "incremental": FuzzProfile(
        name="incremental",
        num_vertices=(4, 12),
        num_edges=(8, 36),
        lifetime=(4, 14),
        vartheta_probability=0.3,
        span_queries=6,
        theta_queries=2,
        window_pairs=1,
        incremental=True,
    ),
}


@dataclass(frozen=True)
class FuzzCase:
    """One concrete graph + build configuration drawn from a profile."""

    profile: str
    seed: int
    graph: TemporalGraph
    vartheta: Optional[int]
    description: str

    @property
    def directed(self) -> bool:
        return self.graph.directed


def _rebuild(
    vertices, edges, directed: bool
) -> TemporalGraph:
    """A frozen graph with exactly *vertices* (isolated ones kept) and
    *edges*, in the given insertion order."""
    graph = TemporalGraph(directed=directed)
    for v in vertices:
        graph.add_vertex(v)
    for u, v, t in edges:
        graph.add_edge(u, v, t)
    return graph.freeze()


def make_case(profile: FuzzProfile, seed: int) -> FuzzCase:
    """Draw one reproducible :class:`FuzzCase` from *profile*.

    Deterministic for a given ``(profile.name, seed)`` pair.
    """
    rng = random.Random(f"fuzz:{profile.name}:{seed}")
    generator = rng.choice(profile.generators)
    n = rng.randint(*profile.num_vertices)
    m = rng.randint(*profile.num_edges)
    lifetime = rng.randint(*profile.lifetime)
    directed = rng.random() >= profile.undirected_probability
    graph = GENERATORS[generator](
        num_vertices=n,
        num_edges=m,
        lifetime=lifetime,
        directed=directed,
        seed=rng.randrange(2**31),
    )
    traits = []

    vertices = list(graph.vertices())
    edges = list(graph.edges())
    mutated = False

    # Multi-edges: duplicate a handful of existing edges at fresh times.
    if edges and rng.random() < profile.multi_edge_probability:
        for _ in range(rng.randint(1, max(1, len(edges) // 5))):
            u, v, _t = edges[rng.randrange(len(edges))]
            edges.append((u, v, rng.randint(1, lifetime)))
        mutated = True
        traits.append("multi-edge")

    # Negative timestamps: shift the whole lifetime below zero.
    negative = rng.random() < profile.negative_shift_probability
    if negative:
        shift = lifetime + rng.randint(1, 5)
        edges = [(u, v, t - shift) for u, v, t in edges]
        mutated = True
        traits.append(f"shift=-{shift}")

    # Wide timestamps: lift the latest time just past 2**bits, so
    # format 3 must store this case's times at the next width up.  A
    # negatively shifted case is stored at ``q`` already and stays put.
    slot = (seed // 2) % (len(_TIME_WIDTH_BITS) + 1) if profile.flat else 0
    if slot and edges and not negative:
        top = max(t for _u, _v, t in edges)
        shift = 2 ** _TIME_WIDTH_BITS[slot - 1] - top + lifetime // 2
        edges = [(u, v, t + shift) for u, v, t in edges]
        mutated = True
        traits.append(f"shift=+{shift}")

    if mutated:
        graph = _rebuild(vertices, edges, directed)

    vartheta: Optional[int] = None
    if graph.lifetime > 1 and rng.random() < profile.vartheta_probability:
        vartheta = rng.randint(1, max(1, graph.lifetime - 1))
        traits.append(f"vartheta={vartheta}")

    description = (
        f"profile={profile.name} seed={seed} gen={generator} n={n} "
        f"m={len(edges)} lifetime={lifetime} "
        f"{'directed' if directed else 'undirected'}"
    )
    if traits:
        description += " " + " ".join(traits)
    return FuzzCase(
        profile=profile.name,
        seed=seed,
        graph=graph,
        vartheta=vartheta,
        description=description,
    )
