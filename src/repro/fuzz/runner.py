"""The fuzz campaign driver behind ``repro fuzz``.

For each seed: draw a :class:`FuzzCase` from the profile, build the
index, validate the label invariants, run the differential sweep, and
— on failure — minimize the (graph, query) pair into a pytest repro.
Everything is deterministic in ``(profile, base_seed, seeds)``, which
is what makes the Makefile smoke stage reproducible in CI.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.index import TILLIndex
from repro.errors import LabelInvariantError
from repro.fuzz.differential import (
    MUTATION_QUERIES,
    Mismatch,
    check_flat_index,
    check_incremental,
    check_index,
    check_sharded_index,
)
from repro.fuzz.invariants import check_labels
from repro.fuzz.profiles import PROFILES, FuzzCase, FuzzProfile, make_case
from repro.fuzz.shrink import ShrunkFailure, shrink_failure

LogHook = Callable[[str], None]


@dataclass(frozen=True)
class FuzzFailure:
    """One failing case: the mismatch plus its minimized repro."""

    case: FuzzCase
    mismatch: Mismatch
    shrunk: Optional[ShrunkFailure]

    def report(self) -> str:
        lines = [
            f"FAIL {self.case.description}",
            f"  {self.mismatch}",
            f"  replay: repro fuzz --profile {self.case.profile} "
            f"--base-seed {self.case.seed} --seeds 1",
        ]
        if self.shrunk is not None:
            lines.append(
                f"  shrunk to {len(self.shrunk.edges)} edge(s) / "
                f"{len(self.shrunk.vertices)} vertex(ices); pytest repro:"
            )
            lines.append("")
            lines.extend(
                "    " + line for line in
                self.shrunk.pytest_source.splitlines()
            )
        elif self.mismatch.check.startswith("incremental:"):
            lines.append(
                "  (a mutation-stream mismatch: the graph shrinker does "
                "not apply; the replay command reruns the stream)"
            )
        else:
            lines.append(
                "  (not reproducible from a clean rebuild — the failure "
                "lives in mutated index state, not the algorithms)"
            )
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    profile: str
    base_seed: int
    cases: int = 0
    queries: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    #: incremental rebuilds: ``"folds"``, ``"full_builds"`` and the
    #: full builds by reason
    rebuilds: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        rebuilds = reasons = ""
        if self.rebuilds:
            rebuilds = (f", {self.rebuilds['folds']} fold(s) / "
                        f"{self.rebuilds['full_builds']} full build(s)")
            reasons = "; full builds by reason: " + ", ".join(
                f"{k} {n}" for k, n in self.rebuilds.items()
                if k not in ("folds", "full_builds"))
        return (
            f"fuzz[{self.profile}]: {self.cases} case(s), "
            f"~{self.queries} differential quer(ies){rebuilds}: {status}"
            f"{reasons}"
        )


def run_fuzz(
    profile: str = "small",
    seeds: int = 25,
    base_seed: int = 0,
    shrink: bool = True,
    fail_fast: bool = False,
    log: Optional[LogHook] = None,
    telemetry=None,
) -> FuzzReport:
    """Run a deterministic fuzz campaign; see the module docstring.

    ``profile`` names an entry of :data:`repro.fuzz.profiles.PROFILES`
    or is a :class:`FuzzProfile` instance; case seeds are
    ``base_seed .. base_seed + seeds - 1``.  ``telemetry`` (a
    :class:`repro.obs.Telemetry`) records one ``fuzz.case`` tracer
    span per case plus campaign counters
    (``fuzz_cases_total``/``fuzz_queries_total``/``fuzz_failures_total``).
    """
    if isinstance(profile, FuzzProfile):
        prof = profile
    else:
        try:
            prof = PROFILES[profile]
        except KeyError:
            known = ", ".join(sorted(PROFILES))
            raise ValueError(
                f"unknown fuzz profile {profile!r}; known profiles: {known}"
            ) from None
    obs_cases = obs_queries = obs_failures = None
    if telemetry is not None:
        m = telemetry.metrics
        obs_cases = m.counter("fuzz_cases_total", "Fuzz cases executed")
        obs_queries = m.counter(
            "fuzz_queries_total", "Differential queries cross-checked"
        )
        obs_failures = m.counter(
            "fuzz_failures_total", "Cases with at least one mismatch"
        )
    report = FuzzReport(profile=prof.name, base_seed=base_seed)
    for seed in range(base_seed, base_seed + seeds):
        case = make_case(prof, seed)
        if log is not None:
            log(f"case {case.description}")
        case_span = (
            telemetry.tracer.span(
                "fuzz.case", profile=prof.name, seed=seed
            )
            if telemetry is not None and telemetry.tracer else None
        )
        queries_before = report.queries
        index = TILLIndex.build(case.graph, vartheta=case.vartheta)
        report.cases += 1

        mismatches: List[Mismatch] = []
        try:
            check_labels(index)
        except LabelInvariantError as exc:
            mismatches.append(
                Mismatch("invariant", "; ".join(exc.violations))
            )
        mismatches.extend(
            check_index(
                index,
                samples=prof.span_queries,
                seed=seed,
                theta_samples=prof.theta_queries,
                window_pairs=prof.window_pairs,
            )
        )
        report.queries += (
            prof.span_queries + prof.theta_queries + prof.window_pairs
        )

        if prof.shard_counts:
            from repro.shard import ShardedTILLIndex
            from repro.shard.partition import POLICIES

            shard_rng = random.Random(f"shard:{prof.name}:{seed}")
            sharded = ShardedTILLIndex.build(
                case.graph,
                num_shards=shard_rng.choice(prof.shard_counts),
                policy=shard_rng.choice(POLICIES),
                vartheta=case.vartheta,
            )
            mismatches.extend(
                check_sharded_index(
                    sharded,
                    index,
                    samples=prof.span_queries,
                    seed=seed,
                    theta_samples=prof.theta_queries,
                )
            )
            report.queries += prof.span_queries + prof.theta_queries

        if prof.flat:
            mismatches.extend(
                check_flat_index(
                    index,
                    samples=prof.span_queries,
                    seed=seed,
                    theta_samples=prof.theta_queries,
                )
            )
            report.queries += prof.span_queries + prof.theta_queries

        if prof.incremental:
            mismatches.extend(
                check_incremental(case.graph, case.vartheta, seed,
                                  report.rebuilds)
            )
            # a span and a θ query per draw, ~m/2 streamed mutations
            report.queries += MUTATION_QUERIES * case.graph.num_edges
        if case_span is not None:
            case_span.attrs.update(
                mismatches=len(mismatches),
                queries=report.queries - queries_before,
            )
            case_span.__exit__(None, None, None)
        if obs_cases is not None:
            obs_cases.inc(profile=prof.name)
            obs_queries.inc(report.queries - queries_before)
        if mismatches:
            if obs_failures is not None:
                obs_failures.inc(profile=prof.name)
            mismatch = mismatches[0]
            shrunk = shrink_failure(case, mismatch) if shrink else None
            failure = FuzzFailure(case=case, mismatch=mismatch, shrunk=shrunk)
            report.failures.append(failure)
            if log is not None:
                log(failure.report())
            if fail_fast:
                break
    return report
