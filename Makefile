# Convenience targets for the repro library.

PYTHON ?= python
# Make every target work from a plain checkout (no install needed).
export PYTHONPATH := src
# Scratch directory for smoke-stage artifacts (metrics snapshots,
# traces, throwaway indexes) — never committed, wiped by `make clean`.
SCRATCH := .scratch

.PHONY: install test bench-smoke experiments examples verify fuzz-smoke fuzz shard-smoke flat-smoke obs-smoke serve-smoke clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# Tier-1 suite plus the deterministic smoke stages in one command.
test:
	$(PYTHON) -m pytest tests/
	$(MAKE) fuzz-smoke
	$(MAKE) shard-smoke
	$(MAKE) flat-smoke
	$(MAKE) obs-smoke
	$(MAKE) serve-smoke
	$(MAKE) bench-smoke

# Fixed-seed differential fuzzing smoke stage (<30 s): every answer
# path cross-checked on directed, undirected, and vartheta-capped
# random graphs; the first 8 flat seeds save and mmap-load times at
# every format-3 width (B/H/I/q); the incremental seeds stream inserts
# and removals into an IncrementalTILLIndex, most crossing a rebuild.
# Deterministic — safe for CI.
fuzz-smoke:
	$(PYTHON) -m repro fuzz --profile small --seeds 20
	$(PYTHON) -m repro fuzz --profile theta --seeds 6
	$(PYTHON) -m repro fuzz --profile wide --seeds 3
	$(PYTHON) -m repro fuzz --profile flat --seeds 18
	$(PYTHON) -m repro fuzz --profile incremental --seeds 120

# Longer randomized campaign for local soak testing.
fuzz:
	$(PYTHON) -m repro fuzz --profile small --seeds 200
	$(PYTHON) -m repro fuzz --profile theta --seeds 60
	$(PYTHON) -m repro fuzz --profile wide --seeds 25
	$(PYTHON) -m repro fuzz --profile flat --seeds 120
	$(PYTHON) -m repro fuzz --profile sharded --seeds 60
	$(PYTHON) -m repro fuzz --profile incremental --seeds 400

# Sharded-index smoke stage (<60 s): sharded-vs-monolithic differential
# fuzzing across every routing path (contained / stitch / fallback,
# scalar and batch) plus one parallel (jobs=2) shard build.
# Deterministic — safe for CI.
shard-smoke:
	$(PYTHON) -m repro fuzz --profile sharded --seeds 12
	$(PYTHON) -m repro shard-build chess --shards 4 --jobs 2

# Flat-store smoke stage (<60 s): one real format-3 save / zero-copy
# mmap load / verify cycle on a dataset and one query against the
# mapped file.  The flat fuzz profile (every query path on the
# in-memory store and on its mmap round trip, against each other and
# the brute-force oracle) runs in fuzz-smoke.
# Deterministic — safe for CI.
flat-smoke:
	mkdir -p $(SCRATCH)
	$(PYTHON) -m repro build chess -o $(SCRATCH)/flat_smoke.till --format 3
	$(PYTHON) -m repro verify chess --index $(SCRATCH)/flat_smoke.till \
		--mmap --samples 300
	$(PYTHON) -m repro query chess 5 40 0 900 \
		--index $(SCRATCH)/flat_smoke.till --mmap
	rm -f $(SCRATCH)/flat_smoke.till

# Telemetry smoke stage (<60 s): build + query a small graph with
# metrics/trace export through every surfaced flag, then validate the
# documents against the repro-metrics/1 and repro-trace/1 schemas.
# Artifacts land in $(SCRATCH)/, not the repo root.
# Deterministic — safe for CI.
obs-smoke:
	mkdir -p $(SCRATCH)
	$(PYTHON) -m repro build chess --progress \
		--metrics-out $(SCRATCH)/obs_build_metrics.json \
		--trace-out $(SCRATCH)/obs_build_trace.jsonl
	$(PYTHON) -m repro query chess 5 40 0 900 \
		--metrics-out $(SCRATCH)/obs_query_metrics.json \
		--trace-out $(SCRATCH)/obs_query_trace.jsonl
	$(PYTHON) -m repro stats chess --shards 3 --queries 200 \
		--format prometheus \
		--metrics-out $(SCRATCH)/obs_stats_metrics.json \
		--trace-out $(SCRATCH)/obs_stats_trace.jsonl > /dev/null
	$(PYTHON) -m repro.obs.validate \
		$(SCRATCH)/obs_build_metrics.json \
		$(SCRATCH)/obs_build_trace.jsonl \
		$(SCRATCH)/obs_query_metrics.json \
		$(SCRATCH)/obs_query_trace.jsonl \
		$(SCRATCH)/obs_stats_metrics.json \
		$(SCRATCH)/obs_stats_trace.jsonl

# Network-serving smoke stage (<60 s): builds a format-3 index, boots
# a pre-fork server pool on a scratch Unix socket (every worker mmaps
# the same file) with fleet observability on, drives a few hundred
# pipelined span/theta queries through the load generator (the second
# wave fully traced), hot-swaps the index mid-traffic (reload op +
# SIGHUP), asserts the `metrics` wire op aggregates every worker's
# counters to the exact client-side total and zero failed queries,
# then validates the merged fleet artifacts (metrics document +
# cross-process trace) and judges the aggregated latency against the
# recorded bench baseline (wide 900% budget: this is a format/plumbing
# check on a shared CI box, not a perf judgement).
# Deterministic — safe for CI.
serve-smoke:
	mkdir -p $(SCRATCH)
	$(PYTHON) -m repro.serve.smoke --workers 2 --queries 400 \
		--fleet-metrics-out $(SCRATCH)/serve_fleet_metrics.json \
		--fleet-trace-out $(SCRATCH)/serve_fleet_trace.jsonl
	$(PYTHON) -m repro.obs.validate \
		$(SCRATCH)/serve_fleet_metrics.json \
		$(SCRATCH)/serve_fleet_trace.jsonl
	$(PYTHON) -m repro slo \
		--metrics $(SCRATCH)/serve_fleet_metrics.json \
		--baseline BENCH_PR8.json --max-burn 900

# Seeded perf baseline (<90 s): build time, label size, scalar vs
# batch vs cached query throughput, per-scenario latency percentiles,
# the online fallback, the monolithic-vs-sharded build/query
# comparison, the telemetry-overhead scenario, the flat-kernel serving
# (plus the bare python batch kernels) + cold-open scenario, and the
# network serving scenario (concurrent QPS + p50/p95/p99 vs
# worker count vs the in-process engine ceiling, with a hot swap under
# load, plus a fleet-observability rerun recording its overhead and
# SLO estimates).
# Writes $(SCRATCH)/bench_smoke.json (committed BENCH_*.json files
# are never overwritten) and gates against the recorded
# BENCH_PR9.json baseline; tune the gate with e.g.
#   python -m repro bench --smoke --compare BENCH_PR9.json --max-regression 15
bench-smoke:
	mkdir -p $(SCRATCH)
	$(PYTHON) -m repro bench --smoke -o $(SCRATCH)/bench_smoke.json \
		--compare BENCH_PR9.json --max-regression 15 --repeats 6

experiments:
	$(PYTHON) -m repro experiment table2
	$(PYTHON) -m repro experiment fig4
	$(PYTHON) -m repro experiment fig5
	$(PYTHON) -m repro experiment fig6
	$(PYTHON) -m repro experiment fig7
	$(PYTHON) -m repro experiment fig8
	$(PYTHON) -m repro experiment fig9

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done

verify:
	$(PYTHON) -m repro verify chess --samples 1000
	$(PYTHON) -m repro verify enron --samples 500

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis $(SCRATCH)
	rm -f obs_*_metrics.json obs_*_trace.jsonl flat_smoke.till
	find . -name __pycache__ -type d -exec rm -rf {} +
