"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.core.index import TILLIndex  # noqa: E402
from repro.datasets.registry import load_dataset  # noqa: E402
from repro.graph.projection import span_reaches_bruteforce  # noqa: E402
from repro.serve.engine import QueryEngine  # noqa: E402

from spanbench import engine_bulk, ingest, inputs, layers  # noqa: E402
from spanbench.common import END_TO_END, PER_LAYER, Result  # noqa: E402


def _inputs(seed):
    enron = load_dataset("enron")
    stream = inputs.paper_stream(enron, 300, seed)
    warm = inputs.paper_stream(enron, 100, seed + 7919, exclude=stream)
    flickr = load_dataset("flickr")
    batches = inputs.bulk_batches(flickr, 3, seed)
    email = load_dataset("email-eu")
    _base, edges = inputs.split_by_time(email, 700)
    points = inputs.ingest_queries(email, edges, 4, seed)
    lines = b"".join(q.line(k) for k, q in enumerate(stream))
    return inputs.fingerprint(stream, warm, batches, points), lines


def test_same_seed_same_inputs_and_other_seed_differs():
    first, lines = _inputs(3)
    again, lines_again = _inputs(3)
    other, other_lines = _inputs(4)
    assert first == again and lines == lines_again
    assert first != other and lines != other_lines


def test_streams_never_repeat_a_query():
    enron = load_dataset("enron")
    stream = inputs.paper_stream(enron, 2000, 9)
    warm = inputs.paper_stream(enron, 200, 10, exclude=stream)
    assert len(set(stream)) == len(stream)
    assert not set(stream) & set(warm)
    theta = sum(q.theta is not None for q in stream) / len(stream)
    assert 0.15 < theta < 0.25


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        "serve-paper", "engine-bulk", "ingest"]
    for traced, table in ((False, END_TO_END), (True, PER_LAYER)):
        result = Result("x", 0, traced)
        for name in table:
            result.set(name, 1.5)
        result.check([True], [True], "ok")
        doc = result.document()
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == table


def _chess():
    graph = load_dataset("chess")
    return graph, TILLIndex.build(graph).flatten()


def test_wrong_reference_answer_counts_as_failed():
    graph, index = _chess()
    batches = inputs.bulk_batches(graph, 2, 5, batch_size=60,
                                  hot_sources=3)
    want = [layers.reference_answers(index, engine_bulk._queries(b))
            for b in batches]
    clean = Result("engine-bulk", 5, False)
    engine_bulk._pass(QueryEngine(index, cache_size=0), batches, want,
                      0.05, clean)
    assert clean.attempted > 0 and clean.failed == 0
    want[0][7] = not want[0][7]
    broken = Result("engine-bulk", 5, False)
    engine_bulk._pass(QueryEngine(index, cache_size=0), batches, want,
                      0.05, broken)
    assert broken.failed > 0
    assert broken.failed / broken.attempted > 0
    for name in END_TO_END:
        broken.set(name, 1.0)
    assert broken.document()["correct"] is False


def test_live_reference_matches_the_oracle():
    graph = load_dataset("chess")
    base, stream = inputs.split_by_time(graph, 40)
    qs = inputs.ingest_queries(graph, stream, 2, 1)
    want = ingest.live_answers(graph, base, stream, qs)
    for i in (0, 19, 39):
        live = layers.base_graph_of(graph, base + stream[:i + 1])
        for q, w in zip(qs[i], want[i]):
            assert span_reaches_bruteforce(live, q.u, q.v, (q.t1, q.t2)) == w


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
