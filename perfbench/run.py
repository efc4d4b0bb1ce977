"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-paper --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that measures the per-layer ones.  The last line of
standard output is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it carries the details (host
facts, per-rung figures, the per-layer budget).  Workloads, metrics and
their units are listed in ``BENCHMARK.json`` and ``perfbench/README.md``.
Run it from the root of a checkout: it imports the program from
``src/`` and keeps its scratch files in ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

WORKLOADS = ("serve-paper", "engine-bulk", "ingest")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro in this checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    from spanbench import engine_bulk, ingest, serve_paper
    from spanbench.common import OUT, WORK

    run = {"serve-paper": serve_paper.run, "engine-bulk": engine_bulk.run,
           "ingest": ingest.run}[args.workload]
    WORK.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        run(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
