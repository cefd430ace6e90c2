"""Benchmark for the stovsg engine; run it from the repository root.

    python3 perfbench/run.py --workload long_stream --seed 1 --seconds 27 --trace 0

With ``--trace 0`` it runs the workload in several fresh single-threaded
processes one after another (``worker.py``: three, six for
operator_replay), each measuring its share of ``--seconds``, pools their
samples and prints every end-to-end metric.
With ``--trace 1`` one process alternates plain and traced rounds and it
prints every per-layer metric, including the tracing overhead against
the plain rounds.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits with
status 2, printing no result, when the engine's sources are not beside
it under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_MS
from quantiles import median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("long_stream", "dense_scene", "operator_replay")
# measuring processes per untraced run; each sets up once and setup_s is their median
PROCESSES = {"long_stream": 3, "dense_scene": 3, "operator_replay": 6}
DEADLINE_S = 160.0  # no round starts that would end after this, counted from the start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(parts: list[dict], samples: str = "samples", setup: str = "setup_s") -> dict:
    """Every end-to-end metric from the pooled samples of all processes."""

    def pooled(key: str) -> list:
        return [x for part in parts for x in part[samples][key]]

    frame_ms = pooled("frame_ms")
    graph_bytes = [x for part in parts for x in part["graph_bytes"]]
    return {
        "setup_s": (median([part[setup] for part in parts]), "s"),
        "ingest_fps": (len(frame_ms) / (sum(frame_ms) / 1000.0), "1/s"),
        "ingest_ms.p90": (percentile(frame_ms, 90), "ms"),
        "ingest_growth": (median(pooled("last_tenth_ms")) / median(pooled("first_tenth_ms")), "ratio"),
        "ground_ms.p50": (median(pooled("ground_ms")), "ms"),
        "ground_ms.p90": (percentile(pooled("ground_ms"), 90), "ms"),
        "export_ms.p50": (median(pooled("export_ms")), "ms"),
        "export_ms.p90": (percentile(pooled("export_ms"), 90), "ms"),
        "graph_write_ms": (median(pooled("write_ms")), "ms"),
        "graph_read_ms": (median(pooled("read_ms")), "ms"),
        "graph_mb": (sum(graph_bytes) / len(graph_bytes) / 1e6, "MB"),
        "peak_rss_mb": (max(part["peak_rss_mb"] for part in parts), "MB"),
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "stovsg" / "__init__.py").is_file():
        print(f"perfbench: engine sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    processes = 1 if args.trace else PROCESSES[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    reference = OUT / f"reference-{stem}.json"
    reference.unlink(missing_ok=True)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    parts = []
    for part in range(processes):
        result = OUT / f"part-{stem}-{part}.json"
        result.unlink(missing_ok=True)
        budget = DEADLINE_S - (time.perf_counter() - started)
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / processes), "--trace", str(args.trace),
            "--part", str(part), "--parts", str(processes), "--budget", str(budget),
            "--reference", str(reference), "--result", str(result),
        ]
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=budget + 15)
        if done.returncode != 0:
            print(f"perfbench: measuring process {part} exited with status {done.returncode}", file=sys.stderr)
            return 1
        parts.append(json.loads(result.read_text()))

    if args.trace:
        metrics = parts[0]["per_layer"]
    else:
        raw = end_to_end(parts, "raw", "raw_setup_s")
        metrics = end_to_end(parts)
        battery = median([x for part in parts for x in part["calibration_ms"]])
        print(f"{args.workload:16} {'calibration battery':40} {battery:14.4f} ms (reference {REFERENCE_MS:g})")
        for name, (value, unit) in raw.items():
            print(f"{args.workload:16} {'raw ' + name:40} {value:14.4f} {unit}")
    for part in parts:
        for problem in part["problems"]:
            print(f"FAILED {problem}", file=sys.stderr)
    failed = sum(part["failed"] for part in parts)
    summary = {
        "correct": failed == 0,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for name, metric in summary["metrics"].items():
        print(f"{args.workload:16} {name:40} {metric['value']:14.4f} {metric['unit']}")
    line = json.dumps(summary)
    (OUT / f"result-{stem}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
