"""Steadiness check: two alternating sets of runs, compared against the bounds.

    python3 perfbench/steady.py --runs 10 --first-seed 100

Runs ``run.py`` once per (run, set, workload), one process at a time,
alternating which set goes first, with a different seed for every run.
For each end-to-end metric it prints each set's median and quartiles,
the spread (IQR / median) and how far the second set's median moved in
the metric's worse direction, flagging any figure over its bound.  Raw
results go to ``perfbench/out/steady-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from quantiles import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    names = [w["name"] for w in bench["workloads"]]

    results: dict = {w: [[] for _ in range(SETS)] for w in names}
    for i in range(args.runs):
        for s in (0, 1) if i % 2 == 0 else (1, 0):
            for w in names:
                seed = args.first_seed + 1000 * s + i
                result = one_run(w, seed, bench["run_seconds"])
                results[w][s].append(result)
                print(f"run {i} set {s} {w} seed {seed}: attempted {result['attempted']} "
                      f"failed {result['failed']} correct {result['correct']} in {result['wall_s']:.1f} s",
                      flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.first_seed}.json").write_text(json.dumps(results) + "\n")

    for w in names:
        print(f"\n{w}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"  {name:16}"
            medians = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[w][s]]
                mid, q1, q3, share = spread(values)
                medians.append(mid)
                line += f" | {mid:10.4g} [{q1:10.4g} {q3:10.4g}] {100 * share:5.1f}%{'!' if share > bound else ' '}"
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            line += f" | moved {100 * worse:+5.1f}%{'!' if worse > bound else ' '}"
            print(f"{line} | bound {100 * bound:.0f}%")
        shares = {s: sorted({r["failed"] / r["attempted"] for r in results[w][s]}) for s in range(SETS)}
        walls = [r["wall_s"] for s in range(SETS) for r in results[w][s]]
        print(f"  failed share per set: {shares}; wall per run {min(walls):.1f}-{max(walls):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
