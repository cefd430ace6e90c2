"""One measuring process of the benchmark; ``run.py`` starts it.

It sets up its share of the workload, plays whole rounds for
``--seconds`` of timed work, checks them, and writes its raw samples (or,
with ``--trace 1``, its per-layer metrics) as JSON to ``--result``.
Process ``--part 0`` of a stream workload fully checks its first round
and writes the digests of that round to ``--reference``; the other
processes must reproduce them byte for byte.
"""

from __future__ import annotations

import os

# one thread per process, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--parts", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="start no round that would end later")
    parser.add_argument("--reference", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    return parser.parse_args(argv)


TIMINGS = ("frame_ms", "first_tenth_ms", "last_tenth_ms", "ground_ms", "export_ms", "write_ms", "read_ms")


def timed_round(samples, play) -> float:
    """Play one round and append its cost to ``samples.round_cost``; returns its wall time.

    The cost is the round's operation time over the median battery
    reading taken during it (the last one before it if none were), so
    rounds played in the machine's fast and slow states compare.
    """
    op_s, readings = samples.op_s, len(samples.calibration_ms)
    start = time.perf_counter()
    play()
    took = time.perf_counter() - start
    during = samples.calibration_ms[readings:] or samples.calibration_ms[-1:]
    samples.round_cost.append((samples.op_s - op_s) / statistics.median(during))
    samples.rounds += 1
    return took


def measure(seconds: float, budget: float, started: float, play_round, min_rounds: int) -> None:
    """Play whole rounds until ``seconds`` of timed play would be overshot by more than half a round."""
    played = 0.0
    rounds = 0
    while True:
        played += play_round(rounds)
        rounds += 1
        per_round = played / rounds
        if rounds < min_rounds:
            continue
        if played + per_round / 2 >= seconds or time.perf_counter() - started + per_round > budget:
            return


def per_layer(tracer, traced, plain, generate_ms_per_frame: float) -> dict:
    counts = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_call(key: str, layer: str) -> float:
        return ratio(counts[key], tracer.calls(layer))

    def self_ms(layer: str) -> tuple:
        return (tracer.self_ms(layer), "ms")

    parse_s = tracer.stats.get("formats.parse_stream", [0, 0.0, 0.0])[1]
    loads_s = tracer.stats.get("formats.json_loads", [0, 0.0, 0.0])[1]
    # plain and traced rounds alternate, so each traced round is paired with the plain one before it
    overhead = statistics.median(t / p for p, t in zip(plain.round_cost, traced.round_cost)) - 1.0
    return {
        "sim.generate_stream.ms_per_frame": (generate_ms_per_frame, "ms"),
        "geometry.lift_mask.self_ms": self_ms("geometry.lift_mask"),
        "geometry.points_lifted": (per_call("geometry.points_lifted", "geometry.lift_mask"), "count"),
        "spatial.resolve_ambiguous.self_ms": self_ms("spatial.resolve_ambiguous"),
        "spatial.candidates": (per_call("spatial.candidates", "spatial.resolve_ambiguous"), "count"),
        "spatial.kept_ratio": (ratio(counts["spatial.kept"], counts["spatial.candidates"]), "ratio"),
        "temporal.build_cost_matrix.self_ms": self_ms("temporal.build_cost_matrix"),
        "temporal.cost_cells": (per_call("temporal.cost_cells", "temporal.build_cost_matrix"), "count"),
        "temporal.accepted_per_cell": (ratio(counts["temporal.accepted"], counts["temporal.cost_cells"]), "ratio"),
        "temporal.associate.self_ms": self_ms("temporal.associate"),
        "assignment.min_cost_assignment.self_ms": self_ms("assignment.min_cost_assignment"),
        "assignment.padded_cells": (
            per_call("assignment.padded_cells", "assignment.min_cost_assignment"), "count"),
        "model.node_index.builds": (ratio(tracer.calls("model.node_index"), traced.rounds), "count"),
        "model.node_index.entries": (per_call("model.node_index.entries", "model.node_index"), "count"),
        "model.node_index.entries_per_lookup": (
            ratio(counts["model.node_index.entries"], counts["model.node_lookups"]), "ratio"),
        "model.node_index.self_ms": self_ms("model.node_index"),
        "store.ingest_frame.self_ms": self_ms("store.ingest_frame"),
        "store.apply_outcome.self_ms": self_ms("store.apply_outcome"),
        "store.frame_at_operator_time.self_ms": self_ms("store.frame_at_operator_time"),
        "store.frames_scanned": (per_call("store.frames_scanned", "store.frame_at_operator_time"), "count"),
        "store.lifecycle_events.self_ms": self_ms("store.lifecycle_events"),
        "store.edges_scanned": (per_call("store.edges_scanned", "store.lifecycle_events"), "count"),
        "query.score_nodes.self_ms": self_ms("query.score_nodes"),
        "query.nodes_scored": (per_call("query.nodes_scored", "query.score_nodes"), "count"),
        "query.ground_command.self_ms": self_ms("query.ground_command"),
        "query.extract_subgraph.self_ms": self_ms("query.extract_subgraph"),
        "formats.subgraph_payload.self_ms": self_ms("formats.subgraph_payload"),
        "formats.canonical_dumps.self_ms": self_ms("formats.canonical_dumps"),
        "formats.subgraph_kb": (per_call("formats.subgraph_bytes", "formats.serialize_subgraph") / 1024.0, "KB"),
        "formats.parse_stream.ms_per_frame": (1000.0 * ratio(parse_s, counts["formats.frames_parsed"]), "ms"),
        "formats.graph_to_dict.self_ms": self_ms("formats.graph_to_dict"),
        "formats.dumps.self_ms": self_ms("formats.dumps"),
        "formats.graph_from_dict.self_ms": self_ms("formats.graph_from_dict"),
        "formats.json_loads_ms": (1000.0 * ratio(loads_s, tracer.calls("formats.read_graph")), "ms"),
        "formats.points_mb": (ratio(sum(traced.points_bytes), len(traced.points_bytes)) / 1e6, "MB"),
        "runtime.gc.collections": (ratio(counts["runtime.gc.collections"], traced.rounds), "count"),
        "runtime.gc_ms": (1000.0 * ratio(counts["runtime.gc_s"], traced.rounds), "ms"),
        "trace.overhead_pct": (100.0 * overhead, "%"),
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import stovsg  # noqa: F401  (timed as part of set-up)

    import_s = time.perf_counter() - started
    import calibrate
    import spans
    import workloads

    workload = workloads.make(args.workload, args.seed, OUT, args.part, args.parts)
    shares_scene = isinstance(workload, workloads.StreamWorkload)
    if shares_scene and args.part > 0:
        workload.reference = json.loads(args.reference.read_text())
    plain = workloads.Samples()

    def plain_round(_) -> float:
        played = []
        took = timed_round(plain, lambda: played.extend(workload.play(plain, time.perf_counter)))
        workload.check(played, plain)
        return took

    try:
        if not args.trace:
            plain.calibrate()
            workload.set_up(plain)
            plain.calibrate()
            measure(args.seconds, args.budget, started, plain_round, 1)
            if shares_scene and args.part == 0:
                args.reference.write_text(json.dumps(workload.reference))
            samples = plain
            scale = calibrate.Scale(plain.at["calibration_ms"], plain.calibration_ms)
            steps = zip(plain.setup_ms, plain.at["setup_ms"])
            raw = {key: getattr(plain, key) for key in TIMINGS}
            result = {
                "raw_setup_s": import_s + sum(plain.setup_ms) / 1000.0,
                "setup_s": import_s * scale(started, started + import_s)
                + sum(ms / 1000.0 * scale(t, t + ms / 1000.0) for ms, t in steps),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "graph_bytes": plain.graph_bytes,
                "calibration_ms": plain.calibration_ms,
                "raw": raw,
                "samples": {
                    key: [ms * scale(t, t + ms / 1000.0) for ms, t in zip(values, plain.at.get(key, ()))]
                    for key, values in raw.items()
                },
            }
        else:
            tracer = spans.Tracer()
            with spans.trace_generation(tracer):
                workload.set_up(workloads.Samples())
            generate_ms = 1000.0 * tracer.stats["sim.generate_stream"][1] / tracer.counts["sim.frames_generated"]
            tracer = spans.Tracer()
            traced = workloads.Samples()

            def alternate(k) -> float:
                if k % 2 == 0:
                    return plain_round(k)
                played = []
                with spans.instrument(tracer):
                    took = timed_round(traced, lambda: played.extend(workload.play(traced, tracer.clock)))
                workload.check(played, traced)
                if not traced.points_bytes:
                    traced.points_bytes = [workloads.points_bytes(p.graph) for p in played]
                for problem in tracer.problems:
                    traced.fail("assignment", [problem])
                tracer.problems.clear()
                return took

            measure(args.seconds, args.budget, started, alternate, 2)
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            samples = traced
            samples.attempted += plain.attempted
            samples.failed += plain.failed
            samples.problems += plain.problems
            result = {"per_layer": per_layer(tracer, traced, plain, generate_ms)}
    finally:
        shutil.rmtree(workload.out_dir, ignore_errors=True)

    result.update(attempted=samples.attempted, failed=samples.failed, problems=samples.problems)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
