"""Command-line front end: simulate, build, query, export, score, replay.

Every subcommand is deterministic for fixed arguments: rerunning it
produces byte-identical output files.  Failures caused by bad input are
reported as a single machine-readable JSON object on stderr with exit
status 1; genuine bugs surface as tracebacks.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import formats
from .config import load_config, save_config
from .errors import EngineError, FormatError, InputRejected
from .metrics import evaluate
from .model import empty_graph, validate_graph
from .query import extract_subgraph, ground_command
from .replay import commands_from_scenario, format_suite, run_suite
from .sim import FAMILIES, generate_stream, make_scenario, noise_preset
from .store import ingest_sequence


def _query_setup(args) -> tuple:
    graph = formats.read_graph(args.graph)
    command = formats.read_command(args.command)
    config = load_config(args.config)
    as_of = args.as_of if args.as_of is not None else command.arrival_time
    return graph, command, config, as_of


def _emit(text: str, out: str | None) -> int:
    """Write ``text`` and a newline to ``out`` when one is given, then print it."""
    if out:
        Path(out).write_text(text + "\n")
    print(text)
    return 0


def cmd_simulate(args) -> int:
    if args.scenario:
        spec = formats.read_scenario(args.scenario)
    else:
        spec = make_scenario(
            args.family,
            {
                "seed": args.seed,
                "delay": args.delay,
                "frame_rate": args.frame_rate,
                "noise": noise_preset(args.noise),
            },
        )
    inputs, truth = generate_stream(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    formats.write_scenario(spec, out_dir / "scenario.json")
    formats.write_stream(inputs, out_dir / "stream.jsonl")
    formats.write_truth(truth, out_dir / "truth.json")
    print(
        f"wrote {len(inputs)} frames, {sum(len(f.detections) for f in inputs)} detections "
        f"to {out_dir}"
    )
    return 0


def cmd_build(args) -> int:
    config = load_config(args.config)
    _, inputs = formats.parse_stream(args.stream)
    graph = ingest_sequence(empty_graph(), inputs, config)
    problems = validate_graph(graph)
    if problems:
        raise EngineError("built graph failed validation: " + "; ".join(problems))
    formats.write_graph(graph, args.out)
    nodes = sum(len(f.nodes) for f in graph.frames)
    print(
        f"built graph: {len(graph.frames)} frames, {nodes} nodes, "
        f"{graph.next_track_id - 1} tracks, {len(graph.temporal_edges)} temporal edges -> {args.out}"
    )
    return 0


def cmd_query(args) -> int:
    graph, command, config, as_of = _query_setup(args)
    result = ground_command(
        graph, command, config.query, latency_aware=not args.naive, as_of=as_of
    )
    payload = {
        "command_text": result.command.text,
        "status": result.status,
        "aligned_frame_index": result.aligned_frame_index,
        "track_id": result.track_id,
        "aligned_node_id": result.aligned_node.node_id,
        "score": result.score,
        "current_node_id": result.current_node.node_id,
        "label": result.aligned_node.label,
        "centroid": result.current_node.centroid.tolist(),
        "size": result.current_node.size.tolist(),
    }
    return _emit(formats.dumps(payload), args.out)


def cmd_export(args) -> int:
    graph, command, config, as_of = _query_setup(args)
    sub = extract_subgraph(
        graph, command, config.query, latency_aware=not args.naive, as_of=as_of
    )
    return _emit(formats.serialize_subgraph(sub), args.out)


def cmd_score(args) -> int:
    config = load_config(args.config)
    graph = formats.read_graph(args.graph)
    problems = validate_graph(graph)  # scoring reads every node, edge and track
    if problems:
        raise FormatError(f"graph {args.graph}: " + "; ".join(problems))
    truth = formats.read_truth(args.truth)
    commands = None
    if args.commands:
        commands = formats.read_commands(args.commands)
    elif args.scenario:
        commands = commands_from_scenario(formats.read_scenario(args.scenario))
    report = evaluate(graph, truth, commands, config, latency_aware=not args.naive)
    return _emit(formats.dumps(report.to_dict()), args.out)


def cmd_replay(args) -> int:
    config = load_config(args.config)
    families = tuple(args.families.split(",")) if args.families else FAMILIES
    for family in families:
        if family not in FAMILIES:
            raise InputRejected(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    try:
        delays = tuple(float(d) for d in args.delays.split(","))
    except ValueError:
        raise InputRejected(f"--delays must be comma-separated numbers, got {args.delays!r}") from None
    suite = run_suite(
        families=families,
        delays=delays,
        trials=args.trials,
        base_seed=args.seed,
        config=config,
        latency_aware=not args.naive,
    )
    print(format_suite(suite))
    if args.out:
        Path(args.out).write_text(formats.dumps(asdict(suite)) + "\n")
    return 0


def cmd_config(args) -> int:
    save_config(load_config(args.config), args.out)
    print(f"wrote config to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stovsg",
        description="Latency-aware 4-D scene graphs for delayed teleoperation streams.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="generate a scenario, its detection stream, and truth")
    p.add_argument("--family", choices=FAMILIES, default=FAMILIES[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delay", type=float, default=0.5, help="one-way transmission delay, seconds")
    p.add_argument("--frame-rate", type=float, default=10.0, help="frames per second")
    p.add_argument("--noise", type=float, default=0.0, help="noise level in [0, 1]")
    p.add_argument("--scenario", help="regenerate from an existing scenario file instead")
    p.add_argument("--out-dir", required=True, help="directory for scenario/stream/truth files")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("build", help="ingest a detection stream into a graph file")
    p.add_argument("--stream", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    for name, func, help_text in (
        ("query", cmd_query, "ground a command against a graph"),
        ("export", cmd_export, "emit the canonical task-subgraph payload for a command"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True)
        p.add_argument("--command", required=True, help="command JSON file")
        p.add_argument("--config")
        p.add_argument("--naive", action="store_true", help="resolve on the newest frame instead")
        p.add_argument("--as-of", type=float, default=None, help="frame cutoff time (default: command arrival)")
        p.add_argument("--out")
        p.set_defaults(func=func)

    p = sub.add_parser("score", help="score a graph against a ground-truth log")
    p.add_argument("--graph", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--commands", help="command list JSON file")
    p.add_argument("--scenario", help="derive commands from a scenario file")
    p.add_argument("--config")
    p.add_argument("--naive", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("replay", help="run scripted scenario sweeps and print a results table")
    p.add_argument("--families", help="comma-separated subset (default: all)")
    p.add_argument("--delays", default="0.25,0.5,1.0,2.0,5.0")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--naive", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("config", help="write the effective configuration to a file")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore"):  # input that overflows is refused as one JSON object, without a warning
            return args.func(args)
    except EngineError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "io-error", "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
