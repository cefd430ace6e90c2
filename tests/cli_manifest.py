"""Run a fixed sequence of ``stovsg`` command lines and write a SHA-256 manifest of what they produce.

Usage::

    PYTHONPATH=src python tests/cli_manifest.py OUT_DIR

``OUT_DIR`` must be new or empty.  The sequence writes a config; simulates
each scenario family at seeds 0 and 3 with noise 0.6 and a 1 s delay, and
again from each written scenario file; builds each stream; queries and
exports every scenario command, latency-aware and ``--naive``, to
``--out`` and to stdout, at the default cutoff and at three ``--as-of``
times (issue + 0.3 s, 0.01 s and arrival + 3 s); scores each graph, aware
and ``--naive``; replays a short sweep, aware and ``--naive``; and, on
the first scene's files, runs five inputs the engine must refuse (see
:func:`_refusals`).  Each command runs in this process through
``stovsg.cli.main``, from inside ``OUT_DIR`` and with relative paths, so
no output names where it ran.

``OUT_DIR/log.jsonl`` records each command's arguments, exit status,
stdout and stderr (an exception that escapes ``main`` is recorded, not
raised).  ``OUT_DIR/MANIFEST.sha256`` then lists the SHA-256 of every file
in ``OUT_DIR``, in the format of ``sha256sum``.  Two checkouts give the same
outputs exactly when their manifests are equal: run this script in each
and ``diff`` the manifests, then the files that differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from stovsg import FAMILIES, command_to_dict, commands_from_scenario, dumps, read_scenario
from stovsg.cli import main

SEEDS = (0, 3)
REPLAY = ("--delays", "0.5,2.0", "--trials", "2")


def _run(argv: list[str], log) -> int | str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: int | str = main(argv)
        except Exception as exc:  # a traceback the user would see: recorded, so the run goes on
            code = f"exception {type(exc).__name__}: {exc}"
    log.write(json.dumps({"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}) + "\n")
    return code


def _queries(scene: str, log) -> None:
    """Query and export every command of the scene's scenario, at four cutoffs, both ways and to both outputs."""
    for k, command in enumerate(commands_from_scenario(read_scenario(f"{scene}/scenario.json"))):
        path = f"{scene}/command-{k}.json"
        Path(path).write_text(dumps(command_to_dict(command)) + "\n")
        cutoffs = {"default": [], "issue+0.3": ["--as-of", repr(command.issue_time + 0.3)],
                   "0.01": ["--as-of", "0.01"], "arrival+3": ["--as-of", repr(command.arrival_time + 3.0)]}
        for name, cutoff in cutoffs.items():
            for mode in ("aware", "naive"):
                for subcommand in ("query", "export"):
                    argv = [subcommand, "--graph", f"{scene}/graph.json", "--command", path, *cutoff]
                    argv += ["--naive"] if mode == "naive" else []
                    _run(argv, log)
                    _run([*argv, "--out", f"{scene}/{subcommand}-{k}-{name}-{mode}.json"], log)


def _edit_json(path: str, out: str, edit) -> None:
    """Write ``out``: the JSON document at ``path`` after ``edit``."""
    data = json.loads(Path(path).read_text())
    edit(data)
    Path(out).write_text(dumps(data) + "\n")


def _edit_stream(path: str, out: str, edit) -> None:
    """Write ``out`` beside the stream at ``path`` (so its depth files resolve) after ``edit`` of a frame record.

    The record edited is the first that holds a detection.
    """
    header, *frames = Path(path).read_text().splitlines()
    k = next(k for k, line in enumerate(frames) if json.loads(line)["detections"])
    record = json.loads(frames[k])
    edit(record)
    frames[k] = dumps(record)
    Path(out).write_text("\n".join([header, *frames]) + "\n")


def _zeroed(record: dict, key: str) -> None:
    record[key] = [0.0] * len(record[key])


def _refusals(scene: str, log) -> None:
    """Five inputs, each one value edited in the scene's own files, that the engine must refuse.

    An inverted box, a zero ``f_txt`` and a camera ``fx`` of 0 in a stream;
    a negative transmission latency in a graph file; and a zero embedding
    in a command file.  Each leaves no output, so only its log line records
    the refusal's error kind and words.
    """
    streams = {
        "box": lambda frame: frame["detections"][0].update(box=[5.0, 5.0, 5.0, 9.0]),
        "f-txt": lambda frame: _zeroed(frame["detections"][0], "f_txt"),
        "camera": lambda frame: frame["camera"].update(fx=0.0),
    }
    for name, edit in streams.items():
        _edit_stream(f"{scene}/stream.jsonl", f"{scene}/refuse-{name}.jsonl", edit)
        _run(["build", "--stream", f"{scene}/refuse-{name}.jsonl", "--out", f"{scene}/refuse-{name}.graph.json"], log)
    latency = f"{scene}/refuse-latency.graph.json"
    negative = {"transmission_latency": -0.5}
    _edit_json(f"{scene}/graph.json", latency, lambda graph: graph["frames"][0]["latency_tag"].update(negative))
    _run(["query", "--graph", latency, "--command", f"{scene}/command-0.json"], log)
    embedding = f"{scene}/refuse-embedding.json"
    _edit_json(f"{scene}/command-0.json", embedding, lambda command: _zeroed(command, "embedding"))
    _run(["query", "--graph", f"{scene}/graph.json", "--command", embedding], log)


def run_sequence(out_dir: str | Path, families=FAMILIES, seeds=SEEDS, replay=REPLAY) -> None:
    """Run the sequence in ``out_dir`` and write its log and manifest there."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        raise SystemExit(f"{out_dir} is not empty")
    here = os.getcwd()
    os.chdir(out_dir)
    try:
        with open("log.jsonl", "w") as log:
            _run(["config", "--out", "config.json"], log)
            _run(["config", "--config", "config.json", "--out", "config-again.json"], log)
            for family in families:
                for seed in seeds:
                    scene = f"{family}-{seed}"
                    scenario = ["--family", family, "--seed", str(seed), "--noise", "0.6", "--delay", "1.0"]
                    _run(["simulate", *scenario, "--out-dir", scene], log)
                    _run(["simulate", "--scenario", f"{scene}/scenario.json", "--out-dir", f"{scene}/again"], log)
                    _run(["build", "--stream", f"{scene}/stream.jsonl", "--out", f"{scene}/graph.json"], log)
                    _queries(scene, log)
                    files = ["--graph", f"{scene}/graph.json", "--truth", f"{scene}/truth.json"]
                    _run(["score", *files, "--scenario", f"{scene}/scenario.json", "--out", f"{scene}/score.json"], log)
                    _run(["score", *files, "--scenario", f"{scene}/scenario.json", "--naive",
                          "--out", f"{scene}/score-naive.json"], log)
            families_arg = ["--families", ",".join(families)]
            _run(["replay", *families_arg, *replay, "--out", "replay.json"], log)
            _run(["replay", *families_arg, *replay, "--naive", "--out", "replay-naive.json"], log)
            _refusals(f"{families[0]}-{seeds[0]}", log)
        files = sorted(p for p in Path(".").rglob("*") if p.is_file())
        lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.as_posix()}\n" for p in files]
        Path("MANIFEST.sha256").write_text("".join(lines))
    finally:
        os.chdir(here)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    run_sequence(sys.argv[1])
