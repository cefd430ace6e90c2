"""Run a fixed sequence of ``stovsg`` command lines and write a SHA-256 manifest of what they produce.

Usage::

    PYTHONPATH=src python tests/cli_manifest.py OUT_DIR

``OUT_DIR`` must be new or empty.  The sequence writes a config; simulates
each scenario family at seeds 0 and 3 with noise 0.6 and a 1 s delay, and
again from each written scenario file; builds each stream; queries and
exports every scenario command, latency-aware and ``--naive``, to
``--out`` and to stdout, at the default cutoff and at three ``--as-of``
times (issue + 0.3 s, 0.01 s and arrival + 3 s); scores each graph, aware
and ``--naive``; and replays a short sweep, aware and ``--naive``.  Each
command runs in this process through ``stovsg.cli.main``, from inside
``OUT_DIR`` and with relative paths, so no output names where it ran.

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
        files = sorted(p for p in Path(".").rglob("*") if p.is_file())
        lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.as_posix()}\n" for p in files]
        Path("MANIFEST.sha256").write_text("".join(lines))
    finally:
        os.chdir(here)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    run_sequence(sys.argv[1])
