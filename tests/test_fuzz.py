"""Fuzzing the command line with mutated input files.

Each example takes one valid input file (a graph, truth log, command,
command list, scenario or config file, or one line of a stream file),
mutates it once at a drawn path, and runs a command that reads it through
``stovsg.cli.main``.  The command must succeed, or refuse with exit status 1
and exactly one ``{"error", "message"}`` object on stderr; any other
exception is a traceback the user would see.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stovsg import command_to_dict, commands_from_scenario, dumps, read_scenario
from stovsg.cli import main

SPLICED = (None, True, 2**70, 1e308, -0.0)


def run(*argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def paths(doc, path=()):
    """Every path into a JSON document, the root's first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, (*path, key))


def by_shape(doc) -> dict[tuple, list[tuple]]:
    """The paths into ``doc`` grouped by their keys, with every list index as ``*``.

    Drawing the group first gives each key of a record the same chance
    however long the arrays holding the record are.
    """
    groups: dict[tuple, list[tuple]] = {}
    for path in paths(doc):
        groups.setdefault(tuple("*" if type(k) is int else k for k in path), []).append(path)
    return groups


def mutate(text: str, groups: dict, data) -> str:
    """``text`` with one drawn mutation: drop a key, retype a value, shorten or reverse a list, or splice."""
    root = [json.loads(text)]
    path = data.draw(st.sampled_from(groups[data.draw(st.sampled_from(sorted(groups)))]))
    holder, key = root, 0
    for step in path:
        holder, key = holder[key], step
    value = holder[key]
    how = ["retype", "splice"]
    how += ["drop"] if isinstance(value, dict) and value else []
    how += ["shorten", "reverse"] if isinstance(value, list) and value else []
    how = data.draw(st.sampled_from(how))
    if how == "drop":
        del value[data.draw(st.sampled_from(sorted(value)))]
    elif how == "shorten":
        value.pop()
    elif how == "reverse":
        value.reverse()
    else:
        holder[key] = (0 if isinstance(value, str) else "x") if how == "retype" else data.draw(st.sampled_from(SPLICED))
    return json.dumps(root[0])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    scene = ("--family", "target_moved", "--seed", 0, "--delay", 1.0, "--frame-rate", 2)
    assert run("simulate", *scene, "--out-dir", d) == (0, "")
    assert run("build", "--stream", d / "stream.jsonl", "--out", d / "graph.json") == (0, "")
    assert run("config", "--out", d / "config.json") == (0, "")
    commands = [command_to_dict(c) for c in commands_from_scenario(read_scenario(d / "scenario.json"))]
    (d / "command.json").write_text(dumps(commands[0]))
    (d / "commands.json").write_text(dumps({"commands": commands}))
    return d


# per file: how many mutations to try, and the command lines that read the mutant
SOURCES = {
    "graph.json": (100, [
        "score --graph {mutant} --truth {d}/truth.json --scenario {d}/scenario.json",
        "query --graph {mutant} --command {d}/command.json",
    ]),
    "truth.json": (80, ["score --graph {d}/graph.json --truth {mutant} --scenario {d}/scenario.json"]),
    "command.json": (40, [
        "query --graph {d}/graph.json --command {mutant}",
        "export --graph {d}/graph.json --command {mutant}",
    ]),
    "commands.json": (40, ["score --graph {d}/graph.json --truth {d}/truth.json --commands {mutant}"]),
    "scenario.json": (80, [
        "simulate --scenario {mutant} --out-dir {d}/resimulated",
        "score --graph {d}/graph.json --truth {d}/truth.json --scenario {mutant}",
    ]),
    "config.json": (60, [
        "config --config {mutant} --out {d}/config-out.json",
        "export --graph {d}/graph.json --command {d}/command.json --config {mutant}",
        "score --graph {d}/graph.json --truth {d}/truth.json --commands {d}/commands.json --config {mutant}",
    ]),
    "stream.jsonl": (80, ["build --stream {mutant} --out {d}/built.json"]),
}


@pytest.mark.parametrize("name", SOURCES)
def test_a_mutated_input_file_gives_a_result_or_one_json_error(name, files):
    examples, commands = SOURCES[name]
    # a stream is mutated one line at a time; every other file as a whole
    texts = (files / name).read_text().splitlines() if name.endswith(".jsonl") else [(files / name).read_text()]
    groups = [by_shape(json.loads(text)) for text in texts]
    mutant = files / f"mutant-{name}"
    argvs = [line.format(d=files, mutant=mutant).split() for line in commands]

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def check(data):
        lines = list(texts)
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[k] = mutate(lines[k], groups[k], data)
        mutant.write_text("\n".join(lines) + "\n")
        for argv in argvs:
            code, err = run(*argv)
            assert code == 0 or (code == 1 and len(err.splitlines()) == 1), (argv, err)
            if code:
                assert set(json.loads(err)) == {"error", "message"}, err

    check()
