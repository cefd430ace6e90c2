"""The engine names the benchmark harness uses still resolve.

``perfbench/test_perfbench.py`` runs with the default ``testpaths``, but
it does not reach every engine name the harness files read, so a removal
from the engine could still break the benchmark unseen.  This reads every
harness file with ``ast`` and imports nothing from it.
"""

from __future__ import annotations

import ast
import functools
import importlib
from pathlib import Path

import pytest

import stovsg
from stovsg.model import SceneGraph4D

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _dotted(node: ast.expr) -> list[str] | None:
    """``["S", "store", "lift_mask"]`` for ``S.store.lift_mask``; None for anything but a name chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _engine_references(tree: ast.Module) -> list[tuple[str, list[str]]]:
    """(module, attribute path) for each ``from stovsg[.mod] import`` name and each ``S.<name>`` chain.

    A chain ``S.a.b`` is listed with each of its prefixes.
    """
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "stovsg"
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stovsg":
            out.extend((node.module, [alias.name]) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain and chain[0] in aliases:
                out.append((aliases[chain[0]], chain[1:]))
    return out


def test_the_harness_is_found():
    assert {p.name for p in SOURCES} >= {"spans.py", "workloads.py", "checks.py", "scenes.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_engine_name_the_harness_uses_resolves(path):
    references = _engine_references(_tree(path))
    missing = []
    for module, attrs in references:
        target = importlib.import_module(module)
        for k, attr in enumerate(attrs):
            if not hasattr(target, attr):
                missing.append(f"{module}.{'.'.join(attrs[: k + 1])}")
                break
            target = getattr(target, attr)
    assert missing == []


def _layer_tuples(tree: ast.Module) -> list[tuple[str, str]]:
    """``(module, function)`` of each entry of ``LAYERS`` and of the set-up ``layer``."""
    out = []
    for node in ast.walk(tree):
        names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if isinstance(node, ast.Assign) and {"LAYERS", "layer"} & set(names):
            entries = node.value.elts if isinstance(node.value.elts[0], ast.Tuple) else [node.value]
            out.extend((entry.elts[0].value, entry.elts[1].value) for entry in entries)
    return out


def test_every_traced_layer_resolves():
    layers = _layer_tuples(_tree(PERFBENCH / "spans.py"))
    assert len(layers) >= 20 and ("sim", "generate_stream") in layers
    missing = [f"{m}.{f}" for m, f in layers if not callable(getattr(getattr(stovsg, m, None), f, None))]
    assert missing == []


def test_what_the_harness_patches_is_still_there():
    # spans.instrument replaces these through the owner's __dict__
    assert isinstance(SceneGraph4D.__dict__["node_index"], functools.cached_property)
    assert callable(SceneGraph4D.__dict__["node"])
    assert "json" in vars(stovsg.formats)


def _make_scenario_keys(tree: ast.Module) -> list[list[str]]:
    """The keys of each dict literal passed as ``params`` to a ``make_scenario`` call."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (_dotted(node.func) or [""])[-1] == "make_scenario":
            params = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "params")]
            for arg in params:
                assert isinstance(arg, ast.Dict), f"line {node.lineno}: params is not a dict literal"
                out.append([key.value for key in arg.keys])
    return out


def test_the_harness_passes_make_scenario_only_keys_it_accepts():
    calls = [keys for path in SOURCES for keys in _make_scenario_keys(_tree(path))]
    assert len(calls) >= 3
    assert sorted({key for keys in calls for key in keys} - set(stovsg.sim.PARAMS)) == []
