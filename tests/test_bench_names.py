"""Every function the benchmark times or counts by name exists in the
program and is one its tracer wraps: a renamed function would otherwise
read 0 in a per-layer metric without failing anything."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tables(path: Path) -> dict[str, ast.expr]:
    """The module-level assignments of a file, by name, read without running it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)}


RUN = _tables(BENCH / "run.py")
TRACER = _tables(BENCH / "tracer.py")
LAYERS = ast.literal_eval(TRACER["LAYERS"])
EXTRA = ast.literal_eval(TRACER["EXTRA"])


def _names() -> list[str]:
    names = [n for names in ast.literal_eval(RUN["INCLUSIVE"]).values() for n in names]
    names += ast.literal_eval(RUN["CALLS"]).values()
    names += [ast.literal_eval(key) for key in TRACER["COUNTERS"].keys]
    return sorted(set(names))


def test_the_tables_name_functions():
    assert len(_names()) > 20


@pytest.mark.parametrize("name", _names())
def test_bench_name_resolves_to_a_traced_function(name):
    layer, *path = name.split(".")
    assert layer in LAYERS
    owner = importlib.import_module(f"oometrics.{layer}")
    for part in path[:-1]:
        owner = getattr(owner, part)
        assert inspect.isclass(owner) and not part.startswith("_"), name
    raw = vars(owner).get(path[-1])
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    assert inspect.isfunction(raw), f"{name} is not a function of the program"
    assert raw.__module__ == f"oometrics.{layer}", f"{name} is defined in {raw.__module__}"
    assert not path[-1].startswith("_") or (len(path) == 1 and path[-1] in EXTRA.get(layer, ())), (
        f"{name} is private, so the tracer does not wrap it"
    )
