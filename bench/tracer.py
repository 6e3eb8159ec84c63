"""Span tracing of the oometrics CLI from outside the program.

Run as a script, it executes one CLI command in process with every layer's
public functions wrapped in span recorders, and writes the spans to a file
when the command ends:

    PYTHONPATH=src python3 bench/tracer.py --spans S.json --stdout OUT -- analyze dir

Spans are kept in memory as columns of machine integers (so they add no work
for the garbage collector): the function's name index, start and end in
nanoseconds, and the index of the enclosing span (-1 at top level).  A span
always comes after its parent.  A layer is a module under ``src/oometrics``.
Functions are replaced wherever a module binds them, because callers import
by name (``report`` calls its own ``cbo``, not ``ck.cbo``).  No file of the
program changes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "cli", "javasrc", "halstead", "cfg", "model", "complexity", "cohesion",
    "ck", "qmood", "mood", "maintain", "quality", "report", "evolution",
)

# private functions that per-layer metrics name
EXTRA = {"cli": ("_load_input",)}

# accessors cheaper than a span; wrapping them would mostly time the tracer
SKIP = {"model.SystemModel.get"}


class SpanRecorder:
    """In-memory spans plus counters recorded at the same boundaries."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name: str, layer: str, count=None):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        clock, stack = self.clock, self._stack
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, result)
            return result

        return traced

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "layers": self.layers,
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counts": dict(self.counts),
        }


def _count_tokens(counts, toks):
    counts["javasrc.tokens"] += len(toks)


def _count_graph(counts, g):
    counts["cfg.nodes"] += g.node_count
    counts["cfg.edges"] += g.edge_count


def _count_model(counts, model):
    internal = model.internal_classes
    counts["model.classes"] += len(internal)
    counts["model.external_stubs"] += len(model) - len(internal)
    counts["model.methods"] += sum(len(c.member_functions) for c in internal)


def _count_pairs(counts, sets):
    m = len(sets)
    counts["cohesion.method_pairs"] += m * (m - 1) // 2


COUNTERS = {
    "javasrc.tokenize": _count_tokens,
    "cfg.build_cfg": _count_graph,
    "cfg.ControlFlowGraph.from_facts": _count_graph,
    "model.build_system_model": _count_model,
    "cohesion.method_attribute_sets": _count_pairs,
}


def _targets(modules: dict):
    """(layer, qualified name, owner, attribute, raw object) for every
    function and method to wrap."""
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
            if inspect.isfunction(obj) and public:
                yield layer, f"{layer}.{attr}", mod, attr, obj
            elif inspect.isclass(obj) and not attr.startswith("_"):
                for meth, raw in vars(obj).items():
                    if meth.startswith("_") or isinstance(raw, property):
                        continue
                    if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                        yield layer, f"{layer}.{attr}.{meth}", obj, meth, raw


def install(rec: SpanRecorder) -> None:
    """Wrap every layer's public functions and methods."""
    modules = {layer: importlib.import_module(f"oometrics.{layer}") for layer in LAYERS}
    everywhere = [m for name, m in sys.modules.items() if name == "oometrics" or name.startswith("oometrics.")]
    for layer, name, owner, attr, raw in list(_targets(modules)):
        if name in SKIP:
            continue
        count = COUNTERS.get(name)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(rec.wrap(raw.__func__, name, layer, count)))
        elif inspect.isclass(owner):
            setattr(owner, attr, rec.wrap(raw, name, layer, count))
        else:
            fn = rec.wrap(raw, name, layer, count)
            for mod in everywhere:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, fn)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    parser.add_argument("--stdout", required=True, help="where to write the command's stdout")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the oometrics arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    import oometrics.cli

    import_s = time.perf_counter() - t0
    rec = SpanRecorder()
    install(rec)
    out = io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = oometrics.cli.main(cli_args)
    main_s = time.perf_counter() - t1

    with open(args.stdout, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "spans": rec.to_dict()}, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
