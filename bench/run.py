"""oometrics benchmark: run the CLI the way users run it and check every report.

    python3 bench/run.py --workload source_corpus --seed 1 --seconds 20 --trace 0

Set-up generates the workload's inputs from ``--seed``; it runs again before
every untraced pass after the first, which times it and checks that it is
deterministic.  Passes over the workload's commands repeat for ``--seconds``.
A pass runs each command as its own ``python -m oometrics.cli`` child
process, one at a time, and checks the exit code, stderr and the oracle of
every report.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` untraced passes alternate with traced ones (``tracer.py``) and
the last line carries the per-layer metrics instead.  Lines before it give
each metric with its unit and sample count, the failed share, and the sha256
of each command's report as a determinism fingerprint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402  (bench/ is on sys.path as the script's directory)

RUN_LIMIT_S = 170  # every command is killed once the run gets this old
TRACEBACK = b"Traceback (most recent call last)"

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "classes_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; how each is computed is in layer_metrics()
LAYER_UNITS = {
    "cli.import_s": "s", "cli.load_input_s": "s", "cli.self_s": "s",
    "javasrc.tokenize_s": "s", "javasrc.parse_s": "s", "javasrc.tokens": "count",
    "javasrc.tokens_per_s": "1/s", "javasrc.self_s": "s",
    "halstead.count_s": "s", "halstead.methods": "count",
    "cfg.nodes": "count", "cfg.edges": "count", "cfg.validate_calls": "count", "cfg.self_s": "s",
    "model.load_facts_s": "s", "model.build_s": "s", "model.classes": "count",
    "model.methods": "count", "model.external_stubs": "count", "model.self_s": "s",
    "complexity.cyclomatic_calls": "count", "complexity.essential_s": "s",
    "complexity.module_design_s": "s", "complexity.self_s": "s",
    "cohesion.s": "s", "cohesion.method_pairs": "count",
    "ck.s": "s", "qmood.s": "s", "qmood.class_metrics_calls": "count", "mood.s": "s",
    "maintain.sig_s": "s", "maintain.duplication_s": "s", "maintain.mi_s": "s", "maintain.self_s": "s",
    "quality.s": "s",
    "report.compute_s": "s", "report.class_record_s": "s", "report.serialize_s": "s",
    "report.bytes": "count", "report.self_s": "s",
    "evolution.history_s": "s", "evolution.churn_s": "s", "evolution.self_s": "s",
    "trace.overhead_share": "share",
}

# inclusive-time metrics: time inside any of these functions, each interval
# counted once even where they nest (weighted_enom also runs inside yw_rank)
INCLUSIVE = {
    "cli.load_input_s": ("cli._load_input",),
    "javasrc.tokenize_s": ("javasrc.tokenize",),
    "javasrc.parse_s": ("javasrc.parse_source",),
    "model.load_facts_s": ("model.load_facts",),
    "model.build_s": ("model.build_system_model",),
    "complexity.essential_s": ("complexity.essential",),
    "complexity.module_design_s": ("complexity.module_design",),
    "maintain.sig_s": ("maintain.sig_rating",),
    "maintain.duplication_s": ("maintain.duplication_percent",),
    "maintain.mi_s": ("maintain.maintainability_index",),
    "report.compute_s": ("report.compute_report",),
    "report.class_record_s": ("report.compute_class_record",),
    "report.serialize_s": ("report.serialize_report",),
    "evolution.history_s": ("evolution.yw_rank", "evolution.weighted_enom"),
    "evolution.churn_s": ("evolution.fit_churn_baseline", "evolution.score_build", "evolution.churn_compare"),
}

# self time of the whole layer
SELF = {
    "cli.self_s": "cli", "javasrc.self_s": "javasrc", "halstead.count_s": "halstead",
    "cfg.self_s": "cfg", "model.self_s": "model", "complexity.self_s": "complexity",
    "cohesion.s": "cohesion", "ck.s": "ck", "qmood.s": "qmood", "mood.s": "mood",
    "maintain.self_s": "maintain", "quality.s": "quality", "report.self_s": "report",
    "evolution.self_s": "evolution",
}

CALLS = {
    "halstead.methods": "halstead.halstead_counts",
    "cfg.validate_calls": "cfg.ControlFlowGraph.validate",
    "complexity.cyclomatic_calls": "complexity.cyclomatic",
    "qmood.class_metrics_calls": "qmood.qmood_class_metrics",
}

COUNTS = ("javasrc.tokens", "cfg.nodes", "cfg.edges", "model.classes", "model.methods",
          "model.external_stubs", "cohesion.method_pairs")


class Runner:
    """Runs one workload's commands and keeps every sample and problem."""

    def __init__(self, workload: workloads.Workload, inputs: Path, out: Path, started: float):
        self.workload = workload
        self.inputs = inputs
        self.out = out
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.shas: dict[str, set[str]] = {c.name: set() for c in workload.commands}
        self.passes = 0

    def _spawn(self, argv: list[str], tag: str, hash_seed: int):
        """Run one child to completion: (exit code, wall s, rusage)."""
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
        limit = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(self.out / f"{tag}.stdout", "wb") as out, open(self.out / f"{tag}.stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.inputs, env=env, stdout=out, stderr=err)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def _check(self, cmd: workloads.Command, tag: str, rc: int, report: Path) -> tuple[list[str], bytes]:
        """Problems with one command's result, and its report."""
        stdout = report.read_bytes() if report.is_file() else b""
        if rc != 0:
            return [f"exit code {rc}"], stdout
        if TRACEBACK in (self.out / f"{tag}.stderr").read_bytes():
            return ["traceback on stderr"], stdout
        try:
            return cmd.check(json.loads(stdout)), stdout
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return [f"report unreadable by the oracle: {exc!r}"], stdout

    def _record(self, cmd: workloads.Command, problems: list[str], stdout: bytes) -> None:
        self.attempted += 1
        sha = hashlib.sha256(stdout).hexdigest()
        if not problems and self.shas[cmd.name] and sha not in self.shas[cmd.name]:
            problems = [f"report sha {sha[:12]} differs from an earlier pass"]
        self.shas[cmd.name].add(sha)
        if problems:
            self.failed += 1
            self.problems.extend(f"{self.workload.name}/{cmd.name}: {p}" for p in problems[:5])

    def run_pass(self) -> dict:
        """One untraced pass: wall, CPU, peak RSS and classes reported."""
        sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "classes": 0}
        for cmd in self.workload.commands:
            tag = f"{cmd.name}.untraced"
            argv = [sys.executable, "-m", "oometrics.cli", *cmd.argv]
            rc, wall, usage = self._spawn(argv, tag, self.passes)
            problems, stdout = self._check(cmd, tag, rc, self.out / f"{tag}.stdout")
            self._record(cmd, problems, stdout)
            sample["wall_s"] += wall
            sample["cpu_s"] += usage.ru_utime + usage.ru_stime
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], usage.ru_maxrss * 1024 / 1e6)  # KiB on Linux
            sample["classes"] += _classes_in(stdout) if not problems else 0
        self.passes += 1
        return sample

    def run_traced_pass(self) -> dict:
        """One traced pass: per-layer metrics from the spans of each command."""
        runs = []
        for cmd in self.workload.commands:
            tag = f"{cmd.name}.traced"
            spans_path = self.out / f"{tag}.spans.json"
            report = self.out / f"{tag}.report"
            argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans_path),
                    "--stdout", str(report), "--", *cmd.argv]
            rc, wall, _ = self._spawn(argv, tag, self.passes)
            problems, stdout = self._check(cmd, tag, rc, report)
            self._record(cmd, problems, stdout)
            if rc == 0:
                doc = json.loads(spans_path.read_text(encoding="utf-8"))
                runs.append({"doc": doc, "wall_s": wall, "stdout_bytes": len(stdout)})
        self.passes += 1
        return {"wall_s": sum(r["wall_s"] for r in runs), "runs": runs}


def _classes_in(stdout: bytes) -> int:
    classes = json.loads(stdout).get("classes")
    return len(classes) if isinstance(classes, list) else 0


def inclusive_time(spans: dict, names: tuple[str, ...]) -> float:
    """Seconds inside spans of functions ``names`` that no other such span
    encloses."""
    wanted = {i for i, n in enumerate(spans["names"]) if n in names}
    name, parent = spans["name"], spans["parent"]
    total = 0
    for i, nid in enumerate(name):
        if nid not in wanted:
            continue
        up = parent[i]
        while up >= 0 and name[up] not in wanted:
            up = parent[up]
        if up < 0:
            total += spans["end_ns"][i] - spans["start_ns"][i]
    return total / 1e9


def self_times(spans: dict) -> Counter:
    """Seconds per layer: span durations minus the time their child spans cover."""
    dur = [e - s for s, e in zip(spans["start_ns"], spans["end_ns"])]
    own = list(dur)
    for i, up in enumerate(spans["parent"]):
        if up >= 0:
            own[up] -= dur[i]
    out: Counter = Counter()
    layers = spans["layers"]
    for nid, t in zip(spans["name"], own):
        out[layers[nid]] += t / 1e9
    return out


def layer_metrics(runs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``runs``: one entry per command),
    all but ``trace.overhead_share``."""
    m: Counter = Counter()
    calls: Counter = Counter()
    selfs: Counter = Counter()
    counts: Counter = Counter()
    for run in runs:
        spans = run["doc"]["spans"]
        for key, names in INCLUSIVE.items():
            m[key] += inclusive_time(spans, names)
        selfs.update(self_times(spans))
        calls.update({spans["names"][nid]: n for nid, n in Counter(spans["name"]).items()})
        counts.update(spans["counts"])
        m["report.bytes"] += run["stdout_bytes"]
    for key, layer in SELF.items():
        m[key] = selfs[layer]
    for key, name in CALLS.items():
        m[key] = calls[name]
    for key in COUNTS:
        m[key] = counts[key]
    m["cli.import_s"] = statistics.median(r["doc"]["import_s"] for r in runs) if runs else 0.0
    m["javasrc.tokens_per_s"] = m["javasrc.tokens"] / m["javasrc.tokenize_s"] if m["javasrc.tokenize_s"] else 0.0
    return dict(m)


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def generate(name: str, seed: int, inputs: Path, helpers) -> tuple[workloads.Workload, float, str]:
    """Write fresh inputs: the workload, set-up seconds and a digest of the files."""
    shutil.rmtree(inputs, ignore_errors=True)
    t0 = time.perf_counter()
    wl = workloads.build(name, seed, inputs, helpers)
    return wl, time.perf_counter() - t0, tree_digest(inputs)


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "oometrics" / "cli.py", workloads.HELPERS_PATH) if not p.is_file()]
    if missing:
        print("error: the benchmark needs the oometrics sources; missing " + ", ".join(map(str, missing)),
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    base = WORK / args.workload
    inputs, out = base / "inputs", base / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    helpers = workloads.load_helpers()
    wl, seconds, digest = generate(args.workload, args.seed, inputs, helpers)
    setup_times, digests = [seconds], {digest}
    runner = Runner(wl, inputs, out, started)
    # compile the program's bytecode once, as an installed package would have it
    subprocess.run([sys.executable, "-c", "import oometrics.cli"], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    # The machine's speed drifts over tens of seconds, so set-up is sampled
    # again before every untraced pass rather than only at the start; a pass
    # starts only if one more cycle fits before the deadline.
    samples, traced, cycles = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        if args.trace and len(traced) < len(samples):
            t = runner.run_traced_pass()
            traced.append({"wall_s": t["wall_s"], "metrics": layer_metrics(t["runs"])})  # drop the spans
        else:
            if samples:
                _, seconds, digest = generate(args.workload, args.seed, inputs, helpers)
                setup_times.append(seconds)
                digests.add(digest)
            samples.append(runner.run_pass())
        cycles.append(time.perf_counter() - t0)
        if (traced or not args.trace) and time.perf_counter() + statistics.median(cycles) > deadline:
            break
    if len(digests) != 1:
        runner.problems.append(f"set-up wrote {len(digests)} different input sets for one seed")

    correct = runner.failed == 0 and not runner.problems
    for p in runner.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(samples)} untraced passes, "
          f"{len(traced)} traced, {len(setup_times)} set-ups, correct={correct}")
    for name, shas in runner.shas.items():
        print(f"  sha256 {name}: {' '.join(sorted(shas))}")
    print(f"  failed_share {runner.failed / runner.attempted:.4f} ({runner.failed} of {runner.attempted} commands)")

    per_pass = [t["metrics"] for t in traced]
    if args.trace:
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in LAYER_UNITS
                   if k != "trace.overhead_share"}
        metrics["trace.overhead_share"] = _median(traced, "wall_s") / _median(samples, "wall_s") - 1
        units, n = LAYER_UNITS, len(traced)
    else:
        for s in samples:
            s["classes_per_s"] = s["classes"] / s["wall_s"]
        metrics = {k: _median(samples, k) for k in ("wall_s", "cpu_s", "classes_per_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setup_times)
        units, n = E2E_UNITS, len(samples)
    for key in units:
        count = len(setup_times) if key == "setup_s" else n
        print(f"  {key:28s} {metrics[key]:14.6f} {units[key]:6s} median of {count}")

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (base / "result.json").write_text(json.dumps(
        dict(result, workload=args.workload, seed=args.seed, samples=samples,
             traced=per_pass, setup_times=setup_times,
             shas={k: sorted(v) for k, v in runner.shas.items()}, problems=runner.problems),
        indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
