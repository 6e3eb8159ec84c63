"""Finding and parsing source files: paths named twice or missing, and
parsing in a process pool with the same results and errors as in place."""

import json
import multiprocessing
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from helpers import random_model, write_facts
from oometrics import cli
from oometrics.cli import main
from oometrics.model import model_to_facts

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"

GOOD = "class {name} {{ int m(int x) {{ if (x > 0) {{ return g(x); }} return x + 1; }} int g(int y) {{ return y; }} }}"


def run(argv, capsys) -> tuple[int, str, str]:
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def force_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(cli, "_worker_count", lambda n_files: min(workers, n_files))


def mixed_dir(tmp_path, bad: dict[str, bytes]):
    for name in ("A", "C", "E", "G"):
        (tmp_path / f"{name}.java").write_text(GOOD.format(name=name), encoding="utf-8")
    for name, data in bad.items():
        (tmp_path / name).write_bytes(data)
    return tmp_path


def _die(path):
    os._exit(3)


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def test_a_source_file_named_twice_is_parsed_once(capsys):
    once = run(["analyze", FIXTURES / "metric_test"], capsys)
    twice = run(["analyze", FIXTURES / "metric_test", FIXTURES / "metric_test" / "CBO.java"], capsys)
    assert once[0] == 0  # it was exit 1: "class defined more than once"
    assert twice == once


def test_a_facts_file_named_twice_is_read_once(tmp_path, capsys):
    facts = tmp_path / "f.json"
    write_facts(model_to_facts(random_model(random.Random(4), n_classes=5)), facts)
    once = run(["analyze", facts], capsys)
    assert once[0] == 0
    # it was exit 1: "class defined more than once"
    assert run(["analyze", facts, "--facts", facts], capsys) == once
    assert run(["analyze", facts, tmp_path / "." / "f.json"], capsys) == once


def test_a_missing_source_path_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "nosuchdir"
    rc, out, err = run(["analyze", FIXTURES / "metric_test", missing], capsys)
    assert (rc, out) == (1, "")  # it was exit 0, the path silently ignored
    assert err == f"error: no such file or directory: {missing}\n"


def test_a_directory_named_like_a_source_file_is_descended_into(tmp_path, capsys):
    (tmp_path / "A.java").write_text(GOOD.format(name="A"), encoding="utf-8")
    (tmp_path / "Foo.java").mkdir()
    (tmp_path / "Foo.java" / "B.java").write_text(GOOD.format(name="B"), encoding="utf-8")
    rc, out, err = run(["analyze", tmp_path], capsys)
    assert (rc, err) == (0, "")  # it was exit 1: "Foo.java: cannot read: Is a directory"
    assert [c["name"] for c in json.loads(out)["classes"]] == ["A", "B"]


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_a_file_that_does_not_parse_is_a_parse_error_in_any_worker_count(workers, tmp_path, capsys, monkeypatch):
    force_workers(monkeypatch, workers)
    src = mixed_dir(tmp_path, {"D.java": b"class D {\n  void m() {\n"})
    rc, out, err = run(["analyze", src], capsys)
    assert rc == 2
    assert json.loads(out)["parseErrors"] == [f"{src / 'D.java'}: line 2: expected }}"]
    assert err == f"parse error: {src / 'D.java'}: line 2: expected }}\n"
    assert [c["name"] for c in json.loads(out)["classes"]] == ["A", "C", "E", "G"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_a_file_that_is_not_utf8_is_an_input_error_naming_the_first(workers, tmp_path, capsys, monkeypatch):
    force_workers(monkeypatch, workers)
    src = mixed_dir(tmp_path, {"B.java": b"class B { }", "D.java": b"class D { \xff }", "F.java": b"\xfe"})
    rc, out, err = run(["analyze", src], capsys)
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: {src / 'D.java'}: 'utf-8' codec can't decode byte 0xff")
    assert "F.java" not in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_a_file_that_cannot_be_read_is_an_input_error_naming_it(workers, tmp_path, capsys, monkeypatch):
    force_workers(monkeypatch, workers)
    src = mixed_dir(tmp_path, {})
    (src / "Broken.java").symlink_to(src / "Gone.java")  # a dangling link
    rc, out, err = run(["analyze", src], capsys)
    assert (rc, out) == (1, "")  # it was a FileNotFoundError traceback
    assert err == f"error: {src / 'Broken.java'}: cannot read: No such file or directory\n"
    assert multiprocessing.active_children() == []


def test_a_dead_worker_is_an_input_error_not_a_traceback(tmp_path, capsys, monkeypatch):
    force_workers(monkeypatch, 2)
    monkeypatch.setattr(cli, "_parse_file", _die)
    rc, out, err = run(["analyze", mixed_dir(tmp_path, {})], capsys)
    assert (rc, out) == (1, "")
    assert err == "error: a source-parsing worker process ended abruptly\n"
    assert multiprocessing.active_children() == []


def test_no_pool_for_facts_a_single_file_or_a_threaded_process(tmp_path, capsys, monkeypatch):
    def forbidden(files, workers):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(cli, "_parse_in_pool", forbidden)
    facts = tmp_path / "facts.json"
    write_facts(model_to_facts(random_model(random.Random(3), n_classes=5)), facts)
    one = tmp_path / "one"
    one.mkdir()
    (one / "A.java").write_text(GOOD.format(name="A"), encoding="utf-8")
    assert run(["analyze", "--facts", facts], capsys)[0] == 0
    assert run(["analyze", facts], capsys)[0] == 0
    assert run(["analyze", one], capsys)[0] == 0
    assert run(["scatter", one], capsys)[0] == 0

    many = tmp_path / "many"
    many.mkdir()
    mixed_dir(many, {})
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert run(["analyze", many], capsys)[0] == 0  # forking with another thread can deadlock
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_parsing_in_place_imports_no_pool_machinery(tmp_path):
    (tmp_path / "A.java").write_text(GOOD.format(name="A"), encoding="utf-8")
    code = (
        "import sys\n"
        "from oometrics.cli import main\n"
        f"rc = main(['analyze', {str(tmp_path)!r}, '--format', 'text'])\n"
        "sys.exit(rc if not {'multiprocessing', 'concurrent.futures'} & set(sys.modules) else 99)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
