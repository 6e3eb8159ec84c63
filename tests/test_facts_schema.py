"""The facts schema: every facts record is read and checked through one
table, on every route that reads one; every error names its file, and every
document the tool writes passes the table."""

import copy
import json
import random
from pathlib import Path

import pytest

from helpers import cfg_with_v, class_rec, method_rec, random_hierarchy, random_model, readme_facts, write_facts
from oometrics.cli import main
from oometrics.errors import UnknownClass
from oometrics.javasrc import parse_source
from oometrics.model import (
    FACTS_SCHEMA, PRIMITIVE_TYPES, build_system_model, facts_to_model, load_facts, model_to_facts,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _with_class(**changes) -> dict:
    rec = class_rec("p.A", methods=[method_rec("m", params=["int"], cfg=cfg_with_v(2))])
    rec.update(changes)
    return {"classes": [class_rec("p.Ok"), rec]}


def _with_method(**changes) -> dict:
    rec = method_rec("m", params=["int"], cfg=cfg_with_v(2))
    rec.update(changes)
    return {"classes": [class_rec("p.Ok"), class_rec("p.A", methods=[rec])]}


# each shape once ended in a raw traceback, or in exit 0 with a wrong report
MALFORMED = {
    "no_name": ({"classes": [class_rec("p.Ok"), {"kind": "class"}]}, "classes[1]: class needs 'name'"),
    "empty_invocation": (_with_method(invokes=[{}]), "p.A.m(int): invokes[0]: invocation needs 'target'"),
    "classes_a_string": ({"classes": "x"}, "classes 'x' is not a list"),
    "top_level_list": ([{"name": "p.A"}], "document [{'name': 'p.A'}] is not an object"),
    "method_lines_many": (_with_method(lines="many"), "p.A.m(int): lines 'many' is not an integer"),
    "count_a_string": (_with_method(invokes=[{"target": "p.Ok.x", "count": "x"}]),
                       "p.A.m(int): invokes p.Ok.x: count 'x' is not an integer"),
    "invocations_for_invokes": (_with_method(invocations=[{"target": "p.Ok.x"}]),
                                "p.A.m(int): method has no key 'invocations'"),
    "param_types_a_string": (_with_method(paramTypes="int"), "p.A.m(?): paramTypes 'int' is not a list"),
    "extends_a_string": (_with_class(extends="p.Ok"), "p.A: extends 'p.Ok' is not a list"),
    "class_a_number": ({"classes": [1]}, "classes[0]: class 1 is not an object"),
    # a record the model rejects names its file too
    "duplicate_signature": (_with_class(methods=[method_rec("m", params=["int"]), method_rec("m", params=["int"])]),
                            "p.A.m(int): duplicate method signature"),
}


def _route(command: str, tmp_path: Path, doc) -> tuple[list[str], Path]:
    """Argv that reads ``doc`` as its last facts file, next to good ones."""
    good = tmp_path / "good.json"
    write_facts({"classes": [class_rec("p.Ok"), class_rec("p.A")]}, good)
    other = tmp_path / "other.json"  # declares no class that ``doc`` declares
    write_facts({"classes": [class_rec("q.Other")]}, other)
    history = tmp_path / "hist"
    history.mkdir()
    write_facts({"classes": [class_rec("p.Ok")]}, history / "v1.json")
    bad = history / "v2.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    argv = {
        "analyze": ["analyze", "--facts", str(bad)],
        "evolve": ["evolve", "--history", str(history)],
        "compare": ["compare", str(good), str(good), "--baseline", str(bad)],
        # two classes are too few to fit a baseline to: the builds are read first
        "compare_later": ["compare", str(good), str(bad), "--baseline", str(good)],
        # one build from two files
        "analyze_merged": ["analyze", str(other), str(bad)],
    }[command]
    return argv, bad


@pytest.mark.parametrize("command", ["analyze", "analyze_merged", "evolve", "compare", "compare_later"])
@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_a_malformed_facts_document_exits_1_naming_file_class_method_and_key(shape, command, tmp_path, capsys):
    doc, message = MALFORMED[shape]
    argv, bad = _route(command, tmp_path, doc)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message} (in {bad})\n"


# ---------------------------------------------------------------------------
# random damage: any document either loads or exits 1, never a traceback
# ---------------------------------------------------------------------------

ODD_VALUES = [None, True, False, -1, 0, 2.5, "x", "", [], {}, [1], ["x"], {"x": 1}, [[0, 1]]]


def _places(node):
    """Every (container, key) in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in list(items):
        yield node, key
        yield from _places(child)


def _mutate(doc, rng: random.Random):
    """One random damage: drop, retype or rename a key, or wrap or unwrap
    a value in a list."""
    places = list(_places(doc))
    if not places:
        return [doc] if rng.random() < 0.5 else copy.deepcopy(rng.choice(ODD_VALUES))
    node, key = rng.choice(places)
    op = rng.choice(("drop", "retype", "rename", "wrap", "unwrap"))
    if op == "drop":
        del node[key]
    elif op == "retype":
        node[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    elif op == "rename" and isinstance(node, dict):
        node[rng.choice(["name", "kind", "invokes", "invocations", "Lines", key + "s", "nodes"])] = node.pop(key)
    elif op == "wrap":
        node[key] = [node[key]]
    elif op == "unwrap" and isinstance(node[key], list) and node[key]:
        node[key] = node[key][0]
    return doc


def test_randomly_damaged_documents_exit_0_or_1_without_a_traceback(tmp_path, capsys):
    rng = random.Random(1313)
    codes = []
    for trial in range(45):
        doc = model_to_facts(random_model(random.Random(trial), n_classes=4, max_methods=3, max_attrs=2))
        for _ in range(rng.randrange(1, 4)):
            doc = _mutate(doc, rng)
        work = tmp_path / str(trial)
        work.mkdir()
        command = ("analyze", "evolve", "compare")[trial % 3]
        argv, _ = _route(command, work, doc)
        try:
            rc = main(argv)
        except Exception as exc:  # what would reach the user as a traceback
            pytest.fail(f"{command} on {json.dumps(doc)[:300]}: {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert rc in (0, 1, 2) and "Traceback" not in err, (command, err)
        codes.append(rc)
    assert 1 in codes  # the damage reaches the schema


# ---------------------------------------------------------------------------
# the writer and the schema agree
# ---------------------------------------------------------------------------


def _written_documents():
    records = [
        rec for f in sorted(FIXTURES.glob("*/*.java"))
        for rec in parse_source(f.read_text(encoding="utf-8"), f.name).classes
    ]
    yield "fixtures", model_to_facts(build_system_model(records))
    for seed in range(30):
        yield f"random_model {seed}", model_to_facts(random_model(random.Random(seed)))
        yield f"random_hierarchy {seed}", model_to_facts(random_hierarchy(random.Random(seed)))


def test_every_document_the_writer_makes_passes_the_schema_unchanged():
    for what, doc in _written_documents():
        before = copy.deepcopy(doc)
        facts_to_model(doc)
        assert doc == before, what


def test_analyze_out_writes_facts_the_schema_accepts(tmp_path, capsys):
    assert main(["analyze", str(FIXTURES / "metric_test"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = json.loads((tmp_path / "facts.json").read_text(encoding="utf-8"))
    assert load_facts(tmp_path / "facts.json") == written["classes"]


def test_the_readme_facts_example_builds_and_uses_every_key_of_the_table():
    doc = readme_facts()
    model = facts_to_model(doc)
    assert model.externals == ("pkg.Base", "pkg.Other")
    assert [c.name for c in model.internal_classes] == ["pkg.Cls"]
    cls = doc["classes"][0]
    method = cls["methods"][0]
    for level, records in [("document", [doc]), ("class", [cls]), ("attribute", cls["attributes"]),
                           ("method", [method]), ("invocation", method["invokes"])]:
        for rec in records:
            assert list(rec) == list(FACTS_SCHEMA[level]), level


# ---------------------------------------------------------------------------
# library classes are names in ``externals``, never classes of the model
# ---------------------------------------------------------------------------


def _references(model) -> set[str]:
    """Every type the system classes refer to, as the model holds it."""
    refs = set()
    for info in model.internal_classes:
        refs.update(info.superclasses)
        refs.update(a.declared_type for a in info.attributes)
        for m in info.methods:
            refs.update(m.parameter_types)
            refs.update(inv.target_class for inv in m.invocations)
            refs.update(owner for owner, _ in m.accessed_attributes)
    return {r for r in refs if r.strip() and r.strip() not in PRIMITIVE_TYPES}


def test_library_classes_are_sorted_names_outside_the_model():
    models = [random_model(random.Random(seed)) for seed in range(30)]
    models += [random_hierarchy(random.Random(seed)) for seed in range(30)]
    models.append(facts_to_model(readme_facts()))
    models.append(build_system_model([  # A is ambiguous: p.A and q.A
        class_rec("p.A"), class_rec("q.A"),
        class_rec("r.C", extends=["A"], methods=[method_rec("m", params=["A"], invokes=[("A.go", 1)])]),
    ]))
    assert models[-1].externals == ("A",)
    assert sum(bool(m.externals) for m in models) > 40
    for model in models:
        names, externals = model.internal_class_names, model.externals
        assert list(externals) == sorted(set(externals))
        assert not set(externals) & set(names)
        assert set(externals) == _references(model) - set(names)  # every unresolved reference, nothing else
        for stub in externals:
            assert stub not in model
            with pytest.raises(UnknownClass):
                model.get(stub)
        for c in names:
            assert model.coupling[c].used <= set(names)


def test_kiviat_of_a_library_class_is_an_unknown_class(tmp_path, capsys):
    path = tmp_path / "facts.json"
    write_facts({"classes": [class_rec("app.A", extends=["java.util.List"])]}, path)
    assert main(["kiviat", "--facts", str(path), "--class-name", "java.util.List"]) == 1
    assert "unknown class: java.util.List" in capsys.readouterr().err
