"""The one JSON reader: its error mapping, and that no other module reads
JSON; and the script that counts the source's lines."""

import ast
import json
import sys
from pathlib import Path

import pytest

import rydock
from rydock import files
from rydock.errors import InputError

import count_src_lines

SRC = Path(rydock.__file__).resolve().parent


def test_read_names_the_file_for_every_malformed_input(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"a": [1, 2]}))
    assert files.read(path, lambda doc: doc["a"]) == [1, 2]
    for parse in (lambda doc: doc["b"], lambda doc: doc.get("a").keys(),
                  lambda doc: doc["a"][5], lambda doc: int(doc),
                  lambda doc: float("x")):
        with pytest.raises(InputError, match="doc.json"):
            files.read(path, parse)
    for bad in ("{nope", ""):
        path.write_text(bad)
        with pytest.raises(InputError, match="invalid JSON in .*doc.json"):
            files.read(path, dict)
    with pytest.raises(InputError, match="cannot read .*absent.json"):
        files.read(tmp_path / "absent.json", dict)
    with pytest.raises(InputError, match="cannot read"):
        files.read(tmp_path, dict)


def test_read_names_the_file_on_checks_made_while_decoding():
    path = Path(__file__).parents[1] / "fixtures" / "five_node.json"

    def parse(doc):
        raise InputError("a check of the parser's own")

    with pytest.raises(InputError) as info:
        files.read(path, parse)
    assert str(info.value) == f"{path}: a check of the parser's own"


def test_read_lines_skips_blank_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"k": 1}\n\n  \n{"k": 2}\n')
    assert files.read(path, lambda docs: [d["k"] for d in docs], lines=True) == [1, 2]
    path.write_text('{"k": 1}\n{"k": \n')
    with pytest.raises(InputError, match="log.jsonl"):
        files.read(path, list, lines=True)


def test_read_lines_reports_the_line_of_the_file(tmp_path):
    path = tmp_path / "log.jsonl"
    for text, line in (('{"k": 1}\n{"k": 2}\n{"k" 3}\n', 3),
                       ('{"k": 1}\n\n  \n{"k" 3}', 4)):
        path.write_text(text)
        with pytest.raises(InputError) as info:
            files.read(path, list, lines=True)
        assert str(info.value) == (f"invalid JSON in {path}: Expecting ':' delimiter: "
                                   f"line {line} column 6 (char {text.rindex('3')})")


def test_write_round_trips(tmp_path):
    path = tmp_path / "out.json"
    files.write(path, {"b": 1, "a": [0.5]})
    assert path.read_text() == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'
    assert files.read(path, dict) == {"a": [0.5], "b": 1}


def _json_reads_and_handlers(tree):
    """(line, what) of every json.load(s) call and every handler of
    JSONDecodeError or FileNotFoundError in a module's syntax tree."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("load", "loads")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            found.append((node.lineno, f"json.{node.func.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [(node.lineno, f"from json import {a.name}") for a in node.names
                      if a.name in ("load", "loads", "JSONDecodeError")]
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            for name in ast.walk(node.type):
                ident = getattr(name, "attr", getattr(name, "id", None))
                if ident in ("JSONDecodeError", "FileNotFoundError"):
                    found.append((node.lineno, f"except {ident}"))
    return found


def test_no_module_but_files_reads_json():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "files.py":
            continue
        for line, what in _json_reads_and_handlers(ast.parse(path.read_text())):
            # the model file stores its metadata as JSON bytes inside the npz
            if rel == "mlqaa/gcn.py" and what == "json.loads":
                continue
            offenders.append(f"{rel}:{line}: {what}")
    assert offenders == []


def test_the_scan_sees_what_it_forbids():
    code = (
        "import json\n"
        "def f(p):\n"
        "    try:\n"
        "        return json.load(open(p))\n"
        "    except (FileNotFoundError, json.JSONDecodeError):\n"
        "        return json.loads('{}')\n"
    )
    assert sorted(_json_reads_and_handlers(ast.parse(code))) == [
        (4, "json.load"), (5, "except FileNotFoundError"),
        (5, "except JSONDecodeError"), (6, "json.loads")]


def test_count_src_lines_splits_code_docstring_and_physical_lines(tmp_path, capsys,
                                                                  monkeypatch):
    # code 3, 6, 9, 10; docstrings 1, 7, 8; ten newlines, as `wc -l` counts
    source = ('"""Module doc."""\n\nimport os  # comment\n\n\ndef f():\n'
              '    """Function\n    doc."""\n    return (1,\n            2)\n')
    assert count_src_lines.count(source) == (4, 3, 10)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(source)
    (tmp_path / "b.py").write_text("x = 1\n# note\n")
    monkeypatch.setattr(sys, "argv", ["count_src_lines.py", str(tmp_path)])
    assert count_src_lines.main() == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["module", "code", "doc", "lines"],
        ["b.py", "1", "0", "2"],
        ["pkg/a.py", "4", "3", "10"],
        ["total", "5", "3", "12"],
    ]
