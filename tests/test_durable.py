"""`repro.durable.Log`, and the rule that keeps every durable write in
`repro.durable`: no other module fsyncs, truncates or appends to a file."""

import ast
import json
import os
import pathlib
import re

import pytest

import repro
from repro.durable import Log

HEADER = {"kind": "demo_log", "version": 1, "seed": 5}


class DemoError(RuntimeError):
    pass


def demo_log(path, **changes):
    return Log(path, {**HEADER, **changes}, error=DemoError)


class TestLog:
    @pytest.mark.parametrize("before", [None, b"", b"\n", b'{"kind": "de'],
                             ids=["missing", "empty", "blank", "torn"])
    def test_a_file_with_no_intact_line_gets_the_header(self, tmp_path,
                                                        before):
        path = tmp_path / "log.jsonl"
        if before is not None:
            path.write_bytes(before)
        assert demo_log(path).open() == []
        assert path.read_text() == json.dumps(HEADER) + "\n"

    def test_records_follow_the_header(self, tmp_path):
        log = demo_log(tmp_path / "log.jsonl")
        log.start()
        log.append([{"n": 0}, {"n": 1}])
        log.append([{"n": 2}])
        assert demo_log(log.path).open() == [{"n": 0}, {"n": 1}, {"n": 2}]
        assert log.replay() == (HEADER, [{"n": 0}, {"n": 1}, {"n": 2}])

    def test_start_truncates(self, tmp_path):
        log = demo_log(tmp_path / "log.jsonl")
        log.start()
        log.append([{"n": 0}])
        log.start()
        assert log.path.read_text() == json.dumps(HEADER) + "\n"

    def test_append_is_one_fsync(self, tmp_path, monkeypatch):
        log = demo_log(tmp_path / "log.jsonl")
        log.start()
        synced = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd), real(fd))[1])
        log.append([{"n": n} for n in range(5)])
        assert len(synced) == 1

    def test_a_mismatch_names_each_differing_key(self, tmp_path):
        path = tmp_path / "log.jsonl"
        demo_log(path).start()
        before = path.read_bytes()
        with pytest.raises(DemoError) as raised:
            demo_log(path, seed=6, extra=[1]).open()
        message = str(raised.value)
        assert message.startswith(f"{path}: written by a different run (")
        assert "seed: file 5, this run 6" in message
        assert "extra: file None, this run [1]" in message
        assert "version" not in message and "kind" not in message
        assert path.read_bytes() == before

    def test_another_kind_is_not_this_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        Log(path, {"kind": "other_log"}, error=DemoError).start()
        with pytest.raises(DemoError, match="not a demo log file"):
            demo_log(path).open()

    def test_header_is_compared_as_it_reads_back(self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert demo_log(path, space=(("a", (1, 2)),)).open() == []
        assert demo_log(path, space=(("a", (1, 2)),)).open() == []

    def test_corrupt_line_raises_the_callers_error(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(HEADER) + '\n{"n": \n{"n": 1}\n')
        with pytest.raises(DemoError, match="corrupt line 2"):
            demo_log(path).open()


#: ``(module, function)`` pairs allowed a durable write outside
#: ``repro.durable``: the torn-write injector
ALLOWED = {("faults.py", "tear_trailing_line")}
MODE = re.compile(r"[rwxabt+]+")


def _durable_writes(tree):
    """``(function, what)`` for every fsync, truncate and append-mode
    open in a module."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = where or node.name
        if isinstance(node, ast.Attribute) and node.attr == "O_APPEND":
            found.append((where, "O_APPEND"))
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name in ("fsync", "fdatasync", "truncate", "ftruncate"):
                found.append((where, name))
            if name == "open":
                modes = [a.value for a in node.args[:2]
                         + [k.value for k in node.keywords if k.arg == "mode"]
                         if isinstance(a, ast.Constant)
                         and isinstance(a.value, str)
                         and MODE.fullmatch(a.value)]
                found.extend((where, f"open({m!r})") for m in modes if "a" in m)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_durable_writes_durably():
    root = pathlib.Path(repro.__file__).parent
    stray = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        if module == "durable.py":
            continue
        stray += [f"{module}:{where}: {what}"
                  for where, what in _durable_writes(ast.parse(path.read_text()))
                  if (module, where) not in ALLOWED]
    assert not stray, ("durable writes belong in repro.durable (Log): "
                       f"{stray}")


def test_the_scan_sees_what_it_forbids():
    source = (
        "import os\n"
        "def a(p):\n    open(p, 'ab').write(b'x')\n"
        "def b(p):\n    fh = open(p, mode='a+')\n    os.fsync(fh.fileno())\n"
        "def c(fh):\n    fh.truncate(0)\n"
        "def d(p):\n    os.open(p, os.O_WRONLY | os.O_APPEND)\n"
        "def e(p):\n    open(p, 'w').write('fine')\n    open(p).read()\n"
    )
    assert _durable_writes(ast.parse(source)) == [
        ("a", "open('ab')"), ("b", "open('a+')"), ("b", "fsync"),
        ("c", "truncate"), ("d", "O_APPEND")]
