"""`repro.blas`, the one module that reaches the BLAS, and what reads
it: the scan journal's header names the library, kernel and thread count
(a resume under another is refused), and pool workers run every shard
at the parent's count."""

import ast
import contextlib
import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.blas import blas_info, set_blas_threads
from repro.detect import scan_origins, scan_scene
from repro.engine import compile as engine_compile
from repro.robust import ScanJournalError
from repro.scanpar import get_pool, shutdown_pools

INFO = blas_info()
needs_threads = pytest.mark.skipif(
    INFO["threads"] is None, reason=f"no BLAS thread count: {INFO['why']}")


@contextlib.contextmanager
def blas_at(n):
    before = blas_info()["threads"]
    set_blas_threads(n)
    try:
        yield
    finally:
        set_blas_threads(before)


@pytest.fixture(scope="module")
def scene(watershed):
    return watershed(200)


class TestInfo:
    def test_names_the_library_and_its_count(self):
        info = blas_info()
        assert set(info) == {"library", "version", "kernel", "threads", "why"}
        if info["threads"] is None:
            assert info["why"]
        else:
            assert info["why"] is None
            assert "blas" in info["library"].lower()
            assert info["version"] and info["kernel"]

    @needs_threads
    def test_set_is_read_back_and_restored(self):
        before = blas_info()["threads"]
        with blas_at(1):
            assert blas_info()["threads"] == 1
        assert blas_info()["threads"] == before

    @pytest.mark.parametrize("bad", [0, -1, 1.0, True, "2"])
    def test_a_count_that_is_no_count_is_refused(self, bad):
        with pytest.raises(ValueError):
            set_blas_threads(bad)

    def test_names_numpys_blas_when_scipy_maps_its_own(self):
        """scipy bundles another OpenBLAS; with it mapped first, the
        library named and set is still the one numpy was built with."""
        script = (
            "import scipy.linalg, numpy\n"
            "from repro.blas import blas_info\n"
            "built = numpy.__config__.CONFIG['Build Dependencies']['blas']\n"
            "print(blas_info()['version'], built.get('version'))\n")
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=300, cwd=pathlib.Path(repro.__file__).parents[1])
        assert done.returncode == 0, done.stderr
        found, built = done.stdout.split()
        if built == "None":
            pytest.skip("numpy does not record its BLAS version")
        assert found == built

    def test_importing_repro_opens_nothing(self):
        """No module reads ``/proc`` or opens the library at import."""
        script = (
            "import builtins, importlib, io, pkgutil\n"
            "import numpy, scipy\n"
            "seen = []\n"
            "real = builtins.open\n"
            "def spy(file, *a, **k):\n"
            "    seen.append(str(file))\n"
            "    return real(file, *a, **k)\n"
            "builtins.open = io.open = spy\n"
            "import repro\n"
            "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if not m.name.endswith('__main__'):\n"
            "        importlib.import_module(m.name)\n"
            "builtins.open = io.open = real\n"
            "from repro import blas\n"
            "assert blas._library.cache_info().currsize == 0\n"
            "print([f for f in seen if f.startswith('/proc')])\n")
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=300, cwd=pathlib.Path(repro.__file__).parents[1])
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


@needs_threads
class TestJournal:
    KW = dict(window=100, stride=50, batch_size=4)

    def test_a_resume_under_another_count_is_refused(self, small_detector,
                                                     scene, tmp_path):
        path = tmp_path / "scan.jsonl"
        with blas_at(2):
            scan_scene(small_detector, scene, journal=path, **self.KW)
        before = path.read_bytes()
        assert json.loads(before.splitlines()[0])["blas"]["threads"] == 2
        with blas_at(1), pytest.raises(ScanJournalError) as raised:
            scan_scene(small_detector, scene, journal=path, resume=True,
                       **self.KW)
        message = str(raised.value)
        assert "blas: file {" in message and "'threads': 2" in message
        assert "'threads': 1" in message
        assert path.read_bytes() == before

    def test_a_header_without_blas_is_refused(self, small_detector, scene,
                                              tmp_path):
        """A journal written before the header named its BLAS: the six
        keys of the old header, and one tile.  It also predates the
        repair grid's key, which the refusal names first."""
        path = tmp_path / "scan.jsonl"
        path.write_text(
            '{"kind": "scan_header", "scene_size": 200, "bands": 4, '
            '"window": 100, "stride": 50, "confidence_threshold": 0.7, '
            '"backend": "engine"}\n'
            '{"kind": "tile", "index": 0, "origin": [0, 0], '
            '"status": "ok", "reason": null, "detections": []}\n')
        before = path.read_bytes()
        with pytest.raises(ScanJournalError,
                           match=r"written by a different run \(repair_cell: "
                                 r"file None, this run 50, blas: file None, "
                                 r"this run \{'library'"):
            scan_scene(small_detector, scene, journal=path, resume=True,
                       **self.KW)
        assert path.read_bytes() == before

    def test_the_header_names_the_blas_last(self, small_detector, scene,
                                            tmp_path):
        path = tmp_path / "scan.jsonl"
        scan_scene(small_detector, scene, journal=path, **self.KW)
        header = json.loads(path.read_text().splitlines()[0])
        assert list(header)[-1] == "blas"
        info = blas_info()
        assert header["blas"] == {k: info[k] for k in
                                  ("library", "version", "kernel", "threads")}


@pytest.fixture(scope="module")
def deployed(table1):
    return table1["SPP-Net #3"]


@pytest.fixture(scope="module")
def pool_spawned_at_two():
    """The shared pool, spawned fresh while the count is 2."""
    with blas_at(2):
        shutdown_pools()
        get_pool(2)
    yield
    shutdown_pools()


@needs_threads
def test_pooled_scan_is_the_inline_scan_at_each_count(
        deployed, scene, pool_spawned_at_two, blas_threads):
    """Two shards (9 origins at batch 4) on warm workers spawned at 2
    threads equal the inline scan bit for bit at 1 thread and at 2: the
    workers run at the parent's count, not at the one they started at."""
    kw = dict(window=100, stride=50, batch_size=4, confidence_threshold=0.0)
    inline = scan_scene(deployed, scene, n_workers=1, **kw)
    pooled = scan_scene(deployed, scene, n_workers=2, **kw)
    assert len(inline) > 0
    assert list(pooled) == list(inline)
    assert pooled.coverage == inline.coverage


@needs_threads
def test_the_count_moves_bits(deployed):
    """``predict_windows`` of the deployment model over a 600 px raster
    at 1 and at 2 threads: the reason the journal and the workers carry
    the count."""
    compiled = engine_compile(deployed)
    image = np.random.default_rng(600).random((4, 600, 600)).astype(np.float32)
    origins = scan_origins(600, 100, 50)
    runs = []
    for threads in (1, 2):
        with blas_at(threads):
            runs.append(b"".join(c.tobytes() + b.tobytes() for c, b in
                                 compiled.predict_windows(image, origins, 100)))
    if runs[0] == runs[1]:
        pytest.skip(f"{INFO['library']} ({INFO['kernel']}) gives the same "
                    f"bits at 1 and 2 threads")


#: the strings that name OpenBLAS's exports or its thread variable
BLAS_NAME = re.compile(r"openblas_\w*|OPENBLAS_NUM_THREADS")


def _blas_reaches(tree):
    """What in a module reaches the BLAS: a ``ctypes`` import, or a
    string constant (docstrings excepted) naming an OpenBLAS symbol or
    ``OPENBLAS_NUM_THREADS``."""
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names
                      if a.name.split(".")[0] == "ctypes"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "ctypes":
                found.append(f"from {node.module} import")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            found += [repr(m) for m in BLAS_NAME.findall(node.value)]
    return found


def test_only_blas_reaches_the_blas():
    root = pathlib.Path(repro.__file__).parent
    stray = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        if module != "blas.py":
            stray += [f"{module}: {what}"
                      for what in _blas_reaches(ast.parse(path.read_text()))]
    assert not stray, f"the BLAS belongs to repro.blas: {stray}"
    assert _blas_reaches(ast.parse((root / "blas.py").read_text()))


def test_the_scan_sees_what_it_forbids():
    source = (
        '"""Docstrings may say OPENBLAS_NUM_THREADS."""\n'
        "import ctypes\n"
        "import ctypes.util as u\n"
        "from ctypes import CDLL\n"
        "import os\n"
        "def f(n):\n"
        '    """Or scipy_openblas_get_config64_."""\n'
        "    os.environ['OPENBLAS_NUM_THREADS'] = str(n)\n"
        "    return f'scipy_openblas_set_num_threads{n}_'\n"
        "x = 'OpenBLAS, the library, is fine to name'\n"
    )
    assert _blas_reaches(ast.parse(source)) == [
        "import ctypes", "import ctypes.util", "from ctypes import",
        "'OPENBLAS_NUM_THREADS'", "'openblas_set_num_threads'"]
