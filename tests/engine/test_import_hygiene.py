"""Inference imports only what it runs.  Scene synthesis (``repro.geo``,
``repro.hydro``) needs ``scipy.ndimage`` and imports it inside the
functions that call it, and the detectors name ``repro.geo`` types only
in annotations, so a process that only loads, compiles and scans — a
pool worker, a service, a resumed scan — never pays the 0.4 s of scipy
nor loads the data substrate, the GPU simulator or the profiler.  A
fleet sweep takes its retry policy from ``repro.retry``, so it loads
none of the search, simulation and scheduling packages either."""

import subprocess
import sys

SCRIPT = """
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import repro.detect
import repro.engine
import repro.robust
import repro.scanpar
import repro.serve
assert "scipy" not in sys.modules, "import pulled in scipy"

import numpy as np
from repro.arch import TABLE1_MODELS
from repro.detect import SPPNetDetector, scan_origins, scan_scene

model = SPPNetDetector(TABLE1_MODELS["SPP-Net #3"], seed=0).eval()
compiled = repro.engine.compile(model)
raster = np.random.default_rng(0).standard_normal(
    (4, 227, 227)).astype(np.float32)
origins = scan_origins(227, 100, 50)
assert compiled.window_plan(raster.shape, 100, origins).edge_windows == 7
list(compiled.predict_windows(raster, origins, 100, batch_size=5))
scene = SimpleNamespace(image=raster, size=227)     # no repro.geo Scene
scan_scene(model, scene, batch_size=5)
with tempfile.TemporaryDirectory() as tmp:
    scan_scene(model, scene, batch_size=5, journal=Path(tmp) / "scan.jsonl")
assert "scipy" not in sys.modules, "compiling or scanning pulled in scipy"
loaded = sorted({name.split(".")[1] for name in sys.modules
                 if name.startswith("repro.")})
unused = {"geo", "hydro", "gpusim", "profiling"}.intersection(loaded)
assert not unused, f"importing, compiling or scanning loaded {sorted(unused)}"
print("ok")
"""


def test_importing_compiling_and_scanning_leave_scipy_out():
    done = subprocess.run([sys.executable, "-c", SCRIPT],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


FLEET_SCRIPT = """
import sys

import repro.fleet
loaded = {name.split(".")[1] for name in sys.modules
          if name.startswith("repro.")}
unused = {"nas", "gpusim", "ios", "graph"}.intersection(loaded)
assert not unused, f"importing repro.fleet loaded {sorted(unused)}"
print("ok")
"""


def test_importing_the_fleet_leaves_search_and_simulation_out():
    done = subprocess.run([sys.executable, "-c", FLEET_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


ROBUST_SCRIPT = """
import sys

import repro.robust
loaded = sorted(name for name in sys.modules if name.startswith("repro.serve"))
assert not loaded, f"importing repro.robust loaded {loaded}"
print("ok")
"""


def test_importing_the_guard_leaves_the_service_out():
    """The guard answers or raises; what the service does with a fault
    (retry, fail the futures) is the service's, so ``repro.robust``
    loads nothing of ``repro.serve``."""
    done = subprocess.run([sys.executable, "-c", ROBUST_SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
