"""The engine starts no threads of its own: programs run their steps in
order on the calling thread, so a process that only compiled and ran
models can still fork its scan workers."""

import subprocess
import sys

SCRIPT = """
import multiprocessing as mp
import sys
import threading

import repro.engine
assert "concurrent.futures" not in sys.modules

import numpy as np
from repro.arch import TABLE1_MODELS
from repro.detect import SPPNetDetector
from repro.detect.scan import scan_origins
from repro.scanpar import default_start_method

rng = np.random.default_rng(0)
chips = rng.standard_normal((3, 4, 100, 100)).astype(np.float32)
raster = rng.standard_normal((4, 200, 200)).astype(np.float32)
origins = scan_origins(200, 100, 50)
for config in TABLE1_MODELS.values():
    compiled = repro.engine.compile(SPPNetDetector(config, seed=0).eval())
    compiled.predict(chips, batch_size=3)
    list(compiled.predict_windows(raster, origins, 100, batch_size=5))
assert threading.active_count() == 1
if "fork" in mp.get_all_start_methods():
    assert default_start_method() == "fork"
print("ok")
"""


def test_compiling_and_running_every_table1_model_starts_no_thread():
    done = subprocess.run([sys.executable, "-c", SCRIPT],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
