"""The linear kernel keeps the weight's own ``(out, in)`` layout and
computes ``W @ x.T`` through a stage; its bits must be those of the
``(in, out)`` form it replaced, ``x @ W.T`` with ``W.T`` packed
contiguous, on every head linear of the Table-1 models at the row counts
heads are bound at, and at 1 and 2 OpenBLAS threads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

# (in, out, relu) of every head linear in the Table-1 models: the
# hidden layer of Original / #1 (5376 -> 1024), #3 (7680 -> 2048) and
# #2 (7680 -> 4096), then each hidden width's class and box layers.
HEAD_LINEARS = [(5376, 1024, True), (7680, 2048, True), (7680, 4096, True)]
HEAD_LINEARS += [(hidden, out, False) for hidden in (1024, 2048, 4096)
                 for out in (2, 4)]
ROWS = (4, 8, 12, 16, 20)

# Prints the (in, out, rows) cases where kernels.linear differs from
# the reference formula in any bit.
PIN_CHECK = """
import json, sys
import numpy as np
from repro.engine.kernels import linear, pack_linear_weight

cases, rows_list = json.loads(sys.argv[1])
rng = np.random.default_rng(0)
differ = []
for fan_in, fan_out, relu in cases:
    weight = rng.standard_normal((fan_out, fan_in), dtype=np.float32)
    weight *= np.float32(fan_in ** -0.5)
    bias = rng.standard_normal(fan_out, dtype=np.float32)
    w_in_out = np.ascontiguousarray(weight.T)
    w_pack = pack_linear_weight(weight, np.dtype(np.float32))
    for rows in rows_list:
        x = rng.standard_normal((rows, fan_in), dtype=np.float32)
        ref = np.dot(x, w_in_out) + bias
        if relu:
            ref = np.maximum(ref, 0.0)
        out = np.empty((rows, fan_out), dtype=np.float32)
        stage = np.empty((fan_out, rows), dtype=np.float32)
        linear(x, w_pack, bias, out, relu, stage)
        if out.tobytes() != ref.tobytes():
            differ.append([fan_in, fan_out, rows])
    del weight, w_in_out, w_pack
print(json.dumps(differ))
"""


@pytest.fixture(scope="module")
def pin_checks():
    """``PIN_CHECK`` at 1 and at 2 OpenBLAS threads, one fresh process
    each, run one after the other (each holds three copies of a
    7680 x 4096 weight)."""
    src = str(Path(repro.__file__).parents[1])
    results = {}
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        results[threads] = subprocess.run(
            [sys.executable, "-c", PIN_CHECK,
             json.dumps([HEAD_LINEARS, ROWS])],
            env=env, text=True, capture_output=True, timeout=600)
    return results


@pytest.mark.parametrize("threads", [1, 2])
def test_linear_is_bitwise_the_in_out_formula(pin_checks, threads):
    proc = pin_checks[threads]
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
