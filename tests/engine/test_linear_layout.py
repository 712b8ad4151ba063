"""The linear kernel keeps the weight's own ``(out, in)`` layout and
computes ``W @ x.T`` through a stage; its bits must be those of the
``(in, out)`` form it replaced, ``x @ W.T`` with ``W.T`` packed
contiguous, on every head linear of the Table-1 models at the row counts
heads are bound at, and at 1 and 2 OpenBLAS threads."""

import numpy as np

from repro.engine.kernels import linear, pack_linear_weight

# (in, out, relu) of every head linear in the Table-1 models: the
# hidden layer of Original / #1 (5376 -> 1024), #3 (7680 -> 2048) and
# #2 (7680 -> 4096), then each hidden width's class and box layers.
HEAD_LINEARS = [(5376, 1024, True), (7680, 2048, True), (7680, 4096, True)]
HEAD_LINEARS += [(hidden, out, False) for hidden in (1024, 2048, 4096)
                 for out in (2, 4)]
ROWS = (4, 8, 12, 16, 20)


def test_linear_is_bitwise_the_in_out_formula(blas_threads):
    """Every (in, out, rows) case, compared with the reference formula
    in every bit within one thread count (each case holds three copies
    of its weight, up to 7680 x 4096)."""
    rng = np.random.default_rng(0)
    differ = []
    for fan_in, fan_out, relu in HEAD_LINEARS:
        weight = rng.standard_normal((fan_out, fan_in), dtype=np.float32)
        weight *= np.float32(fan_in ** -0.5)
        bias = rng.standard_normal(fan_out, dtype=np.float32)
        w_in_out = np.ascontiguousarray(weight.T)
        w_pack = pack_linear_weight(weight, np.dtype(np.float32))
        for rows in ROWS:
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
    assert differ == []
