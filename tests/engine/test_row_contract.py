"""A row does not depend on its batch: every head is bound at a whole
number of ``HEAD_ROWS``-row blocks and runs with its pad rows zeroed, so
a sample's output bits are those it gets alone (docs/engine.md, "A row
does not depend on its batch").  The contract is stated per program
shape: it holds for the Table-1 models, and fails where a head linear
crosses OpenBLAS's small-matrix switch between two bound row counts."""

import numpy as np

from repro.arch import TABLE1_MODELS
from repro.detect import SPPNetDetector, scan_origins
from repro.engine import compile as engine_compile, compiled_for
from repro.engine.compiled import HEAD_ROWS
from repro.nas.space import config_from_sample


def same(a, b):
    return all(p.tobytes() == q.tobytes() for p, q in zip(a, b))


def test_table1_rows_do_not_depend_on_their_batch(table1, blas_threads):
    """Every row of ``predict`` at batch 1-20 and of ``predict_stream``
    closed early (the iterator ends before the limit, 1-3 rows past a
    block) of each Table-1 model, and of the deployment model's
    ``predict_windows`` over 600 and 577 px rasters (stride 50; 121
    windows, the last batch ragged, and at 577 px 21 edge windows off
    the shared grid), against the sample's own batch-1 ``predict``.
    Bits are compared within one thread count, never across; compiling
    does no BLAS arithmetic, so one compile serves both counts."""
    differ = {}
    for name in sorted(TABLE1_MODELS):
        compiled = compiled_for(table1[name])
        x = np.random.default_rng(3).standard_normal(
            (20,) + compiled.input_shape).astype(np.float32)
        alone = [compiled.predict(x[i:i + 1], batch_size=1) for i in range(20)]
        bad = []
        runs = [("predict", n, compiled.predict(x[:n], batch_size=n))
                for n in range(1, 21)]
        runs += [("stream", n, compiled.predict_stream(iter(x[:n]), 20))
                 for n in (1, 2, 3, 5, 6, 7, 10, 19)]
        for form, n, (conf, box) in runs:
            bad += [[form, n, i] for i in range(n)
                    if not same((conf[i:i + 1], box[i:i + 1]), alone[i])]
        differ[name] = bad
        if name != "SPP-Net #3":
            continue
        for size in (600, 577):
            image = np.random.default_rng(size).random(
                (4, size, size)).astype(np.float32)
            origins = scan_origins(size, 100, 50)
            parts = list(compiled.predict_windows(image, origins, 100))
            conf = np.concatenate([c for c, _ in parts])
            box = np.concatenate([b for _, b in parts])
            for i, (r, c) in enumerate(origins):
                tile = image[None, :, r:r + 100, c:c + 100]
                if not same((conf[i:i + 1], box[i:i + 1]),
                            compiled.predict(tile, batch_size=1)):
                    bad.append([f"windows{size}", len(origins), i])
    assert len(differ) == 4
    assert differ == {name: [] for name in differ}


def test_pad_rows_are_zeroed_before_the_head_runs():
    model = SPPNetDetector(config_from_sample(
        {"first_kernel": 3, "spp_first_level": 2, "fc_width": 64}), seed=0)
    compiled = engine_compile(model.eval(), (4, 32, 32))
    x = np.random.default_rng(0).standard_normal(
        (3, 4, 32, 32)).astype(np.float32)
    compiled.predict(x, batch_size=3)       # rows 0-2 filled
    # read the rows as the head's first kernel gets them: that kernel's
    # output may then take their slot
    h, w, _ = compiled.read_extent((4, 32, 32))
    head = compiled._heads[(HEAD_ROWS, 4, h, w)]
    (rows,) = head._inputs
    seen = []
    category, name, first = head._fns[0]

    def spy(acc=None):
        seen.append(rows.copy())
        first(acc)
    head._fns[0] = (category, name, spy)
    conf, box = compiled.predict(x[:1], batch_size=1)
    assert conf.shape == (1,) and box.shape == (1, 4)
    (fed,) = seen
    assert fed[0].any() and not fed[1:].any()


def test_a_head_across_the_small_matrix_switch_depends_on_its_batch():
    """The counter-example: a search-space head with SPP levels (2, 1)
    and FC 128 runs a 1280 x 128 linear.  At 4 rows (4 * 128 * 1280 =
    655k multiply-adds) it is on OpenBLAS's small-matrix side, at 8 rows
    (1.3M) on the other, so rows of batches 5-8, bound at 8, are not
    the bits the same chips get alone (bound at 4).  A model like this
    has no batch-invariant rows past one block."""
    config = config_from_sample(
        {"first_kernel": 3, "spp_first_level": 2, "fc_width": 128})
    compiled = engine_compile(SPPNetDetector(config, seed=0).eval())
    assert config.spp_features == 1280
    x = np.random.default_rng(3).standard_normal(
        (8,) + compiled.input_shape).astype(np.float32)
    alone = [compiled.predict(x[i:i + 1], batch_size=1) for i in range(8)]

    def differing(n):
        conf, box = compiled.predict(x[:n], batch_size=n)
        return sum(conf[i:i + 1].tobytes() != alone[i][0].tobytes()
                   or box[i:i + 1].tobytes() != alone[i][1].tobytes()
                   for i in range(n))

    assert [differing(n) for n in range(1, HEAD_ROWS + 1)] == [0] * 4
    assert differing(8) > 0
