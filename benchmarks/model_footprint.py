"""Peak-RSS footprint of one detector's life in a fresh process.

For each Table-1 model, a child process reads its own peak resident set
(Linux's ``VmHWM``) around each stage of its life:

* ``build_mb``: the rise while ``SPPNetDetector(config, seed=0)`` builds;
* ``engine_peak_mb``: the process's whole peak after ``compiled_for``
  and ``warmup([20, 1])`` on 100 px chips;
* ``compile_mb``: the rise across that compile and warm-up, the bytes
  the engine adds to a built model (its FC packs are the module's own
  arrays, so little beyond conv packs and arenas);
* ``eager_mb``: the rise while eager ``predict`` runs 10 chips one at
  a time, the batch the guard's robust re-run uses.  (At batch 10 the
  im2col matrices dominate: 51 MB for SPP-Net #3's second conv.)

Peak RSS only grows, so each model needs its own process.

Usage::

    python benchmarks/model_footprint.py                # every Table-1 model, JSON
    python benchmarks/model_footprint.py --model "SPP-Net #3"
    python benchmarks/model_footprint.py --markdown     # a table for a CI summary
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
STATUS = "/proc/self/status"


def _peak_mb() -> float:
    """This process's peak RSS in MiB, from Linux's ``VmHWM``.

    Not ``ru_maxrss``: it survives ``exec``, so a child of a large
    process (a test runner) would read its parent's peak, while
    ``VmHWM`` starts afresh with the new image.
    """
    with open(STATUS) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{STATUS} has no VmHWM line: peak RSS cannot be read here")


def probe(name: str) -> dict:
    """The footprint numbers of ``name``, read in this process."""
    import numpy as np

    from repro.arch import TABLE1_MODELS
    from repro.detect import SPPNetDetector, predict
    from repro.engine import compiled_for

    config = TABLE1_MODELS[name]
    chips = np.random.default_rng(0).random(
        (10, config.in_channels, 100, 100), dtype=np.float32)
    before = _peak_mb()
    model = SPPNetDetector(config, seed=0).eval()
    built = _peak_mb()
    compiled_for(model).warmup([20, 1], (config.in_channels, 100, 100))
    warmed = _peak_mb()
    predict(model, chips, batch_size=1)
    return {
        "model": name,
        "weight_mb": round(sum(p.data.nbytes for p in model.parameters()) / 2**20, 1),
        "build_mb": round(built - before, 1),
        "engine_peak_mb": round(warmed, 1),
        "compile_mb": round(warmed - built, 1),
        "eager_mb": round(_peak_mb() - warmed, 1),
    }


def measure(name: str) -> dict:
    """:func:`probe` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, __file__, "--child", name],
        check=True, capture_output=True, text=True, env=env)
    return json.loads(out.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--model", action="append",
                        help="a TABLE1_MODELS name (repeatable; default: all)")
    parser.add_argument("--markdown", action="store_true",
                        help="print a markdown table instead of JSON")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(probe(args.child)))
        return 0
    if args.model:
        names = args.model
    else:
        sys.path.insert(0, str(SRC))
        from repro.arch import TABLE1_MODELS

        names = list(TABLE1_MODELS)
    rows = [measure(name) for name in names]
    if args.markdown:
        print("| model | weights MB | build MB | compile MB | engine peak MB | eager MB |")
        print("|---|---:|---:|---:|---:|---:|")
        for r in rows:
            print(f"| {r['model']} | {r['weight_mb']} | {r['build_mb']} | "
                  f"{r['compile_mb']} | {r['engine_peak_mb']} | {r['eager_mb']} |")
    else:
        print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
