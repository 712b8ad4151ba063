"""What is left of the engine-side IOS scheduler: two constant counters.

The engine runs its steps in order and solves no schedule (docs/engine.md
"Inter-operator scheduling" records why).  The frozen ``benchmarks/e2e``
harness still publishes ``engine.sched.solves`` / ``.solve_ms`` from
here; this module goes with those two metrics (ROADMAP item 1).
"""


def stats() -> dict:
    """Solver counters: the engine solves nothing, so both read zero."""
    return {"solves": 0, "solve_ms": 0.0}
