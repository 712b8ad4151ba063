"""Make ``e2e`` (this benchmark) and ``repro`` (the program) importable."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
for path in (E2E.parent, E2E.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
