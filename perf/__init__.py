"""Two-clock benchmark harness (see ``perf/README.md``).

Importing the package makes ``repro`` importable from a bare checkout:
the benchmark command cannot set ``PYTHONPATH=src``, so the harness
locates ``src/`` relative to its own directory.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
