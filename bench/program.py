"""Locate the dmdk source tree beside the benchmark and import it from there.

The benchmark measures the program in its own checkout, so it never falls
back to an installed copy: a missing ``src/dmdk`` is an error.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load():
    """Import ``dmdk`` from ``<root>/src``; exit with a message if it is absent."""
    init = SRC / "dmdk" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: program source not found at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dmdk

    if Path(dmdk.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported dmdk from {dmdk.__file__}, expected {init}")
    return dmdk
