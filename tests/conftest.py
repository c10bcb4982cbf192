"""Lets the suite run from a checkout without an install: ``src/`` goes
first on ``sys.path``, and on the ``PYTHONPATH`` that the CLI subprocess
tests inherit."""

import os
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
