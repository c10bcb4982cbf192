"""Lets the suite run from a checkout without an install: ``src/`` goes
first on ``sys.path``, and on the ``PYTHONPATH`` that the CLI subprocess
tests inherit.  Every test starts from empty summand tables."""

import os
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

from finsum import cli  # noqa: E402


@pytest.fixture(autouse=True)
def _cold_summand_table():
    """``cli.run`` keeps each summand's compiled forms for the process; a
    test that counts parse or decomposition calls must see cold tables,
    whatever texts earlier tests ran."""
    cli._clear_tables()
