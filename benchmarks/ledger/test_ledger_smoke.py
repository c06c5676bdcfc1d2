"""Smoke test of the performance ledger (``pytest benchmarks/ledger -m slow``).

Collected only when this path is given: tier-1 has ``testpaths =
["tests"]``, and ``benchmarks/conftest.py`` marks everything under
``benchmarks/`` slow.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_ledger_smoke():
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke ok" in done.stdout
