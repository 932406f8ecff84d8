"""Smoke test of the benchmark itself: every workload once, untraced and traced.

    python3 -m pytest benchmarks/test_smoke.py

Takes about a minute: each workload runs one pass at its full size.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_metric_emitted_and_no_operation_failed():
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == '{"smoke_ok": true}'
