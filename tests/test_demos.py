"""Every quick demo runs to completion as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 03_security_reduction.py is left out: it takes several seconds, and
# acceptance criterion c4 runs the same dprime_gap path.
DEMOS = (
    "01_deal_and_reconstruct.py",
    "02_commitment_binding.py",
    "04_cnf_pipeline.py",
    "05_equivalence_and_hybrids.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
