"""The allocator policy: freed numpy temporaries keep their pages mapped."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import capstate


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


FAULTS_PER_CYCLE = """
import resource
import numpy as np
from capstate.cli import main
from capstate.heap import keep_heap
{policy}

def cycle():
    arrays = [np.empty((2 << 20) // 8) for _ in range(10)]  # ten 2 MiB arrays
    for a in arrays:
        a.fill(1.0)
    del arrays

cycle()  # the first cycle maps its pages under either policy
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    cycle()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def _faults_per_cycle(policy: str) -> float:
    """Minor page faults per cycle in a fresh interpreter: once ``main`` has
    run in this one, it keeps the policy whatever a test does."""
    src = str(Path(capstate.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", FAULTS_PER_CYCLE.format(policy=policy)],
                          capture_output=True, text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    return float(proc.stdout)


@pytest.mark.skipif(not _on_glibc(), reason="the thresholds are glibc's; other C libraries ignore them")
@pytest.mark.parametrize("policy, kept", [
    ("", False),
    ("keep_heap()", True),
    ('main(["evaluate", "--set", "not.a.key=1"])', True),  # the CLI sets it before reading its config
])
def test_freed_pages_stay_mapped(policy, kept):
    faults = _faults_per_cycle(policy)
    if kept:
        assert faults < 50
    else:
        assert faults > 1000  # without the policy every cycle faults its 5120 pages in again
