"""numpy and the process pool stay off the import graph of the cells.

Only the Appendix-C theory (``repro.experiments.appc_theory``) computes
with numpy.  Every other cell runs without it, percentiles of a sample
buffer included, which saves its import time and footprint on every
CLI call and parallel worker.
Likewise ``multiprocessing`` and ``concurrent.futures`` are imported
only by ``ParallelRunner``'s pooled path, never by a cell.
"""

import os
import subprocess
import sys
from array import array

import pytest

import repro
from repro.analysis.metrics import percentiles
from repro.experiments import appc_theory

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# The pytest process already holds numpy, so the check needs a fresh
# interpreter.
_CELL_PROBE = """
import sys
import repro
from repro.experiments import fig11_guarantee, fig12_incast, fig14_ebs, scale_sweep
fig11_guarantee.run_one("ufab", duration=0.004)
fig11_guarantee.run_one("pwc", duration=0.004)
fig12_incast.run_one("ufab", degree=4, duration=0.002)
print(sorted({"numpy", "multiprocessing", "concurrent.futures"} & set(sys.modules)))
"""


def test_cells_that_never_compute_with_numpy_never_import_it():
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    proc = subprocess.run([sys.executable, "-c", _CELL_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_numpy_users_return_their_values():
    samples = array("d", [(i * 7919) % 1000 / 7.0 for i in range(1000)])
    assert percentiles(samples, (0, 25, 50, 99, 100)) == [
        0.0, 35.67857142857143, 71.35714285714286, 141.28714285714284,
        142.71428571428572]
    # numpy's pow may differ by an ulp between builds, hence approx.
    result = appc_theory.run_dual_convergence(steps=40)
    assert result.iterations_to_5pct == 8
    assert result.reference == pytest.approx([10 / 3, 20 / 3, 20 / 3], rel=1e-12)
    assert result.allocation == pytest.approx(
        [3.3322504656291847, 6.667749537227138, 6.667748797836913], rel=1e-9)
    assert result.final_error == pytest.approx(0.00032486031124463467, rel=1e-6)
