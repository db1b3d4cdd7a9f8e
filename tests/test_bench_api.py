"""The library surface the benchmark's workloads read.

One quick iteration of each workload in ``bench/workloads.py``, untraced,
must run without a failed operation or a problem, so that a change to the
public API that breaks the benchmark fails here first.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_workload_iteration_runs_clean(name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path, quick=True)
    it = workload.run(7, None)
    assert it.failed == 0 and it.problems == []
