"""Benchmark-suite fixtures.

BLAS/OpenMP pools are pinned to one thread before ``_harness`` imports
numpy, as ``perfbench/run.py`` does: a product big enough to go
multi-threaded leaves pool threads busy-waiting, which slows whatever
pure-Python work is timed after it.
"""

from __future__ import annotations

import os

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import _harness  # noqa: E402


@pytest.fixture(autouse=True)
def _isolate_bench_json_log():
    """Drain the harness grid log before every bench.

    ``save_bench_json`` consumes the grids recorded since the previous
    call; if a bench errors before reaching it, leftover grids must not
    leak into the next bench's ``BENCH_<name>.json``.
    """
    _harness._GRID_LOG.clear()
    yield
