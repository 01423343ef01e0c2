"""The Hoeffding tree's erf is ``scipy.special.erf``, bit for bit.

The split search's Gaussian CDFs go through
``hoeffding_tree._erf``, a numpy port of the Cephes ``erf``/``erfc``
that scipy evaluates, so a stream process never loads scipy.  Split
thresholds' masses and the priors a split seeds read its last bits,
so it is pinned to scipy's raw bytes here: on a seeded sample of over
a million inputs that reaches every branch (``|z| <= 1``,
``1 < |z| < 8``, ``|z| >= 8`` and the underflow past ``MAXLOG``), on
the values at and beside each branch edge, and on every float
hypothesis draws.  NaN equals NaN whatever its payload.  No input may
raise a ``RuntimeWarning``.

The sample's seed honours ``REPRO_SEED`` (see :mod:`equivalence`), so
CI's equivalence matrix draws three distinct samples.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from equivalence import SEED_OFFSET
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from repro.classifiers.hoeffding_tree import _MAXLOG, _erf

#: The inputs per seeded distribution of the sample.
PER_DISTRIBUTION = 300_000


def _port(z: np.ndarray) -> np.ndarray:
    """The port's values, with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _erf(z)


def _mismatches(z: np.ndarray) -> np.ndarray:
    """The inputs where the port's bytes differ from scipy's."""
    ours, theirs = _port(z), erf(z)
    same = ours.view(np.uint64) == theirs.view(np.uint64)
    same |= np.isnan(ours) & np.isnan(theirs)
    return z[~same]


def _edges() -> np.ndarray:
    """Every branch edge, its neighbours, and the extreme floats."""
    root_maxlog = math.sqrt(_MAXLOG)
    points = [0.0, 1.0, 8.0, root_maxlog, 5e-324, 2.2250738585072014e-308,
              1e-300, 1e308, np.finfo(np.float64).max, math.inf]
    values = []
    for p in points:
        below, above = p, p
        for _ in range(4):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            values += [below, above]
        values.append(p)
    values = np.array(values)
    return np.concatenate([values, -values, [np.nan, -np.nan]])


def _sample() -> np.ndarray:
    rng = np.random.default_rng(25_000 + SEED_OFFSET)
    n = PER_DISTRIBUTION
    return np.concatenate([
        rng.normal(0.0, 1.0, n),
        rng.normal(0.0, 4.0, n),
        rng.uniform(-30.0, 30.0, n),
        rng.standard_cauchy(n),
        # Around the underflow edge sqrt(MAXLOG) ~ 26.64.
        rng.uniform(26.5, 27.3, n // 2) * rng.choice([-1.0, 1.0], n // 2),
        # Subnormal and tiny magnitudes.
        rng.uniform(-1.0, 1.0, n // 6) * 1e-310,
    ])


class TestErfPort:
    def test_sample_matches_scipy_bit_for_bit(self):
        z = _sample()
        assert z.size >= 1_000_000
        x = np.abs(z)
        with np.errstate(over="ignore"):
            square = x * x
        branches = {
            "small": x <= 1.0,
            "erfc P/Q": (x > 1.0) & (x < 8.0),
            "erfc R/S": (x >= 8.0) & (square <= _MAXLOG),
            "underflow": square > _MAXLOG,
        }
        for name, mask in branches.items():
            assert mask.sum() >= 10_000, name
        for block in np.array_split(z, 8):
            bad = _mismatches(block)
            assert bad.size == 0, bad[:10]

    def test_edges_match_scipy_bit_for_bit(self):
        bad = _mismatches(_edges())
        assert bad.size == 0, bad[:10]

    def test_signed_zero_and_nan(self):
        out = _port(np.array([0.0, -0.0, np.nan]))
        assert np.signbit(out[:2]).tolist() == [False, True]
        assert out[:2].tolist() == [0.0, 0.0]
        assert np.isnan(out[2])

    def test_shapes_kept(self):
        """The split search passes (features, classes, thresholds)."""
        z = np.random.default_rng(1 + SEED_OFFSET).normal(0, 3, (4, 3, 10))
        out = _port(z)
        assert out.shape == z.shape
        assert out.tobytes() == erf(z).tobytes()
        assert _port(np.empty((0, 2))).shape == (0, 2)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_floats_match_scipy(self, values):
        z = np.array(values, dtype=np.float64)
        assert _mismatches(z).size == 0
