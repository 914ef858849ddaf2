"""The speed probe: a fixed piece of work whose time tracks the machine's
speed, run between the operations of a run.

This machine is a few cores of a shared host. Its speed drifts by up to
1.8x over tens of minutes and by 10-20% from one second to the next,
with no steal time and no run-queue delay shown to the guest: CPU time
and wall time drift together. The probe is timed right before and right
after every timed operation, in the same process, so an operation and
its probes see the same speed. ``run.py`` scales each operation's time
by ``REF_S[kind]`` over its probes' mean time, which gives it in seconds
at the reference speed.

Work that streams through memory slows down more than cache-resident
work when the host is busy, so each workload has its own kind of probe,
shaped like its dominant layer:

- ``stream``: the rows of a stacked system of estimating equations
  (logistic and linear scores times covariates, a smoothed membership),
  built and averaged over 32k rows, larger than L2, and a Python loop
  that splits, parses and tests text rows, as in CSV ingest and rule
  evaluation (``analyze-registry``);
- ``cached``: the same rows over 8k rows, which stay in cache
  (``simulate-binary``);
- ``loop``: many small numpy calls in a Python loop, bisection steps over
  a smoothed indicator of 5k entries and Newton steps of a 5-column
  logistic fit on 500 rows, as in the bootstrap's replicates
  (``analyze-bootstrap``).

The probe never calls the program, so no change to the program moves it.
"""

import time

import numpy as np
from scipy.special import expit, ndtr

# Median probe times (s) on the machine the reference figures in
# README.md were taken on: 2 vCPUs of an Intel Xeon, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1.
REF_S = {"stream": 0.45, "cached": 0.45, "loop": 0.45}

_RNG = np.random.default_rng(20_240_611)
_X = _RNG.standard_normal((32_768, 6))
_X[:, 0] = 1.0
_FLAGS = _RNG.random((32_768, 3)) < 0.5
_B = np.linspace(-0.3, 0.3, 6)
_LINES = [",".join(f"{v:.6f}" for v in row) for row in _X[:4_000]]
_SMALL = _X[:500, :5]
_SMALL_Y = _FLAGS[:500, 0].astype(float)
_PRODS = np.abs(_X[:5_000, 1] * _X[:5_000, 2])


def _stacked_rows(x, flags, reps: int) -> float:
    total = 0.0
    for r in range(reps):
        b = _B * (1.0 + 1e-6 * r)
        p1 = expit(x @ b)
        p2 = expit(x @ b[::-1])
        lin = x @ b
        k = ndtr((x[:, 1] * x[:, 2] - 0.2) / 0.05)
        rows = np.hstack([
            (flags[:, 0] - p1)[:, None] * x,
            (flags[:, 1] - p2)[:, None] * x,
            (flags[:, 2] * (x[:, 3] - lin))[:, None] * x,
            (k * p1 * p2 - 0.5)[:, None] * x,
        ])
        total += float(rows.mean(axis=0).sum())
    return total


def _parse_lines(reps: int) -> float:
    total = 0.0
    for _ in range(reps):
        for line in _LINES:
            row = dict(zip("abcdef", line.split(",")))
            x = float(row["d"])
            if x >= 1.0 or row["b"].startswith("-"):
                total += x
    return total


def _small_loops(reps: int) -> float:
    total = 0.0
    for _ in range(reps):
        lo, hi = 0.0, 4.0
        for _ in range(35):
            mid = 0.5 * (lo + hi)
            mean = float(np.sum(ndtr((_PRODS - mid) / 1e-2) * ndtr((_PRODS * 0.9 - mid) / 1e-2))) / _PRODS.size
            lo, hi = (mid, hi) if mean > 0.3 else (lo, mid)
        beta = np.zeros(5)
        for _ in range(8):
            p = expit(_SMALL @ beta)
            w = p * (1.0 - p)
            beta = beta + np.linalg.solve(_SMALL.T @ (w[:, None] * _SMALL), _SMALL.T @ (_SMALL_Y - p))
        total += lo + float(beta.sum())
    return total


def probe(kind: str) -> float:
    """Run the probe of ``kind`` once; return its wall seconds."""
    start = time.perf_counter()
    if kind == "stream":
        _stacked_rows(_X, _FLAGS, 27)
        _parse_lines(22)
    elif kind == "cached":
        _stacked_rows(_X[:8_192], _FLAGS[:8_192], 225)
        _parse_lines(14)
    elif kind == "loop":
        _small_loops(46)
    else:
        raise ValueError(f"unknown probe kind {kind!r}")
    return time.perf_counter() - start
