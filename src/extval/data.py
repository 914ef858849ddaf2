"""Observed-data container for the non-nested two-sample design.

A dataset pools trial rows (s=1, with treatment and outcome) and
external target rows (s=0, covariates only). Treatment and outcome are
stored as float arrays with NaN on target rows so that a single row
index works across both samples.

The design matrix ``x`` is column-major (Fortran order): each covariate is
one contiguous column. Every fit, score and sandwich product reads the
design a column at a time, through BLAS or through a per-row weight
broadcast down each column, and on contiguous columns the same
expressions run faster than on a row-major copy: one Newton step at
5.5k rows and five columns took 68 µs against 113 µs (one OpenBLAS
thread, numpy 2.4). BLAS sums in an
order that follows the layout, so a row-major (C-ordered) copy of a
design can give results that differ from it in the last bits.

Rows are gathered from a design only through ``take_rows``, which
gathers within each column and keeps the layout; numpy's axis-0
``take`` on a column-major array is several times slower and returns
a row-major result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, DimensionError


@dataclass(frozen=True)
class Dataset:
    """Pooled trial + target sample.

    Attributes
    ----------
    s : (n,) float array of 0/1 participation flags.
    a : (n,) float array; binary treatment on trial rows, NaN on target rows.
    y : (n,) float array; outcome on trial rows, NaN on target rows.
    x : (n, q) float design matrix with a leading constant-1 column,
        column-major (see the module docstring); an input in any other
        layout is copied into it. Its rows are gathered with ``take_rows``.
    """

    s: np.ndarray
    a: np.ndarray
    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        a = np.asarray(self.a, dtype=float)
        y = np.asarray(self.y, dtype=float)
        x = np.asfortranarray(self.x, dtype=float)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        if x.ndim != 2:
            raise DimensionError("x must be a 2-d design matrix")
        n = x.shape[0]
        if not (s.shape == a.shape == y.shape == (n,)):
            raise DimensionError("s, a, y must be 1-d arrays matching x rows")
        # each check names the first row it rejects
        trial = s == 1
        no_a, no_y = np.isnan(a), np.isnan(y)
        for bad, message in (
            (~trial & (s != 0), "participation flag s must be 0 or 1"),
            (trial & (no_a | no_y), "trial rows (s=1) must carry treatment and outcome"),
            (~trial & ~(no_a & no_y), "target rows (s=0) must not carry treatment or "
             "outcome; check the column role assignment"),
            (trial & (a != 0) & (a != 1), "treatment must be binary 0/1 on trial rows"),
            (~np.isfinite(x).all(axis=1), "covariates must be finite"),
        ):
            if bad.any():
                raise DataError(message, row=int(np.argmax(bad)))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def q(self) -> int:
        return self.x.shape[1]

    # the masks, the trial rows' design and the counts are computed once per
    # dataset; the arrays are read-only, since every caller shares them
    @cached_property
    def trial_mask(self) -> np.ndarray:
        return _read_only(self.s == 1)

    @cached_property
    def target_mask(self) -> np.ndarray:
        return _read_only(self.s == 0)

    @cached_property
    def x_trial(self) -> np.ndarray:
        return _read_only(take_rows(self.x, self.trial_mask))

    @cached_property
    def n1(self) -> int:
        return int(np.count_nonzero(self.trial_mask))

    @cached_property
    def n2(self) -> int:
        return int(np.count_nonzero(self.target_mask))

    def require_both_samples(self):
        """Estimation entry points need at least one row of each sample."""
        if self.n1 < 1 or self.n2 < 1:
            raise DataError("need at least one trial row and one target row")

    def subset(self, idx: np.ndarray) -> "Dataset":
        """Row-indexed subset (used by the stratified bootstrap).

        ``idx`` is a 1-d array of row indices, repeats allowed; any other
        dtype is a DimensionError, since ``take`` would read a boolean mask
        as the rows 0 and 1. Every row passed ``__post_init__`` in this
        dataset, so the subset is built without running those checks again.
        """
        idx = np.asarray(idx)
        if idx.dtype.kind not in "iu":
            raise DimensionError(f"row indices must be integers, got dtype {idx.dtype}")
        sub = object.__new__(Dataset)
        for name in ("s", "a", "y"):
            object.__setattr__(sub, name, getattr(self, name).take(idx))
        object.__setattr__(sub, "x", take_rows(self.x, idx))
        return sub


def take_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows of the 2-d design ``x`` that ``rows`` picks, as a new
    column-major array: ``rows`` holds integer indices (repeats allowed) or
    is a boolean mask over the rows. The rows are gathered within each
    column, so each value equals ``x[rows]`` exactly."""
    rows = np.asarray(rows)
    gather = x.T.compress if rows.dtype == bool else x.T.take
    return gather(rows, axis=1).T


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_dataset(
    x_trial: np.ndarray,
    a: np.ndarray,
    y: np.ndarray,
    x_target: np.ndarray,
) -> Dataset:
    """Assemble a Dataset from separate trial and target blocks."""
    x_trial = np.atleast_2d(np.asarray(x_trial, dtype=float))
    x_target = np.atleast_2d(np.asarray(x_target, dtype=float))
    if x_trial.shape[1] != x_target.shape[1]:
        raise DimensionError("trial and target covariate dimensions differ")
    n1, n2 = x_trial.shape[0], x_target.shape[0]
    nan = np.full(n2, np.nan)
    return Dataset(
        s=np.concatenate([np.ones(n1), np.zeros(n2)]),
        a=np.concatenate([np.asarray(a, dtype=float), nan]),
        y=np.concatenate([np.asarray(y, dtype=float), nan]),
        x=np.vstack([x_trial, x_target]),
    )
