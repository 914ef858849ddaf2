"""Batch command-line interface.

Subcommands: ``analyze`` (fit, partition, estimate), ``sensitivity``
(grid sweep from an analysis report), ``simulate`` (replication study),
and ``calibrate`` (participation-intercept solver). Configuration is
JSON with ``"schema_version": 1``; tabular outputs are CSV; a number is
a JSON number, never a string or a bool, and integer values (sizes,
counts, draws, seeds) must be whole numbers. All randomness flows from
explicit seeds in the configuration; a missing seed where one is needed
is a configuration error, never a silent clock seed.

Exclusion rules (``exclusion_rules``) and the extrapolation filters
(``sensitivity.extrapolation.r{1,2}_trial_filter``) are clause lists over
named CSV columns. ``analyze`` parses all three sets (``_rule_sets``), as
it reads every other value, before any row; ``evaluate_raw_rules`` then
evaluates a parsed set column-wise, and the partition receives the
resulting target-row mask. ``load_dataset`` parses the role columns and
the columns that the rules and filters name, all of which the header
must hold, and no others, into float arrays, in one pass: numpy's C
reader reads each batch of lines, and the csv module the batches numpy
cannot read as it would. Each method name maps to its estimator
in one table, which serves both the full-sample estimate and every
bootstrap replicate.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import json
import sys
from functools import partial
from itertools import chain

import numpy as np

from .data import Dataset, take_rows
from .errors import ConfigError, DataError, ExtvalError
from .estimators import (
    EstimateReport,
    _bootstrap_seed,
    augmented_ipw,
    bootstrap_ci,
    hajek_ipw,
    trimmed_aipw,
    trimmed_ipw,
)
from .glm import (
    GlmFamily,
    GlmFit,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    log_likelihood,
    predict_mean,
)
from .partition import DEFAULT_EPSILON, partition_population
from .sensitivity import (
    SensitivityInput,
    extrapolate_group_ate,
    sensitivity_sweep,
)
from .simulation import DgpConfig, StudyConfig, calibrate_intercept, run_study

_FAMILIES = {
    "gaussian": GlmFamily.GAUSSIAN_IDENTITY,
    "binary": GlmFamily.BERNOULLI_LOGIT,
}

# method name -> its estimator, called with the dataset, the sampling,
# propensity and outcome fits, the partition and the variance method. The
# lambdas look the estimator names up at call time, so a wrapper bound
# over a module name (as bench/tracing.py binds them) sees every call.
_METHODS = {
    "ipw": lambda ds, sf, pf, of, part, v: hajek_ipw(ds, sf, pf, variance=v),
    "aipw": lambda ds, sf, pf, of, part, v: augmented_ipw(ds, sf, pf, of, variance=v),
    "trimmed_ipw": lambda ds, sf, pf, of, part, v: trimmed_ipw(ds, sf, pf, part, variance=v),
    "trimmed_aipw": lambda ds, sf, pf, of, part, v: trimmed_aipw(ds, sf, pf, of, part, variance=v),
}


# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------

class CsvColumns(dict):
    """A CSV's columns by name, each a float array with one entry per data
    row (a covariate's is a column of the design matrix); ``lines``, the
    file line of each data row; ``path``, the file's name; and ``text``,
    by column and then row, the text of each cell that is not a number,
    for errors. Such a cell, or a spelled-out NaN, reads as NaN, as does a
    blank one.
    """

    def __init__(self, columns, lines: np.ndarray, text: dict, path: str):
        super().__init__(columns)
        self.lines, self.text, self.path = lines, text, path


# the bytes of lines read at a time: a batch ends with the line that takes it
# past this many
BATCH_BYTES = 1 << 16
# bytes of the field that numpy's reader reads a treatment or outcome cell
# into; a batch with a cell that fills it goes to the csv module
CELL_BYTES = 32


def load_dataset(path: str, roles: dict, names: dict | None = None) -> tuple[Dataset, CsvColumns]:
    """Parse a CSV into a Dataset, prepending the constant-1 column.

    ``roles`` maps {"s": column, "a": column, "y": column,
    "covariates": [columns...]}: column names as strings, the covariates
    distinct and no column in two roles, else a ConfigError names the
    role, or the column and its two roles. The file is read as UTF-8,
    after an optional byte-order mark; other text is a DataError. Cells
    are read as numbers, an empty cell as NaN, and the Dataset checks the
    role columns: treatment and outcome must be empty exactly on target
    rows. Returns the dataset and the columns by name (``CsvColumns``) so
    that exclusion rules may reference non-model columns: the role columns
    and those in ``names``, and no others. ``names`` maps each column that
    a rule names to the config key of the rule set that names it. Before
    any row is read, a role column the header lacks or a name it repeats
    is a DataError, and a column of ``names`` that it lacks a ConfigError
    naming that key. Blank lines are skipped; every other row must have as
    many fields as the header.

    The file is opened once and its rows read in one pass
    (``_read_rows``). An error in a row names its line in the file: of
    several faulty rows the first, and in that row a wrong field count
    before a non-numeric role cell, whose columns are checked in header
    order.
    """
    role_of: dict = {}
    for key in ("s", "a", "y", "covariates"):
        if key not in roles:
            raise ConfigError(f"column roles must include {key!r}")
        given = roles[key] if key == "covariates" else [roles[key]]
        if not (isinstance(given, list) and all(isinstance(c, str) for c in given)
                and len(set(given)) == len(given)):
            raise ConfigError(f"column role {key!r} must name a column, or for "
                              f"'covariates' a list of distinct columns; got {roles[key]!r}")
        for column in given:
            if role_of.setdefault(column, key) != key:
                raise ConfigError(f"column {column!r} is given two roles, {role_of[column]!r} and {key!r}")
    needed = [roles["s"], roles["a"], roles["y"], *roles["covariates"]]
    names = names or {}
    # the rows hold no reference cycles, so a collection while they are
    # read finds nothing, yet walks every object the process tracks
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
            except csv.Error as exc:
                raise DataError(f"{path} line 1: {exc}") from None
            if header is None:
                raise DataError(f"{path}: missing header row")
            missing = [c for c in needed if c not in header]
            if missing:
                raise DataError(f"{path}: missing columns {missing}")
            repeated = sorted({c for c in header if header.count(c) > 1})
            if repeated:
                raise DataError(f"{path}: repeated column names {repeated}")
            for name, where in names.items():
                if name not in header:
                    raise ConfigError(f"{where}: rule references unknown column {name!r}")
            wanted = [c for c in header if c in needed or c in names]
            blocks, lines, text = _read_rows(fh, reader.line_num + 1, path, header, wanted, needed)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None
    finally:
        if collecting:
            gc.enable()
    # each column's batches are joined once, a covariate's straight into its
    # column of the column-major design, which its entry then views; each
    # column's batches are let go before the next column is joined
    covariates = roles["covariates"]
    x = np.empty((lines.size, 1 + len(covariates)), order="F")
    x[:, 0] = 1.0
    columns = CsvColumns({}, lines, text, path)
    for name, batches in blocks.items():
        out = x[:, 1 + covariates.index(name)] if name in covariates else None
        columns[name] = np.concatenate(batches, out=out)
        batches.clear()
    with _naming_lines(path, columns.lines):
        return Dataset(*(columns[roles[k]] for k in ("s", "a", "y")), x), columns


def _read_rows(fh, number: int, path: str, header: list, names: list, roles: list):
    """The rest of ``fh``, whose first line is file line ``number``, in one
    pass of ``BATCH_BYTES`` batches of lines: each of the columns ``names``
    as a list of float arrays, one per batch; the file line of each data
    row; and the text of the cells outside the ``roles`` columns that are
    no number.

    numpy's C reader reads a batch with no Python call per cell. Treatment
    and outcome (``roles[1:3]``), blank on target rows, are read as byte
    fields of ``CELL_BYTES`` bytes and cast to float; a blank cell, or one
    of spaces alone, reads as NaN. The csv module reads a batch that holds
    a quote character, a NUL or a wrong field count, in which numpy
    refuses a cell (a blank one outside treatment and outcome, ``1_000`` or
    non-ASCII digits among them), a cell spells out NaN, or a treatment or
    outcome cell fills its byte field (it may have been cut short); it
    reads on past the batch to the end of a quoted cell. Both read the
    same numbers, bit for bit, and only the csv module names a faulty row.
    """
    last = len(header) - 1
    # numpy refuses a row without the last field, and a batch it reads holds
    # as many commas as its rows need, so every row has all fields; a last
    # column that no name asks for is kept as one character of text
    usecols = sorted({header.index(name) for name in names} | {last})
    blank_ok = roles[1:3]
    kinds = {name: float for name in names} | {name: f"S{CELL_BYTES}" for name in blank_ok}
    dtype = np.dtype([(str(j), kinds.get(header[j], "U1")) for j in usecols])
    parts = {name: (header.index(name), []) for name in names}
    lines, text, rows = [], {}, 0
    for batch in iter(partial(fh.readlines, BATCH_BYTES), []):
        empty = batch.count("\n") + batch.count("\r\n") + batch.count("\r")
        if empty == len(batch):
            number += empty
            continue
        # a batch's columns are kept only once numpy has read all of them
        read = []
        try:
            joined = "".join(batch)
            if '"' in joined or "\0" in joined or joined.count(",") != last * (len(batch) - empty):
                raise ValueError("a batch for the csv module")
            table = np.loadtxt(batch, delimiter=",", comments=None, quotechar=None, ndmin=1,
                               usecols=usecols, dtype=dtype)
            for name, (j, _) in parts.items():
                cells, filled = table[str(j)], slice(None)
                if name in blank_ok:
                    if (np.char.str_len(cells) == CELL_BYTES).any():
                        raise ValueError("a cell that fills its byte field")
                    filled = (cells != b"") & ~np.char.isspace(cells)
                    values = np.full(cells.size, np.nan)
                    values[filled] = cells[filled].astype(float)
                else:
                    values = cells.copy()  # contiguous, which lets the table go
                if np.isnan(values[filled]).any():
                    raise ValueError("a cell that spells out NaN")
                read.append(values)
        except ValueError:
            read = None
        if read is None:
            reader = csv.reader(chain(batch, fh))
            block, at, end = [], [], 0
            try:
                for row in reader:
                    if row:
                        block.append(row)
                        at.append(reader.line_num)
                    end = reader.line_num
                    if end >= len(batch):
                        break
            except csv.Error as exc:
                # a cell past the field limit, or a quote never closed
                raise DataError(f"{path} line {number + end}: {exc}") from None
            lines.append(np.array(at) + (number - 1))
            with _naming_lines(path, lines[-1]):
                _parse_block(block, len(header), parts, roles, text, rows)
            number += reader.line_num
        else:
            at = np.arange(number, number + len(batch))
            lines.append(np.delete(at, [i for i, line in enumerate(batch) if line[0] in "\r\n"]) if empty else at)
            for (_, batches), values in zip(parts.values(), read):
                batches.append(values)
            number += len(batch)
        rows += lines[-1].size
    if not rows:
        raise DataError(f"{path}: no data rows")
    return {name: batches for name, (_, batches) in parts.items()}, np.concatenate(lines), text


def _parse_block(rows, width: int, parts: dict, roles: list, text: dict, start: int):
    """Append one block of rows, from row ``start`` on, to ``parts`` as
    float arrays, and to ``text`` the cells outside the ``roles`` columns
    that are no number. The first faulty row is a DataError naming its
    index in the block."""
    ragged = np.flatnonzero(np.fromiter(map(len, rows), int, len(rows)) != width)
    end = int(ragged[0]) if ragged.size else len(rows)
    faults = [(end, f"the header has {width} fields")] if ragged.size else []
    # a block whose first row is ragged has no cells to parse
    cells = list(zip(*rows[:end])) or [()] * width
    for name, (j, blocks) in parts.items():
        column, bad = _numbers(cells[j])
        if bad.any() and name in roles:
            i = int(np.argmax(bad))
            faults.append((i, f"non-numeric value {cells[j][i].strip()!r} in column {name!r}"))
        elif bad.any():
            rows_bad = np.flatnonzero(bad).tolist()
            text.setdefault(name, {}).update((start + i, cells[j][i].strip()) for i in rows_bad)
        blocks.append(column)
    if faults:
        row, message = min(faults, key=lambda fault: fault[0])
        raise DataError(message, row=row)


@contextlib.contextmanager
def _naming_lines(where: str, lines: np.ndarray):
    """Re-raise a DataError about row ``i`` as one that names its file
    line, ``lines[i]``."""
    try:
        yield
    except DataError as exc:
        if exc.row is None:
            raise
        raise DataError(f"{where} line {lines[exc.row]}: {exc}") from None


def _numbers(cells) -> tuple[np.ndarray, np.ndarray]:
    """Text cells as (values, nonnumeric_mask). A blank cell reads as NaN;
    one that is not a number reads as NaN and is marked in the mask, and
    so is a spelled-out NaN, since NaN is how a blank cell reads."""
    filled = np.fromiter(map(bool, cells), bool, len(cells))
    values = np.full(len(cells), np.nan)
    try:
        values[filled] = np.fromiter(map(float, filter(None, cells)), float, int(filled.sum()))
    except ValueError:
        # a cell of spaces alone, or one that is not a number: cell by cell
        for i, cell in enumerate(map(str.strip, cells)):
            filled[i] = bool(cell)
            with contextlib.suppress(ValueError):
                values[i] = float(cell) if cell else np.nan
    return values, filled & np.isnan(values)


# ---------------------------------------------------------------------------
# exclusion rules over named CSV columns
# ---------------------------------------------------------------------------

_COMPARATORS = {
    "==": np.equal,
    "!=": np.not_equal,
    ">=": np.greater_equal,
    "<=": np.less_equal,
    ">": np.greater,
    "<": np.less,
    "in": np.isin,
}


def _rule_sets(config: dict) -> tuple[dict, dict]:
    """The rule sets of ``config`` parsed, by config key (the exclusion
    rules and ``sensitivity.extrapolation.r{1,2}_trial_filter``), and the
    columns they name, each mapped to the key of the first set naming it.

    A set is a list of clauses, each a list of predicates {"var": column
    name, "op": comparator, "value": number, or for "in" a list of
    numbers}; it is parsed into clauses of (column, comparison, constant)
    triples, an absent or null set into none. A set that is not well
    formed, or an extrapolation block that is not an object, is a
    ConfigError naming its key.
    """
    filters = _value(config, "sensitivity", _object, {}).get("extrapolation", {})
    if not isinstance(filters, dict):
        raise ConfigError(f"sensitivity.extrapolation {filters!r} is not an object of trial filters")
    given = {"exclusion_rules": config.get("exclusion_rules")}
    given.update((f"sensitivity.extrapolation.r{g}_trial_filter", filters.get(f"r{g}_trial_filter"))
                 for g in (1, 2))
    sets, named = {}, {}
    for where, rules in given.items():
        try:
            clauses = _list([] if rules is None else rules)
            sets[where] = [[_predicate(pred) for pred in _list(clause)] for clause in clauses]
        except TypeError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        for var, _, _ in chain(*sets[where]):
            named.setdefault(var, where)
    return sets, named


def _predicate(pred) -> tuple:
    """A rule predicate as a (column, comparison, constant) triple; one
    that is not well formed is a TypeError."""
    if not isinstance(pred, dict) or not isinstance(pred.get("var"), str):
        raise TypeError(f"rule predicate {pred!r} is not an object that names a column")
    var, op, value = pred["var"], pred.get("op"), pred.get("value")
    if not (isinstance(op, str) and op in _COMPARATORS):
        raise TypeError(f"unknown comparator {op!r} in rule")
    try:
        constant = _number_list(value) if op == "in" else _number(value)
    except TypeError:
        kind = "a list of numbers" if op == "in" else "a number"
        raise TypeError(f"rule {var!r} {op} needs {kind}, got {value!r}") from None
    return var, _COMPARATORS[op], np.asarray(constant, dtype=float)


def evaluate_raw_rules(rules: list, columns: CsvColumns, mask_rows) -> np.ndarray:
    """Evaluate a rule set, as ``_rule_sets`` parses it, on the rows
    ``mask_rows`` selects: a row matches when every predicate of at least
    one clause holds.

    ``columns`` are a CSV's columns as ``load_dataset`` returns them, and
    hold every column the set names. Cells compare numerically and an
    empty cell reads as NaN, which satisfies only "!=". A non-numeric cell
    in a selected row of a rule column is a DataError naming its file
    line.
    """
    selected = np.asarray(mask_rows, dtype=bool)
    rows = np.flatnonzero(selected)
    values: dict[str, np.ndarray] = {}
    out = np.zeros(rows.size, dtype=bool)
    for clause in rules:
        match = np.ones(rows.size, dtype=bool)
        for var, compare, constant in clause:
            if var not in values:
                bad = min((i for i in columns.text.get(var, ()) if selected[i]), default=None)
                with _naming_lines(columns.path, columns.lines):
                    if bad is not None:
                        cell = columns.text[var][bad]
                        raise DataError(f"non-numeric value {cell!r} in column {var!r}", row=bad)
                values[var] = columns[var][rows]
            match &= compare(values[var], constant)
        out |= match
    return out


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"missing key {key!r}")
    return config[key]


def _value(config: dict, key: str, convert, *default):
    """``convert(config[key])``, or ``convert(default[0])`` when the key is
    absent and a default is given; a missing key without one, or a value
    that ``convert`` refuses with a TypeError or ValueError, is a
    ConfigError that names the key."""
    value = config.get(key, *default) if default else _require(config, key)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} has a malformed value {value!r}") from None


def _number(value):
    """``value`` itself if it is an int or a float, and not a bool, else a
    TypeError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise TypeError(f"{value!r} is not a number")


def _whole(value) -> int:
    """``value`` as an int if it is a number (``_number``) with no fraction
    (JSON may write 1e5 as a float), else a TypeError."""
    if isinstance(_number(value), float) and not value.is_integer():
        raise TypeError(f"{value!r} is not a whole number")
    return int(value)


def _list(values) -> list:
    """``values`` if it is a list, else a TypeError (a string is no list)."""
    if isinstance(values, list):
        return values
    raise TypeError(f"{values!r} is not a list")


def _object(value) -> dict:
    """``value`` if it is a JSON object, else a TypeError (a list of pairs
    is no object)."""
    if isinstance(value, dict):
        return value
    raise TypeError(f"{value!r} is not an object")


def _number_list(values, count=None) -> list:
    """``values``, a list of numbers, ``count`` of them unless None."""
    numbers = [_number(v) for v in _list(values)]
    if count not in (None, len(numbers)):
        raise ValueError(f"{values!r} does not hold {count} numbers")
    return numbers


def _check_schema(config: dict):
    if config.get("schema_version") != 1:
        raise ConfigError("config must declare \"schema_version\": 1")


def _score_histogram(hs: np.ndarray, s: np.ndarray) -> dict:
    edges = np.linspace(0.0, float(hs.max()) + 1e-12, 31)
    trial, _ = np.histogram(hs[s == 1], bins=edges)
    target, _ = np.histogram(hs[s == 0], bins=edges)
    return {
        "bin_edges": edges.tolist(),
        "trial_counts": trial.tolist(),
        "target_counts": target.tolist(),
    }


def _fit_summary(fit: GlmFit, x: np.ndarray, y: np.ndarray) -> dict:
    """The report's record of ``fit``, fitted to the design ``x`` and
    response ``y``."""
    return {
        "coefficients": np.asarray(fit.coefficients).tolist(),
        "family": fit.family.value,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "log_likelihood": log_likelihood(fit, x, y),
        "fixed": fit.fixed,
    }


@contextlib.contextmanager
def _stage(label: str):
    try:
        yield
    except ExtvalError as exc:
        exc.args = (f"{label}: {exc.args[0]}" if exc.args else label,)
        raise


def cmd_analyze(config: dict) -> dict:
    """Run the fit / partition / estimate pipeline, returning the report."""
    _check_schema(config)
    path, roles = _require(config, "input"), _value(config, "roles", _object)
    if not isinstance(path, str):
        raise ConfigError(f"input must be a file name, got {path!r}")
    family = _family(config.get("outcome_family", "gaussian"))
    methods = _value(config, "methods", _list, ["trimmed_aipw"])
    for m in methods:
        if not isinstance(m, str) or m not in _METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {tuple(_METHODS)}")
    variance_method = config.get("variance", "sandwich")
    if variance_method not in ("sandwich", "bootstrap"):
        raise ConfigError("variance must be 'sandwich' or 'bootstrap'")
    # every value, the rule sets included, is checked before any row is read
    epsilon = float(_value(config, "epsilon", _number, DEFAULT_EPSILON))
    if not 0.0 < epsilon < np.inf:
        raise ConfigError(f"epsilon must be positive and finite, got {epsilon!r}")
    p3_star, known = (None if config.get(key) is None else _value(config, key, _number)
                      for key in ("p3_star", "known_propensity"))
    needs_partition = any(m.startswith("trimmed") for m in methods)
    if needs_partition and p3_star is None:
        raise ConfigError("trimmed methods require p3_star")
    if p3_star is not None and not 0.0 < p3_star <= 1.0:
        raise ConfigError(f"p3_star must be a number in (0, 1], got {p3_star!r}")
    if known is not None and not 0.0 < known < 1.0:
        raise ConfigError(f"known_propensity must be null or a number in (0, 1), got {known!r}")
    bootstrap = None
    if variance_method == "bootstrap":
        if config.get("seed") is None:
            raise ConfigError("bootstrap variance requires an explicit seed")
        reps = _value(config, "bootstrap_reps", _whole, 500)
        bootstrap = reps, _bootstrap_seed(reps, _value(config, "seed", _whole))
    rules, named = _rule_sets(config)

    data, columns = load_dataset(path, roles, named)
    r1_mask = None
    if rules["exclusion_rules"]:
        r1_mask = evaluate_raw_rules(rules["exclusion_rules"], columns, data.target_mask)
    sampling, propensity, outcome, partition = _fit_components(
        data, known, family, any("aipw" in m for m in methods), r1_mask,
        (p3_star, epsilon) if needs_partition else None,
    )

    report: dict = {
        "schema_version": 1,
        "input": config["input"],
        "n1": data.n1,
        "n2": data.n2,
        "q": data.q,
        "sampling_model": _fit_summary(sampling, data.x, data.s),
        "propensity_model": _fit_summary(propensity, data.x_trial, data.a[data.trial_mask]),
        "sampling_score_histogram": _score_histogram(
            predict_mean(sampling, data.x), data.s
        ),
        "estimates": [],
    }
    if outcome is not None:
        # a is NaN on target rows, so a == 1 and a == 0 pick out each arm's trial rows
        report["outcome_models"] = {
            arm: _fit_summary(fit, take_rows(data.x, rows), data.y[rows])
            for arm, fit, rows in zip(("treated", "control"), outcome, (data.a == 1, data.a == 0))
        }
    if partition is not None:
        report["partition"] = {
            "delta_star": partition.delta_star,
            "p_hat": list(partition.p_hat),
            "counts": list(partition.counts),
            "p3_star": p3_star,
            "epsilon": epsilon,
        }

    with _stage("estimate"):
        for m in methods:
            report["estimates"].append(
                _run_method(
                    m, data, (sampling, propensity, outcome, partition),
                    bootstrap, known, family, r1_mask,
                ).to_dict()
            )

    if outcome is not None and partition is not None:
        zeta = _extrapolations(rules, data, columns, family, outcome, partition)
        if zeta is not None:
            report["zeta"] = zeta
    return report


def _family(name: str) -> GlmFamily:
    if not isinstance(name, str) or name not in _FAMILIES:
        raise ConfigError(f"unknown outcome family {name!r}; choose gaussian or binary")
    return _FAMILIES[name]


def _fit_components(data, known, family, outcome: bool, r1_mask, threshold, start=(None, None)):
    """Sampling, propensity and (if ``outcome``) outcome fits, and the
    partition at ``threshold``, a (p3*, epsilon) pair, unless it is None.
    ``known`` is the known propensity, or None to fit it. ``start`` holds
    the coefficients the sampling and propensity fits start from (zero
    when None)."""
    with _stage("fit"):
        sampling = fit_sampling_score(data, start[0])
        propensity = fit_propensity_score(data, known_probability=known, start=start[1])
        fits = fit_outcome_models(data, family) if outcome else None
    partition = None
    if threshold is not None:
        with _stage("partition"):
            partition = partition_population(data, sampling, propensity, r1_mask, *threshold)
    return sampling, propensity, fits, partition


def _run_method(
    method, data, components, bootstrap, known, family, r1_mask,
) -> EstimateReport:
    """One method's report; ``components`` are the full-sample fits and
    partition, and ``known`` the known propensity or None. ``bootstrap``
    is None for the sandwich variance, else the replicates and the seed of
    a bootstrap, which refits the components on every replicate, the
    sampling and propensity models starting from their full-sample
    coefficients."""
    run = _METHODS[method]
    rep = run(data, *components, "sandwich" if bootstrap is None else "none")
    if bootstrap is None:
        return rep

    sampling, propensity, _, partition = components
    start = (sampling.coefficients, propensity.coefficients)
    threshold = (partition.p3_star, partition.epsilon) if method.startswith("trimmed") else None

    def point(ds: Dataset, mask):
        refit = _fit_components(ds, known, family, "aipw" in method, mask, threshold, start)
        return run(ds, *refit, "none").estimate

    var, lo, hi = bootstrap_ci(point, data, *bootstrap, r1_mask=r1_mask)
    return dataclasses.replace(
        rep, variance=var, ci_low=lo, ci_high=hi, variance_method="bootstrap"
    )


def _extrapolations(rules, data, columns, family, outcome, partition):
    """Group extrapolations for EPD; surrogate-stratum refits optional,
    on the trial rows that the filters of ``rules`` (``_rule_sets``) pick."""
    x_target = take_rows(data.x, data.target_mask)
    zeta = {}
    for group, label in ((1, "zeta1"), (2, "zeta2")):
        rows = take_rows(x_target, partition.labels == group)
        if rows.shape[0] == 0:
            return None
        fits = outcome
        filt = rules[f"sensitivity.extrapolation.r{group}_trial_filter"]
        if filt:
            trial_mask = evaluate_raw_rules(filt, columns, data.trial_mask)
            idx = np.flatnonzero(data.trial_mask)[trial_mask]
            if idx.size == 0:
                raise DataError(f"extrapolation filter for group {group} matches no trial rows")
            fits = fit_outcome_models(data.subset(idx), family)
        zeta[label] = extrapolate_group_ate(fits, rows)
    return zeta


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

def cmd_sensitivity(config: dict, report: dict) -> str:
    """Sweep (k1, k2) for the configured assumption; returns grid CSV.
    The grid transforms the interval of the report's trimmed estimate of
    the configured method: Wald under the sandwich, the percentile
    interval under the bootstrap."""
    _check_schema(config)
    sens = _value(config, "sensitivity", _object)
    assumption = _require(sens, "assumption")
    method = sens.get("method", "aipw")
    entry = next(
        (e for e in _value(report, "estimates", _list, [])
         if isinstance(e, dict) and e.get("method") == method and e.get("trimmed")),
        None,
    )
    if entry is None:
        raise ConfigError(
            f"analysis report has no trimmed {method} estimate; rerun analyze "
            "with the matching method"
        )
    zeta = _value(report, "zeta", _object, {})
    inp = SensitivityInput(
        _value(entry, "estimate", _number),
        tuple(_value(entry, "ci", partial(_number_list, count=2))),
        *_value(entry, "p_hat", partial(_number_list, count=3)),
        # a missing extrapolation is left to EPD, which requires both
        **{key: _value(zeta, key, _number) for key in ("zeta1", "zeta2") if key in zeta},
    )
    k1_grid = _value(sens, "k1_grid", _number_list, [1.0])
    k2_grid = _value(sens, "k2_grid", _number_list, [1.0])
    if 1.0 not in k1_grid:
        k1_grid.append(1.0)
    if 1.0 not in k2_grid:
        k2_grid.append(1.0)
    grid = sensitivity_sweep(inp, k1_grid, k2_grid, assumption)
    baseline = next(r for r in grid.rows if r.k1 == 1.0 and r.k2 == 1.0)
    print(
        f"baseline k1=k2=1 ({assumption.upper()}): tau={baseline.estimate:.6f} "
        f"ci=[{baseline.ci_low:.6f}, {baseline.ci_high:.6f}]",
        file=sys.stderr,
    )
    return grid.to_csv()


# ---------------------------------------------------------------------------
# simulate / calibrate
# ---------------------------------------------------------------------------

def cmd_simulate(config: dict, threads: int | None = None) -> str:
    """Run the replication study; returns the report CSV. Each size's
    study runs on at most ``threads`` processes, by default one per CPU
    in this process's affinity mask (``simulation.run_study``)."""
    _check_schema(config)
    if "seed" not in config:
        raise ConfigError("simulate requires an explicit seed")
    family = _family(config.get("outcome_family", "gaussian"))
    sizes = _value(config, "sizes", lambda v: [_whole(n) for n in _list(v)], [100_000])
    if not sizes:
        raise ConfigError("simulate needs at least one size")
    # every size's config is checked before any study runs
    studies = [
        StudyConfig(
            dgp=DgpConfig(n_total=n_total, outcome_family=family),
            replications=_value(config, "replications", _whole, 1000),
            p3_stars=tuple(_value(config, "p3_star", _number_list, [0.8, 0.9])),
            methods=tuple(_value(config, "methods", _list, ["ipw", "aipw"])),
            assumptions=tuple(_value(config, "assumptions", _list, ["gpd", "epd"])),
            master_seed=_value(config, "seed", _whole),
            oracle_draws=_value(config, "oracle_draws", _whole, 4_000_000),
        )
        for n_total in sizes
    ]
    chunks = []
    # the truth does not read n_total, so the first size's serves them all
    true_tau = None
    for study in studies:
        report = run_study(study, n_jobs=threads, true_tau=true_tau)
        true_tau = report.true_tau
        print(
            f"simulate n_total={study.dgp.n_total}: "
            f"{report.failures}/{report.replications} replications failed",
            file=sys.stderr,
        )
        csv_text = report.to_csv()
        chunks.append(csv_text if not chunks else "".join(csv_text.splitlines(True)[1:]))
    return "".join(chunks)


def cmd_calibrate(args) -> dict:
    slopes = _value(vars(args), "slopes", lambda v: [float(s) for s in v.split(",")])
    config = DgpConfig(
        beta=(0.0, *slopes),
        theta0=(0.0,) * (len(slopes) + 1),
        theta1=(0.0,) * (len(slopes) + 1),
        e_prob=args.e_prob,
        exclusions=not args.no_exclusions,
        x4_cut=args.x4_cut,
    )
    intercept = calibrate_intercept(config, args.target, mc_draws=args.draws, seed=args.seed)
    return {"intercept": intercept, "target_prob": args.target, "slopes": slopes}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    return obj


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extval",
        description="Transport trial treatment effects to an external "
        "target population under positivity violations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="fit scores, partition the target, estimate effects")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None, help="report JSON path (default stdout)")

    p = sub.add_parser("sensitivity", help="sweep sensitivity parameters from a report")
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True, help="analysis report JSON")
    p.add_argument("--output", default=None, help="grid CSV path (default stdout)")

    p = sub.add_parser("simulate", help="run the replication study")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None, help="study CSV path (default stdout)")
    p.add_argument("--threads", type=int, default=None,
                   help="at most this many processes (default one per CPU)")

    p = sub.add_parser("calibrate", help="solve the participation-model intercept")
    p.add_argument("--slopes", required=True, help="comma-separated non-intercept slopes")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--draws", type=int, default=2_000_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--e-prob", type=float, default=0.01)
    p.add_argument("--x4-cut", type=float, default=3.0)
    p.add_argument("--no-exclusions", action="store_true")
    p.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            report = cmd_analyze(_read_json(args.config))
            _write_text(args.output, json.dumps(report, indent=2) + "\n")
        elif args.command == "sensitivity":
            text = cmd_sensitivity(_read_json(args.config), _read_json(args.report))
            _write_text(args.output, text)
        elif args.command == "simulate":
            text = cmd_simulate(_read_json(args.config), threads=args.threads)
            _write_text(args.output, text)
        elif args.command == "calibrate":
            result = cmd_calibrate(args)
            _write_text(args.output, json.dumps(result, indent=2) + "\n")
    except ExtvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
