import concurrent.futures
import csv
import gc
import importlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extval import (
    ConfigError,
    DataError,
    GlmFamily,
    StudyReport,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    partition_population,
    trimmed_aipw,
)
from extval import cli, parallel, simulation
from extval.cli import cmd_analyze, cmd_sensitivity, evaluate_raw_rules, load_dataset, main
from extval.glm import predict_mean
from extval.partition import _membership


def _write_fixture(path, n1=120, n2=300, seed=91, flag_share=0.05):
    """Synthetic analyst export: pre-encoded indicators, one rule column."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n1 + n2):
        trial = i < n1
        x1 = rng.standard_normal() + (0.6 if trial else 0.0)
        x2 = rng.standard_normal()
        flag = 0 if trial else int(rng.random() < flag_share)
        row = {
            "selected": int(trial),
            "treat": "",
            "outcome": "",
            "x1": f"{x1:.6f}",
            "x2": f"{x2:.6f}",
            "ineligible": flag,
        }
        if trial:
            a = int(rng.random() < 0.5)
            y = 1.0 + x1 - x2 + a * (0.8 + 0.3 * x1) + rng.standard_normal()
            row["treat"] = a
            row["outcome"] = f"{y:.6f}"
        rows.append(row)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


def _config(input_path, **overrides):
    cfg = {
        "schema_version": 1,
        "input": str(input_path),
        "roles": {"s": "selected", "a": "treat", "y": "outcome", "covariates": ["x1", "x2"]},
        "outcome_family": "gaussian",
        "p3_star": 0.9,
        "epsilon": 1e-8,
        "exclusion_rules": [[{"var": "ineligible", "op": "==", "value": 1}]],
        "methods": ["trimmed_ipw", "trimmed_aipw"],
        "variance": "sandwich",
        "seed": 17,
        "sensitivity": {
            "assumption": "gpd",
            "method": "aipw",
            "k1_grid": [-2.0, 0.0, 1.0, 2.0],
            "k2_grid": [-2.0, 1.0],
        },
    }
    cfg.update(overrides)
    return cfg


def _write_cohort(path, family="gaussian", seed=(23, 5)):
    """A generated cohort of about 2,200 rows as an analyst would export it:
    s, a, y, four covariates and the eligibility flag, every digit kept."""
    dgp = simulation.DgpConfig(n_total=20_000, outcome_family=cli._FAMILIES[family])
    data, truth = simulation.generate_cohort(dgp, list(seed))
    lines = ["s,a,y,x1,x2,x3,x4,ineligible"]
    for i in range(data.n):
        ay = f"{int(data.a[i])},{float(data.y[i])!r}" if data.trial_mask[i] else ","
        covariates = ",".join(repr(float(v)) for v in data.x[i, 1:])
        lines.append(f"{int(data.s[i])},{ay},{covariates},{int(truth.e_flag[i])}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _cohort_config(input_path, **overrides):
    return _config(input_path, **{
        "roles": {"s": "s", "a": "a", "y": "y", "covariates": ["x1", "x2", "x3", "x4"]},
        "p3_star": 0.8,
        "exclusion_rules": [[{"var": "ineligible", "op": "==", "value": 1}], [{"var": "x4", "op": ">=", "value": 3.0}]],
        **overrides,
    })


def _parsed(rules):
    # a rule set as analyze parses it, given as the exclusion rules
    return cli._rule_sets({"exclusion_rules": rules})[0]["exclusion_rules"]


@pytest.fixture()
def fixture_csv(tmp_path):
    return _write_fixture(tmp_path / "cohort.csv")


def test_load_dataset_roles(fixture_csv):
    data, columns = load_dataset(str(fixture_csv), {
        "s": "selected", "a": "treat", "y": "outcome", "covariates": ["x1", "x2"],
    }, {"ineligible": "exclusion_rules"})
    assert data.n1 == 120 and data.n2 == 300
    assert data.q == 3          # intercept prepended
    assert np.all(data.x[:, 0] == 1.0)
    assert set(columns) == {"selected", "treat", "outcome", "x1", "x2", "ineligible"}
    assert all(len(cells) == 420 for cells in columns.values())
    assert np.array_equal(data.x[:, 1], [float(c) for c in columns["x1"]])


def test_load_dataset_rejects_outcome_on_target_row(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("selected,treat,outcome,x1\n1,1,2.0,0.1\n0,,1.5,0.2\n")
    with pytest.raises(Exception) as exc:
        load_dataset(str(path), {"s": "selected", "a": "treat", "y": "outcome", "covariates": ["x1"]})
    assert "role" in str(exc.value)


def test_load_dataset_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("selected,treat,outcome\n1,1,2.0\n")
    with pytest.raises(Exception) as exc:
        load_dataset(str(path), {"s": "selected", "a": "treat", "y": "outcome", "covariates": ["x9"]})
    assert "missing columns" in str(exc.value)


def test_load_dataset_rejects_repeated_column_name(tmp_path):
    # with two fields named x1, either could be the covariate the config means
    path = tmp_path / "twice.csv"
    path.write_text("s,a,y,x1,x1\n1,1,2.0,0.5,5.0\n0,,,0.25,6.0\n")
    with pytest.raises(DataError) as exc:
        load_dataset(str(path), {"s": "s", "a": "a", "y": "y", "covariates": ["x1"]})
    assert str(exc.value) == f"{path}: repeated column names ['x1']"


def test_load_dataset_wide_indicator_file(tmp_path):
    # registry-style export: many pre-encoded 0/1 indicator columns
    rng = np.random.default_rng(3)
    cols = ["age_18_24", "age_25_34", "age_35_49", "male", "race_b", "race_h",
            "inject", "alcohol"]
    path = tmp_path / "wide.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "a", "y", *cols])
        for i in range(40):
            trial = i < 15
            ind = (rng.random(len(cols)) < 0.3).astype(int).tolist()
            if trial:
                writer.writerow([1, int(rng.random() < 0.5), round(rng.random(), 4), *ind])
            else:
                writer.writerow([0, "", "", *ind])
    data, _ = load_dataset(str(path), {"s": "s", "a": "a", "y": "y", "covariates": cols})
    assert data.q == 1 + len(cols)
    assert set(np.unique(data.x[:, 1:])) <= {0.0, 1.0}


def test_load_dataset_non_numeric_covariate(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("selected,treat,outcome,x1\n1,1,2.0,abc\n0,,,0.2\n")
    with pytest.raises(Exception) as exc:
        load_dataset(str(path), {"s": "selected", "a": "treat", "y": "outcome", "covariates": ["x1"]})
    assert "non-numeric" in str(exc.value)


def test_load_dataset_error_names_file_line_past_blank_line(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("s,a,y,x1\n1,1,2.0,0.1\n\n0,,,abc\n")
    with pytest.raises(DataError) as exc:
        load_dataset(str(path), {"s": "s", "a": "a", "y": "y", "covariates": ["x1"]})
    assert "line 4:" in str(exc.value)


@pytest.mark.parametrize("bad_row", [
    "1,1,2.0,0.1",          # ragged: a field short
    "2,,,0.1,0.2",          # participation flag 2
    "1,1,,0.1,0.2",         # trial row without an outcome
    "0,,,,0.2",             # empty covariate
    "1,yes,2.0,0.1,0.2",    # non-numeric treatment
    "1,0,high,0.1,0.2",     # non-numeric outcome
    "0,nan,,0.1,0.2",       # a treatment cell on a target row
])
def test_load_dataset_rejection_names_file_line(tmp_path, bad_row):
    path = tmp_path / "bad.csv"
    path.write_text(f"s,a,y,x1,x2\n1,1,2.0,0.1,0.2\n0,,,0.3,0.4\n\n{bad_row}\n0,,,0.5,0.6\n")
    with pytest.raises(DataError) as exc:
        load_dataset(str(path), {"s": "s", "a": "a", "y": "y", "covariates": ["x1", "x2"]})
    assert str(exc.value).startswith(f"{path} line 5: ")


def test_load_dataset_reads_flag_as_number(tmp_path):
    # role cells are numbers, so a flag written 1.0 is the flag 1
    path = tmp_path / "flags.csv"
    path.write_text("s,a,y,x1\n1.0,1,2.0,0.1\n1,0,1.5,0.3\n0.0,,,0.2\n")
    data, _ = load_dataset(str(path), {"s": "s", "a": "a", "y": "y", "covariates": ["x1"]})
    assert data.s.tolist() == [1.0, 1.0, 0.0]


def test_rule_ignores_non_numeric_cell_in_unselected_row(tmp_path):
    path = tmp_path / "rules.csv"
    path.write_text("s,a,y,x1,flag\n1,1,2.0,0.1,n/a\n0,,,0.2,0\n0,,,0.3,1\n")
    data, columns = load_dataset(str(path), {"s": "s", "a": "a", "y": "y", "covariates": ["x1"]}, {"flag": "exclusion_rules"})
    mask = evaluate_raw_rules(_parsed([[{"var": "flag", "op": "==", "value": 1}]]), columns, data.target_mask)
    assert mask.tolist() == [False, True]


def test_rule_error_names_file_line_past_blank_line(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("s,a,y,x1,flag\n1,1,2.0,0.1,0\n0,,,0.2,0\n\n0,,,0.3,abc\n")
    data, columns = load_dataset(str(path), {"s": "s", "a": "a", "y": "y", "covariates": ["x1"]}, {"flag": "exclusion_rules"})
    with pytest.raises(DataError) as exc:
        evaluate_raw_rules(_parsed([[{"var": "flag", "op": "==", "value": 1}]]), columns, data.target_mask)
    assert "line 5:" in str(exc.value)


def test_rule_reads_spelled_out_nan_only_in_selected_rows(tmp_path):
    # NaN is how a blank cell reads, so a spelled-out nan is no number: it is
    # rejected, with its line, in a row the rule selects, and never read in
    # a row it does not select
    path = tmp_path / "nan.csv"
    path.write_text("s,a,y,x1,flag\n1,1,2.0,0.1,nan\n0,,,0.2,1\n\n0,,,0.3,NaN\n")
    data, columns = load_dataset(str(path), {"s": "s", "a": "a", "y": "y", "covariates": ["x1"]}, {"flag": "exclusion_rules"})
    rule = _parsed([[{"var": "flag", "op": "==", "value": 1}]])
    assert evaluate_raw_rules(rule, columns, np.array([False, True, False])).tolist() == [True]
    for rows, line, cell in ((data.target_mask, 5, "NaN"), (data.trial_mask, 2, "nan")):
        with pytest.raises(DataError) as exc:
            evaluate_raw_rules(rule, columns, rows)
        assert str(exc.value) == f"{path} line {line}: non-numeric value {cell!r} in column 'flag'"


# -- batch-wise ingest --------------------------------------------------------

# a line per batch, a few lines per batch, and the default
BATCH_SIZES = [1, 40, cli.BATCH_BYTES]
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**12, 10**12).map(str),
    st.builds("{}{}{}".format, st.integers(-999, 999), st.sampled_from("eE"), st.integers(-330, 305)),
)
# a number as an export may spell it: a "+" sign, padding spaces or tabs
_CELL = st.builds(
    lambda pad, plus, number, tail: pad + ("" if number[0] == "-" else plus) + number + tail,
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "+"]), _NUMBER, st.sampled_from(["", " "]),
)
# a blank line before, a trial row, spaces in its blank cells, y, x1, note
_ROW = st.tuples(st.booleans(), st.booleans(), st.sampled_from(["", " "]), _CELL, _CELL, _CELL)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("batch", BATCH_SIZES)
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(rows=st.lists(_ROW, min_size=1, max_size=10))
def test_load_dataset_parses_like_float_bit_for_bit(tmp_path_factory, batch, rows):
    path = tmp_path_factory.mktemp("blocks") / "cells.csv"
    text, lines, line = ["s,a,y,x1,note"], [], 1
    for blank, trial, space, y, x1, note in rows:
        if blank:
            text.append("")
            line += 1
        text.append(f"1,1,{y},{x1},{note}" if trial else f"0,{space},{space},{x1},{note}")
        line += 1
        lines.append(line)
    path.write_text("\n".join(text) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "BATCH_BYTES", batch)
        data, columns = load_dataset(str(path), {"s": "s", "a": "a", "y": "y", "covariates": ["x1"]}, {"note": "exclusion_rules"})
    trial = [r[1] for r in rows]
    assert columns.lines.tolist() == lines
    assert _bits(data.s) == _bits([float(t) for t in trial])
    assert _bits(data.y) == _bits([float(r[3]) if t else np.nan for r, t in zip(rows, trial)])
    assert _bits(data.x[:, 1]) == _bits([float(r[4]) for r in rows])
    # a column no role names is parsed the same way, and keeps no text
    assert _bits(columns["note"]) == _bits([float(r[5]) for r in rows])
    assert columns.text == {}


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("fault, message", [
    ("0,,,0.5", "the header has 5 fields"),
    ("0,,,0.5,0.6,0.7", "the header has 5 fields"),
    ("0,,,0.5,abc", "non-numeric value 'abc' in column 'x2'"),
    ("0,,, nan ,0.6", "non-numeric value 'nan' in column 'x1'"),
])
def test_load_dataset_fault_past_first_batch_names_its_line(tmp_path, monkeypatch, batch, fault, message):
    # a batch and more of good rows, a blank line, a good row, then the
    # fault: the blank line and the fault both lie past the first batch
    path = tmp_path / "late.csv"
    good = "0,,,0.3,0.4\n"
    rows = batch // len(good) + 1
    path.write_text("s,a,y,x1,x2\n1,1,2.0,0.1,0.2\n" + good * rows + "\n" + good + fault + "\n" + good)
    line = rows + 5
    monkeypatch.setattr(cli, "BATCH_BYTES", batch)
    with pytest.raises(DataError) as exc:
        load_dataset(str(path), {"s": "s", "a": "a", "y": "y", "covariates": ["x1", "x2"]})
    assert str(exc.value) == f"{path} line {line}: {message}"


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("faults, line, message", [
    # the first faulty row in file order, whatever its kind
    (["0,,,0.5,abc", "0,,,0.5"], 5, "non-numeric value 'abc' in column 'x2'"),
    (["0,,,0.5", "0,,,0.5,abc"], 5, "the header has 5 fields"),
    (["x,,,0.5,0.6", "0,,,abc,0.6"], 5, "non-numeric value 'x' in column 's'"),
    # within a row, a field count first, then columns in header order
    (["0,,,abc", "0,,,0.5"], 5, "the header has 5 fields"),
    (["0,,,abc,def", "0,,,0.5"], 5, "non-numeric value 'abc' in column 'x1'"),
    (["0,,,0.5,0.6", "0,,,abc,def"], 6, "non-numeric value 'abc' in column 'x1'"),
    # past a quoted cell that spans two lines, across a batch boundary at 1
    # and 40 bytes
    (['0,,,0.5,"0.6\n"', "0,,,abc,0.6"], 7, "non-numeric value 'abc' in column 'x1'"),
])
def test_load_dataset_reports_first_fault(tmp_path, monkeypatch, batch, faults, line, message):
    path = tmp_path / "faults.csv"
    path.write_text("s,a,y,x1,x2\n1,1,2.0,0.1,0.2\n0,,,0.3,0.4\n\n" + "\n".join(faults) + "\n")
    monkeypatch.setattr(cli, "BATCH_BYTES", batch)
    with pytest.raises(DataError) as exc:
        load_dataset(str(path), {"s": "s", "a": "a", "y": "y", "covariates": ["x1", "x2"]})
    assert str(exc.value) == f"{path} line {line}: {message}"


# cells that numpy's reader reads otherwise than the csv module, or that
# only the csv module can name as faults
_ODD_CELL = st.sampled_from(['"1.5"', '" 2"', '"1,5"', " NaN", "1_000", "\u0661\u0662", "#5", "", " ", "abc"])
# in a row: an odd cell in field 1 to 4, a spelled-out nan as its treatment
# or outcome, a quoted note that holds a line of its own, a field short or
# long, one short and the next long, or a line of spaces before it
_ODDITY = st.tuples(st.sampled_from(["cell", "nan", "lines", "short", "long", "both", "spaces"]),
                    st.integers(0, 7), st.integers(1, 4), _ODD_CELL)
_FIVE_COLUMNS = {"s": "s", "a": "a", "y": "y", "covariates": ["x1"]}


@st.composite
def _csv_file(draw):
    """The bytes of a CSV of columns s, a, y, x1 and note, with up to two
    oddities, and whether it is plain: no oddity and a data row."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        trial, space = draw(st.booleans()), draw(st.sampled_from(["", " "]))
        y, x1, note = draw(_CELL), draw(_CELL), draw(_CELL)
        rows.append(["1", "1", y, x1, note] if trial else ["0", space, space, x1, note])
    oddities = draw(st.lists(_ODDITY, max_size=2)) if rows else []
    before = [""] * len(rows)
    # cells are set before any row is cut short or made long
    for kind, i, field, cell in sorted(oddities, key=lambda oddity: oddity[0] in ("short", "long", "both")):
        row, after = rows[i % len(rows)], rows[(i + 1) % len(rows)]
        if kind == "cell":
            row[field] = cell
        elif kind == "nan":
            row[1 + field % 2] = "nan"
        elif kind == "lines":
            row[-1] = '"1\n0,,,0.5,2"'
        elif kind == "spaces":
            before[i % len(rows)] = " \n"
        if kind in ("short", "both"):
            del row[-1]
        if kind in ("long", "both"):
            (after if kind == "both" else row).append("9")
    blank = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["s,a,y,x1,note"] + [
        ("\n" if gap else "") + spaces + ",".join(row) for gap, spaces, row in zip(blank, before, rows)
    ]
    bom = draw(st.sampled_from(["", "\ufeff"]))
    text = bom + "\n".join(lines) + "\n"
    return text.replace("\n", newline).encode(), bool(rows) and not oddities


real_parse_block = cli._parse_block


def _refuse(*args, **kwargs):
    raise ValueError("numpy's reader is off")


def _loaded(path, names, numpy: bool = True):
    """What ``load_dataset`` gives, with numpy's reader on or off: the
    arrays' bits, the cells' text and lines, or the error's text; and how
    many batches the csv module read."""
    parsed = []
    with pytest.MonkeyPatch.context() as mp:
        if not numpy:
            mp.setattr(np, "loadtxt", _refuse)
        mp.setattr(cli, "_parse_block", lambda *args: parsed.append(args) or real_parse_block(*args))
        try:
            data, columns = load_dataset(str(path), _FIVE_COLUMNS, names)
        except DataError as exc:
            return str(exc), len(parsed)
    arrays = {name: _bits(values) for name, values in columns.items()}
    return (arrays, _bits(data.x), columns.text, columns.lines.tolist()), len(parsed)


# a quoted note that holds a line of its own, on the fourth line of the first
# 40-byte batch, so the csv module reads on into the next batch's lines
_STRADDLE = b"s,a,y,x1,note\n" + b"0,,,0.5,1\n" * 3 + b'0,,,0.5,"1\n0,,,0.5,2"\n'


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(file=_csv_file(), names=st.sampled_from([{}, {"note": "exclusion_rules"}]), batch=st.sampled_from(BATCH_SIZES))
# rows a field short and a field long, whose commas add up, past a column
# that is not read
@example(file=(b"s,a,y,x1,note\n0,,,0.5\n0,,,0.5,1,9\n", False), names={}, batch=1)
# an outcome cell longer than numpy's byte field for it
@example(file=(b"s,a,y,x1,note\n1,1,+" + b"0" * cli.CELL_BYTES + b"1.5,0.5,1\n0,,,0.5,2\n", False),
         names={}, batch=1)
# treatment and outcome cells of spaces alone on target rows, which numpy
# still reads
@example(file=(b"s,a,y,x1,note\n1,1,2.5,0.5,1\n0, ,  ,0.5,2\n0,\t, \t,0.25,3\n", True),
         names={"note": "exclusion_rules"}, batch=1)
# a spelled-out nan outcome
@example(file=(b"s,a,y,x1,note\n0,,,0.5,2\n1,1,nan,0.5,1\n", False), names={}, batch=40)
# a quoted cell that straddles two batches, then a numpy batch
@example(file=(_STRADDLE + b"0,,,0.5,3\n1,1,2.5,0.5,4\n", False), names={"note": "exclusion_rules"}, batch=40)
# a fault past that cell, in the next batch
@example(file=(_STRADDLE + b"0,,,0.5,3\n0,,,abc,4\n", False), names={}, batch=40)
# a batch whose last column numpy refuses, once every column before it has
# been read, between batches that numpy reads
@example(file=(b"s,a,y,x1,note\n1,1,2.5,0.5,1\n0,,,0.25,nan\n0,,,0.75,3\n", False),
         names={"note": "exclusion_rules"}, batch=1)
def test_numpy_reader_agrees_with_the_csv_module(tmp_path_factory, file, names, batch):
    # the reference is the csv module alone, on one default batch: on every
    # file the load gives the same arrays, text and lines bit for bit, or
    # the same error
    content, plain = file
    path = tmp_path_factory.mktemp("differential") / "cells.csv"
    path.write_bytes(content)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "BATCH_BYTES", batch)
        got, parsed = _loaded(path, names)
    reference, _ = _loaded(path, names, numpy=False)
    assert got == reference
    # a plain file is numpy's to read, whether or not it loads
    assert parsed == 0 or not plain


def test_load_dataset_reads_a_late_quote_in_one_pass(tmp_path, monkeypatch):
    # the file's only quote is in its last row: the file is opened once,
    # numpy reads every batch before the last, and the csv module the last
    path = tmp_path / "late_quote.csv"
    path.write_text("s,a,y,x1,note\n1,1,2.5,0.5,0\n" + "".join(f"0,,,0.{i},{i}\n" for i in range(1, 10))
                    + '0,,,0.25,"7"\n')
    opened, loaded, parsed = [], [], []
    real_loadtxt = np.loadtxt
    monkeypatch.setattr(cli, "BATCH_BYTES", 40)
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: opened.append(args[0]) or open(*args, **kwargs),
                        raising=False)
    monkeypatch.setattr(np, "loadtxt", lambda batch, **kwargs: loaded.append(len(batch)) or real_loadtxt(batch, **kwargs))
    monkeypatch.setattr(cli, "_parse_block", lambda rows, *args: parsed.append(len(rows)) or real_parse_block(rows, *args))
    data, columns = load_dataset(str(path), _FIVE_COLUMNS, {"note": "exclusion_rules"})
    assert opened == [str(path)]
    # a batch ends with the line that takes it past 40 bytes: a 14-byte line
    # and three 10-byte ones, five 10-byte lines, then the last two lines
    assert loaded == [4, 5] and parsed == [2]
    assert columns.lines.tolist() == list(range(2, 13))
    assert columns["note"].tolist() == [0.0, *range(1, 10), 7.0]


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_header_and_blank_lines_alone_hold_no_data_rows(tmp_path, monkeypatch, batch):
    path = tmp_path / "blank.csv"
    path.write_text("s,a,y,x1\n\n\r\n\n", newline="")
    monkeypatch.setattr(cli, "BATCH_BYTES", batch)
    with pytest.raises(DataError) as exc:
        load_dataset(str(path), _FIVE_COLUMNS)
    assert str(exc.value) == f"{path}: no data rows"


def test_numpy_reader_parses_the_bench_csv_without_converters(tmp_path, monkeypatch):
    # the benchmark's registry CSV is read by numpy's C reader alone: no
    # Python function is called per cell
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    path = tmp_path / "cohort.csv"
    workloads.write_cohort_csv(path, workloads.SMALL["analyze-registry"].n_total, [1, 0])
    calls, parsed = [], []
    real_loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt",
                        lambda *args, **kwargs: calls.append(kwargs) or real_loadtxt(*args, **kwargs))
    monkeypatch.setattr(cli, "_parse_block", lambda *args: parsed.append(args) or real_parse_block(*args))
    data, _ = load_dataset(str(path), workloads.ROLES, cli._rule_sets(workloads.analyze_config(path))[1])
    assert not parsed and data.n1 > 0
    assert calls and all(kwargs.get("converters") is None for kwargs in calls)


def test_load_dataset_reads_only_the_named_columns(tmp_path):
    # a text column that no rule names is never parsed, so numpy's reader
    # still reads the file
    path = tmp_path / "named.csv"
    path.write_text("s,a,y,x1,comment,flag\n1,1,2.0,0.1,first visit,0\n0,,,0.2,n/a,1\n")
    parsed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse_block", lambda *args: parsed.append(args) or real_parse_block(*args))
        data, columns = load_dataset(str(path), _FIVE_COLUMNS, {"flag": "exclusion_rules"})
    assert not parsed
    assert set(columns) == {"s", "a", "y", "x1", "flag"}
    assert columns["flag"].tolist() == [0.0, 1.0]


def test_load_dataset_rejects_unknown_named_column_before_reading_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("s,a,y,x1\n1,1,2.0,abc\n")
    with pytest.raises(ConfigError) as exc:
        load_dataset(str(path), _FIVE_COLUMNS, {"nope": "exclusion_rules"})
    assert str(exc.value) == "exclusion_rules: rule references unknown column 'nope'"


@pytest.mark.parametrize("rules", ["none", "exclusion"])
def test_filter_on_unknown_column_fails_before_rows_are_read(fixture_csv, rules):
    # a filter's column is checked against the header before the bad last
    # row is read, even where group 1 is empty (no exclusion rule) and the
    # filter would never run
    with open(fixture_csv, "a") as fh:
        fh.write("0,,,abc,0.1,0\n")
    cfg = _config(fixture_csv, **({"exclusion_rules": []} if rules == "none" else {}))
    cfg["sensitivity"]["extrapolation"] = {"r2_trial_filter": [[{"var": "nope", "op": "==", "value": 1}]]}
    with pytest.raises(ConfigError) as exc:
        cmd_analyze(cfg)
    assert str(exc.value) == "sensitivity.extrapolation.r2_trial_filter: rule references unknown column 'nope'"


@pytest.mark.parametrize("odd_line", ["", '0,,,"0.5"'])
def test_load_dataset_reads_utf8_with_byte_order_mark(tmp_path, odd_line):
    # Excel writes a byte-order mark; it is not part of the first name,
    # whichever parser reads the rows
    path = tmp_path / "excel.csv"
    path.write_text("s,a,y,x1\n1,1,2.0,0.5\n" + odd_line + "\n0,,,0.25\n", encoding="utf-8-sig")
    data, columns = load_dataset(str(path), _FIVE_COLUMNS)
    assert data.s.tolist() == [1.0, 0.0, 0.0][: data.n] and "s" in columns
    assert columns.lines.tolist() == ([2, 4] if odd_line == "" else [2, 3, 4])


def test_load_dataset_leaves_the_collector_as_it_found_it(tmp_path, fixture_csv):
    bad = tmp_path / "bad.csv"
    bad.write_text("selected,treat,outcome,x1,x2\n0,,,abc,0.1\n")
    roles = {"s": "selected", "a": "treat", "y": "outcome", "covariates": ["x1", "x2"]}
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            load_dataset(str(fixture_csv), roles)
            assert gc.isenabled() == enabled
            with pytest.raises(DataError):
                load_dataset(str(bad), roles)
            assert gc.isenabled() == enabled
    finally:
        gc.enable()


def _registry_csv(path, n, codes=0):
    """A registry-style export of ``n`` rows, every value at full precision,
    with ``codes`` trailing columns of integer codes from -9 to 29."""
    rng = np.random.default_rng(23)
    trial = rng.random(n) < 0.1
    x = rng.standard_normal((n, 4))
    flag = (rng.random(n) < 0.01).astype(int)
    extra = rng.integers(-9, 30, (n, codes)).astype(str)
    lines = [",".join(["s,a,y,x1,x2,x3,x4,ineligible", *(f"code{j}" for j in range(codes))])]
    for i in range(n):
        ay = f"{int(rng.random() < 0.5)},{rng.standard_normal()!r}" if trial[i] else ","
        lines.append(",".join([f"{int(trial[i])},{ay}", *map(repr, x[i].tolist()), str(flag[i]), *extra[i]]))
    path.write_text("\n".join(lines) + "\n")
    return path


REGISTRY_ROLES = {"s": "s", "a": "a", "y": "y", "covariates": ["x1", "x2", "x3", "x4"]}


def _load_peak(path, names=None):
    tracemalloc.start()
    try:
        data, _ = load_dataset(str(path), REGISTRY_ROLES, names)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(getattr(data, name).nbytes for name in ("s", "a", "y", "x"))


def test_load_dataset_memory_is_a_few_times_its_arrays(tmp_path):
    # about 20k rows; parsing must not hold the file's text
    peak, arrays = _load_peak(_registry_csv(tmp_path / "registry.csv", 20_000))
    assert peak <= 4 * arrays, f"peak {peak} bytes against {arrays} bytes of arrays"


def test_load_dataset_memory_ignores_columns_no_rule_names(tmp_path):
    # 40 columns of codes that no rule names cost the load nothing to keep
    path = _registry_csv(tmp_path / "wide.csv", 20_000, codes=40)
    config = _config(path, exclusion_rules=[[{"var": "ineligible", "op": "==", "value": 1}]])
    peak, arrays = _load_peak(path, cli._rule_sets(config)[1])
    assert peak <= 4 * arrays, f"peak {peak} bytes against {arrays} bytes of arrays"


def test_analyze_report_contents(fixture_csv):
    report = cmd_analyze(_config(fixture_csv))
    assert report["n1"] == 120 and report["n2"] == 300
    part = report["partition"]
    assert sum(part["p_hat"]) == pytest.approx(1.0, abs=1e-9)
    assert part["p_hat"][2] == pytest.approx(0.9, abs=1e-6)
    hist = report["sampling_score_histogram"]
    assert sum(hist["trial_counts"]) == 120
    assert sum(hist["target_counts"]) == 300
    methods = {(e["method"], e["trimmed"]) for e in report["estimates"]}
    assert methods == {("ipw", True), ("aipw", True)}
    assert "zeta1" in report["zeta"] and "zeta2" in report["zeta"]


def test_analyze_matches_library_exactly(fixture_csv):
    report = cmd_analyze(_config(fixture_csv))
    data, columns = load_dataset(str(fixture_csv), {
        "s": "selected", "a": "treat", "y": "outcome", "covariates": ["x1", "x2"],
    }, {"ineligible": "exclusion_rules"})
    flags = np.array([float(c) for c in columns["ineligible"]])[data.target_mask]
    sampling = fit_sampling_score(data)
    propensity = fit_propensity_score(data)
    outcome = fit_outcome_models(data, GlmFamily.GAUSSIAN_IDENTITY)
    part = partition_population(data, sampling, propensity, flags == 1.0, 0.9)
    rep = trimmed_aipw(data, sampling, propensity, outcome, part)
    entry = next(e for e in report["estimates"] if e["method"] == "aipw")
    assert entry["estimate"] == rep.estimate
    assert entry["se"] == rep.se
    assert entry["ci"] == [rep.ci_low, rep.ci_high]
    assert entry["delta_star"] == part.delta_star


def test_analyze_full_share_trimmed_equals_untrimmed(fixture_csv):
    cfg = _config(fixture_csv, p3_star=1.0, exclusion_rules=[],
                  methods=["aipw", "trimmed_aipw"])
    report = cmd_analyze(cfg)
    est = {e["trimmed"]: e["estimate"] for e in report["estimates"]}
    assert abs(est[True] - est[False]) <= 1e-9


def test_analyze_bootstrap_variance(fixture_csv):
    cfg = _config(fixture_csv, variance="bootstrap", bootstrap_reps=120,
                  methods=["trimmed_aipw"])
    report = cmd_analyze(cfg)
    entry = report["estimates"][0]
    assert entry["variance_method"] == "bootstrap"
    assert entry["ci"][0] < entry["estimate"] < entry["ci"][1]


def test_bootstrap_requires_seed(fixture_csv):
    cfg = _config(fixture_csv, variance="bootstrap")
    del cfg["seed"]
    with pytest.raises(Exception) as exc:
        cmd_analyze(cfg)
    assert "seed" in str(exc.value)


def test_sensitivity_grid_csv(fixture_csv):
    cfg = _config(fixture_csv)
    report = cmd_analyze(cfg)
    text = cmd_sensitivity(cfg, report)
    lines = text.strip().splitlines()
    assert lines[0] == "k1,k2,assumption,tau_hat,ci_low,ci_high"
    assert len(lines) == 1 + 4 * 2
    ks = {tuple(line.split(",")[:2]) for line in lines[1:]}
    assert ("1.0", "1.0") in ks    # baseline row always present
    entry = next(e for e in report["estimates"] if e["method"] == "aipw")
    baseline = next(line for line in lines[1:] if line.startswith("1.0,1.0,"))
    assert float(baseline.split(",")[3]) == pytest.approx(entry["estimate"], abs=1e-12)


def test_sensitivity_missing_method_errors(fixture_csv):
    cfg = _config(fixture_csv, methods=["trimmed_ipw"])
    report = cmd_analyze(cfg)
    with pytest.raises(Exception) as exc:
        cmd_sensitivity(cfg, report)
    assert "no trimmed aipw" in str(exc.value)


@pytest.mark.parametrize("variance", ["sandwich", "bootstrap"])
def test_sensitivity_grid_transforms_the_report_interval(fixture_csv, variance):
    # GPD and EPD are affine in tau3 at fixed shares and extrapolations, so
    # each row's interval is the report's own (Wald or percentile) interval
    # carried through that map
    cfg = _config(fixture_csv, methods=["trimmed_aipw"], variance=variance, bootstrap_reps=100)
    report = cmd_analyze(cfg)
    entry = report["estimates"][0]
    assert entry["variance_method"] == variance
    gpd = cmd_sensitivity(cfg, report)
    baseline = next(line for line in gpd.splitlines() if line.startswith("1.0,1.0,"))
    assert [float(v) for v in baseline.split(",")[4:]] == entry["ci"]
    cfg["sensitivity"]["assumption"] = "epd"
    p1, p2, p3 = entry["p_hat"]
    zeta = report["zeta"]
    for row in csv.DictReader(cmd_sensitivity(cfg, report).splitlines()):
        shift = p1 * float(row["k1"]) * zeta["zeta1"] + p2 * float(row["k2"]) * zeta["zeta2"]
        assert [float(row["ci_low"]), float(row["ci_high"])] == [shift + p3 * end for end in entry["ci"]]


def _without(report, key):
    return dict(report, estimates=[{k: v for k, v in e.items() if k != key} for e in report["estimates"]])


def _roles(**change):
    return {"roles": {**_config("")["roles"], **change}}


def _filters(**filters):
    return {"sensitivity": {**_config("")["sensitivity"], "extrapolation": filters}}


_BAD_PREDICATE = {"var": "ineligible", "op": "in", "value": 1}


MALFORMED = {
    "analyze roles covariates number": ("analyze", _roles(covariates=5)),
    "analyze roles covariates text": ("analyze", _roles(covariates="x1")),
    "analyze roles s number": ("analyze", _roles(s=5)),
    "analyze roles covariates with a number": ("analyze", _roles(covariates=["x1", 3])),
    "analyze roles covariates repeated": ("analyze", _roles(covariates=["x1", "x1", "x2"])),
    "analyze roles s also a covariate": ("analyze", _roles(covariates=["x1", "selected"])),
    "analyze roles a on the outcome column": ("analyze", _roles(a="outcome")),
    "analyze roles s on a covariate column": ("analyze", _roles(s="x1")),
    "analyze p3_star text": ("analyze", {"p3_star": "0.8"}),
    "analyze epsilon text": ("analyze", {"epsilon": "abc"}),
    "analyze epsilon zero": ("analyze", {"epsilon": 0}),
    "analyze epsilon negative": ("analyze", {"epsilon": -1e-8}),
    "analyze epsilon infinite": ("analyze", {"epsilon": float("inf")}),
    "analyze bootstrap_reps text": ("analyze", {"variance": "bootstrap", "bootstrap_reps": "x"}),
    "analyze seed text": ("analyze", {"variance": "bootstrap", "seed": "x"}),
    "analyze seed negative": ("analyze", {"variance": "bootstrap", "seed": -1}),
    "analyze bootstrap_reps fraction": ("analyze", {"variance": "bootstrap", "bootstrap_reps": 100.5}),
    "analyze seed bool": ("analyze", {"variance": "bootstrap", "seed": True}),
    # the bootstrap's values are refused before a bad last row is read
    "analyze bootstrap_reps fraction before rows": (
        "analyze bad rows", {"variance": "bootstrap", "bootstrap_reps": 100.5}),
    "analyze bootstrap_reps below 100 before rows": (
        "analyze bad rows", {"variance": "bootstrap", "bootstrap_reps": 50}),
    "analyze seed negative before rows": ("analyze bad rows", {"variance": "bootstrap", "seed": -1}),
    "analyze known_propensity text": ("analyze", {"known_propensity": "x"}),
    # the known propensity and the extrapolation block's type are refused
    # before a bad last row is read
    "analyze known_propensity text before rows": ("analyze bad rows", {"known_propensity": "x"}),
    "analyze known_propensity above one before rows": ("analyze bad rows", {"known_propensity": 1.5}),
    "analyze extrapolation number before rows": (
        "analyze bad rows", {"sensitivity": {**_config("")["sensitivity"], "extrapolation": 7}}),
    "analyze outcome_family list": ("analyze", {"outcome_family": ["gaussian"]}),
    # a number would name an open file descriptor, not a file
    "analyze input number before rows": ("analyze bad rows", {"input": 5}),
    "analyze sensitivity list before rows": ("analyze bad rows", {"sensitivity": [1]}),
    # a list of pairs is no object, and a string no list
    "analyze roles pairs before rows": ("analyze bad rows", {"roles": [["s", "selected"], ["a", "treat"]]}),
    "analyze methods text before rows": ("analyze bad rows", {"methods": "ipw"}),
    # every rule set, and every number, is refused before a bad last row is
    # read, a filter that no estimate would evaluate included
    "analyze exclusion comparator before rows": (
        "analyze bad rows", {"exclusion_rules": [[{"var": "ineligible", "op": "~=", "value": 1}]]}),
    "analyze exclusion comparator list before rows": (
        "analyze bad rows", {"exclusion_rules": [[{"var": "ineligible", "op": ["=="], "value": 1}]]}),
    "analyze r2 filter without aipw before rows": (
        "analyze bad rows", {"methods": ["trimmed_ipw"], **_filters(r2_trial_filter=[[_BAD_PREDICATE]])}),
    "analyze r1 filter object before rows": (
        "analyze bad rows", _filters(r1_trial_filter={"var": "ineligible", "op": "==", "value": 0})),
    "analyze r2 filter with group 1 empty before rows": (
        "analyze bad rows", {"exclusion_rules": [], **_filters(r2_trial_filter=[[_BAD_PREDICATE]])}),
    "analyze bootstrap r1 filter text before rows": (
        "analyze bad rows", {"variance": "bootstrap", **_filters(r1_trial_filter="1")}),
    "analyze bootstrap r1 filter value text before rows": ("analyze bad rows", {
        "variance": "bootstrap", **_filters(r1_trial_filter=[[{"var": "ineligible", "op": "==", "value": "1"}]])}),
    "analyze epsilon number text before rows": ("analyze bad rows", {"epsilon": "1e-8"}),
    "analyze epsilon bool before rows": ("analyze bad rows", {"epsilon": True}),
    "analyze p3_star bool before rows": ("analyze bad rows", {"p3_star": True}),
    "sensitivity k1_grid text": ("sensitivity", {"k1_grid": "abc"}),
    "sensitivity k1_grid number": ("sensitivity", {"k1_grid": 5}),
    "sensitivity k1_grid of text": ("sensitivity", {"k1_grid": ["1"]}),
    "sensitivity k1_grid with a bool": ("sensitivity", {"k1_grid": [True, 2]}),
    "sensitivity block number": ("sensitivity", 5),
    "sensitivity block pairs": ("sensitivity", [["assumption", "gpd"], ["method", "aipw"]]),
    "report record empty": ("report", lambda report: {"estimates": [{}]}),
    "report record without estimate": ("report", lambda report: _without(report, "estimate")),
    "report estimates number": ("report", lambda report: {"estimates": 5}),
    "report p_hat of two": ("report", lambda report: dict(report, estimates=[
        dict(e, p_hat=e["p_hat"][:2]) for e in report["estimates"]])),
    "report zeta1 text under epd": ("epd report", lambda report: dict(
        report, zeta=dict(report["zeta"], zeta1="x"))),
    "simulate sizes of text": ("simulate", {"sizes": ["abc"]}),
    "simulate sizes empty": ("simulate", {"sizes": []}),
    "simulate seed text": ("simulate", {"seed": "x"}),
    "simulate p3_star number": ("simulate", {"p3_star": 0.8}),
    "simulate p3_star text": ("simulate", {"p3_star": "x"}),
    "simulate p3_star above one": ("simulate", {"p3_star": [1.5]}),
    "simulate p3_star bool": ("simulate", {"p3_star": [True]}),
    "simulate sizes negative": ("simulate", {"sizes": [-5]}),
    "simulate sizes negative second": ("simulate", {"sizes": [20000, -5]}),
    "simulate sizes text": ("simulate", {"sizes": "20000"}),
    "simulate methods text": ("simulate", {"methods": "ipw"}),
    "simulate seed negative": ("simulate", {"seed": -1}),
    "simulate seed fraction": ("simulate", {"seed": 1.9}),
    "simulate replications fraction": ("simulate", {"replications": 2.9}),
    "simulate sizes fraction": ("simulate", {"sizes": [20000.7]}),
    "simulate oracle_draws fraction": ("simulate", {"oracle_draws": 250000.9}),
    "calibrate no draws": ("calibrate", ["--slopes", "0,0", "--draws", "0"]),
    "calibrate slopes text": ("calibrate", ["--slopes=a,b"]),
    "calibrate seed negative": ("calibrate", ["--slopes", "0,0", "--seed", "-1"]),
}


# what the error of a case must name: its key, or the seed
NAMED = {
    "analyze seed negative": "seed must be a non-negative integer, got -1",
    "simulate p3_star text": "'p3_star'",
    "simulate p3_star above one": "p3_star must lie in (0, 1], got 1.5",
    "simulate sizes negative": "n_total must be at least 1, got -5",
    "simulate sizes negative second": "n_total must be at least 1, got -5",
    "simulate sizes text": "'sizes'",
    "simulate methods text": "'methods'",
    "simulate seed negative": "seed must be a non-negative integer, got -1",
    "analyze bootstrap_reps fraction": "'bootstrap_reps' has a malformed value 100.5",
    "analyze bootstrap_reps fraction before rows": "'bootstrap_reps' has a malformed value 100.5",
    "analyze bootstrap_reps below 100 before rows": "bootstrap needs at least 100 replicates",
    "analyze seed negative before rows": "seed must be a non-negative integer, got -1",
    "analyze seed bool": "'seed' has a malformed value True",
    "analyze known_propensity text before rows": "'known_propensity' has a malformed value 'x'",
    "analyze known_propensity above one before rows": "known_propensity must be null or a number in (0, 1), got 1.5",
    "analyze extrapolation number before rows": "sensitivity.extrapolation 7 is not an object of trial filters",
    "analyze input number before rows": "input must be a file name, got 5",
    "analyze sensitivity list before rows": "'sensitivity' has a malformed value [1]",
    "analyze roles pairs before rows": "'roles' has a malformed value [['s', 'selected'], ['a', 'treat']]",
    "analyze methods text before rows": "'methods' has a malformed value 'ipw'",
    "sensitivity block pairs": "'sensitivity' has a malformed value [['assumption', 'gpd'], ['method', 'aipw']]",
    "analyze exclusion comparator before rows": "exclusion_rules: unknown comparator '~=' in rule",
    "analyze exclusion comparator list before rows": "exclusion_rules: unknown comparator ['=='] in rule",
    "analyze r2 filter without aipw before rows": "sensitivity.extrapolation.r2_trial_filter: rule 'ineligible' in",
    "analyze r1 filter object before rows": "sensitivity.extrapolation.r1_trial_filter: {",
    "analyze r2 filter with group 1 empty before rows": "sensitivity.extrapolation.r2_trial_filter: rule 'ineligible' in",
    "analyze bootstrap r1 filter text before rows": "sensitivity.extrapolation.r1_trial_filter: '1' is not a list",
    "analyze bootstrap r1 filter value text before rows":
        "sensitivity.extrapolation.r1_trial_filter: rule 'ineligible' == needs a number, got '1'",
    "analyze epsilon number text before rows": "'epsilon' has a malformed value '1e-8'",
    "analyze epsilon bool before rows": "'epsilon' has a malformed value True",
    "analyze p3_star bool before rows": "'p3_star' has a malformed value True",
    "sensitivity k1_grid with a bool": "'k1_grid' has a malformed value [True, 2]",
    "simulate p3_star bool": "'p3_star' has a malformed value [True]",
    "simulate seed fraction": "'seed' has a malformed value 1.9",
    "simulate replications fraction": "'replications' has a malformed value 2.9",
    "simulate sizes fraction": "'sizes' has a malformed value [20000.7]",
    "simulate oracle_draws fraction": "'oracle_draws' has a malformed value 250000.9",
    "calibrate seed negative": "seed must be a non-negative integer, got -1",
}


@pytest.mark.parametrize("case", MALFORMED)
def test_main_rejects_malformed_value(tmp_path, fixture_csv, capsys, monkeypatch, case):
    kind, change = MALFORMED[case]
    cfg = _config(fixture_csv)
    cfg_path, report_path = tmp_path / "cfg.json", tmp_path / "report.json"
    entered = []

    def never(*args, **kwargs):
        entered.append(args)
        raise AssertionError("a malformed value is refused before this is entered")

    if kind.startswith("analyze"):
        args = ["analyze", "--config", cfg_path]
        cfg.update(change)
        if kind == "analyze bad rows":
            # a non-numeric role cell, which would exit 3 once read
            with open(fixture_csv, "a") as fh:
                fh.write("0,,,abc,0.1,0\n")
            monkeypatch.setattr(cli, "load_dataset", never)
    elif kind == "simulate":
        args = ["simulate", "--config", cfg_path]
        cfg = {"schema_version": 1, "sizes": [20000], "replications": 2, "seed": 5, **change}
        monkeypatch.setattr(cli, "run_study", never)
    elif kind == "calibrate":
        args = ["calibrate", "--target", "0.5", "--seed", "3", *change]
    else:
        args = ["sensitivity", "--config", cfg_path, "--report", report_path]
        report = cmd_analyze(cfg)
        if kind.endswith("report"):
            report = change(report)
            if kind == "epd report":
                cfg["sensitivity"]["assumption"] = "epd"
        else:
            cfg["sensitivity"] = change if not isinstance(change, dict) else {**cfg["sensitivity"], **change}
        report_path.write_text(json.dumps(report))
    cfg_path.write_text(json.dumps(cfg))
    assert _run_main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert NAMED.get(case, "") in err[0]
    assert not entered


def test_load_dataset_names_a_column_given_two_roles(fixture_csv):
    with pytest.raises(ConfigError, match="column 'x1' is given two roles, 's' and 'covariates'"):
        load_dataset(fixture_csv, _roles(s="x1")["roles"])


def _run_main(args):
    return main([str(a) for a in args])


def _attainable_mass(cfg) -> float:
    """The smoothed share of the target rows at delta = 0 under the config's
    fits, without exclusions: at this p3* the threshold is pinned at 0."""
    data, _ = load_dataset(cfg["input"], cfg["roles"])
    family = cli._family(cfg["outcome_family"])
    sampling, propensity, _, _ = cli._fit_components(data, cfg.get("known_propensity"), family, False, None, None)
    hs, e1 = (predict_mean(fit, data.x)[data.target_mask] for fit in (sampling, propensity))
    return float(np.mean(_membership(hs * e1, hs * (1.0 - e1), 0.0, cfg["epsilon"])))


@pytest.mark.parametrize("case", ["gaussian", "binary", "known_propensity", "attainable_mass"])
def test_method_entries_do_not_depend_on_the_order_or_company_of_methods(tmp_path, case):
    # the methods of one analysis share their per-row arrays, Gram blocks
    # and membership slopes; what each reports must not depend on which
    # method computed them first, or on whether the others ran at all
    family = "binary" if case == "binary" else "gaussian"
    cfg = _cohort_config(_write_cohort(tmp_path / "cohort.csv", family), outcome_family=family)
    if case == "known_propensity":
        cfg["known_propensity"] = 0.5
    if case == "attainable_mass":
        cfg.update(exclusion_rules=[], p3_star=_attainable_mass(cfg))

    def entries(methods):
        report = cmd_analyze(dict(cfg, methods=methods))
        return {(e["method"], e["trimmed"]): json.dumps(e) for e in report["estimates"]}, report

    together, report = entries(["ipw", "aipw", "trimmed_ipw", "trimmed_aipw"])
    assert len(together) == 4
    assert entries(["trimmed_aipw", "ipw", "trimmed_ipw", "aipw"])[0] == together
    for method in ("ipw", "aipw", "trimmed_ipw", "trimmed_aipw"):
        alone = entries([method])[0]
        assert alone.items() <= together.items(), method
    assert (report["partition"]["delta_star"] == 0.0) == (case == "attainable_mass")


def test_main_analyze_and_sensitivity_files(tmp_path, fixture_csv):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config(fixture_csv)))
    report_path = tmp_path / "report.json"
    assert _run_main(["analyze", "--config", cfg_path, "--output", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == 1
    grid_path = tmp_path / "grid.csv"
    assert _run_main(["sensitivity", "--config", cfg_path, "--report", report_path,
                      "--output", grid_path]) == 0
    assert grid_path.read_text().startswith("k1,k2,assumption")


def test_main_exit_codes(tmp_path, fixture_csv):
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text(json.dumps(_config(fixture_csv, schema_version=2)))
    assert _run_main(["analyze", "--config", bad_schema]) == 2

    bad_data = tmp_path / "baddata.json"
    cfg = _config(fixture_csv)
    cfg["roles"]["covariates"] = ["nope"]
    bad_data.write_text(json.dumps(cfg))
    assert _run_main(["analyze", "--config", bad_data]) == 3

    missing_seed = tmp_path / "noseed.json"
    cfg = _config(fixture_csv, variance="bootstrap")
    del cfg["seed"]
    missing_seed.write_text(json.dumps(cfg))
    assert _run_main(["analyze", "--config", missing_seed]) == 2


@pytest.mark.parametrize("where", ["header", "row"])
def test_main_rejects_a_csv_that_is_not_utf8(tmp_path, fixture_csv, capsys, where):
    # a Latin-1 byte in the header or in a data row is a data error that
    # names the file
    path = tmp_path / "latin1.csv"
    text = Path(fixture_csv).read_bytes()
    path.write_bytes(text.replace(b"x1", b"x1\xff", 1) if where == "header" else text + b"0,,,0.5\xff,0.1,0\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config(path)))
    assert _run_main(["analyze", "--config", cfg_path]) == 3
    assert capsys.readouterr().err == f"error: {path} is not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("fault", ["long cell", "unclosed quote"])
def test_main_names_the_record_past_the_csv_field_limit(tmp_path, fixture_csv, capsys, monkeypatch, fault, batch):
    # the csv module refuses a field longer than its limit (131,072
    # characters): a long quoted cell, or a quote that is never closed, which
    # makes the rest of a large file one cell; the error names the line where
    # the record starts, and the process-wide limit stays as it was
    monkeypatch.setattr(cli, "BATCH_BYTES", batch)
    lines = Path(fixture_csv).read_text().splitlines(True)
    if fault == "long cell":
        lines.insert(5, '0,,,"' + "7" * 140_000 + '",0.1,0\n')
    else:
        lines.insert(5, '0,,,"0.3,0.1,0\n')
        lines += ["0,,,0.5,0.1,0\n"] * 12_000
    path = tmp_path / "quoted.csv"
    path.write_text("".join(lines))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config(path)))
    assert _run_main(["analyze", "--config", cfg_path]) == 3
    assert capsys.readouterr().err == f"error: {path} line 6: field larger than field limit (131072)\n"
    assert csv.field_size_limit() == 131_072


def test_main_names_a_header_past_the_csv_field_limit(tmp_path, fixture_csv, capsys):
    text = Path(fixture_csv).read_text().replace("x2", '"x2', 1)
    path = tmp_path / "quoted.csv"
    path.write_text(text + "0,,,0.5,0.1,0\n" * 12_000)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config(path)))
    assert _run_main(["analyze", "--config", cfg_path]) == 3
    assert capsys.readouterr().err == f"error: {path} line 1: field larger than field limit (131072)\n"


@pytest.mark.parametrize("command", ["analyze", "sensitivity"])
def test_main_rejects_json_that_is_not_utf8(tmp_path, fixture_csv, capsys, command):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"schema_version": 1, "note": "\xff"}')
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config(fixture_csv)))
    args = ["analyze", "--config", latin1] if command == "analyze" else \
        ["sensitivity", "--config", cfg_path, "--report", latin1]
    assert _run_main(args) == 2
    assert capsys.readouterr().err == f"error: {latin1} is not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("command", ["analyze", "sensitivity"])
def test_main_rejects_json_that_is_not_an_object(tmp_path, fixture_csv, capsys, command):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config(fixture_csv)))
    args = ["analyze", "--config", listed] if command == "analyze" else \
        ["sensitivity", "--config", cfg_path, "--report", listed]
    assert _run_main(args) == 2
    assert capsys.readouterr().err == f"error: {listed} does not hold a JSON object\n"


def test_main_rejects_output_path_it_cannot_write(tmp_path, fixture_csv, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config(fixture_csv)))
    out = tmp_path / "missing" / "out.json"
    assert _run_main(["analyze", "--config", cfg_path, "--output", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("predicate", [
    {"var": "ineligible", "op": "in", "value": 3},
    {"var": "ineligible", "op": "==", "value": "1"},
    {"var": "no_such_column", "op": "==", "value": 1},
    {"var": "ineligible", "op": "~=", "value": 1},
])
def test_main_rejects_invalid_rule(tmp_path, fixture_csv, predicate):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_config(fixture_csv, exclusion_rules=[[predicate]])))
    assert _run_main(["analyze", "--config", cfg_path]) == 2


@pytest.mark.parametrize("rules", [
    [5], [[{"var": "ineligible", "op": "==", "value": 1}], 3], 7,
])
@pytest.mark.parametrize("key", ["exclusion_rules", "r1_trial_filter", "r2_trial_filter", "extrapolation"])
def test_main_rejects_rule_set_that_is_not_a_list(tmp_path, fixture_csv, capsys, rules, key):
    # the error names the config key of the rule set
    cfg = _config(fixture_csv)
    if key == "exclusion_rules":
        cfg[key] = rules
    elif key == "extrapolation":      # the block that holds the filters
        cfg["sensitivity"][key] = rules
    else:
        cfg["sensitivity"]["extrapolation"] = {key: rules}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert _run_main(["analyze", "--config", cfg_path]) == 2
    assert key in capsys.readouterr().err


def test_rules_read_named_columns(fixture_csv):
    # the vectorised engine agrees with a per-row reading of the CSV
    data, columns = load_dataset(str(fixture_csv), _config(fixture_csv)["roles"], {"ineligible": "exclusion_rules"})
    rules = [
        [{"var": "ineligible", "op": "in", "value": [1]}, {"var": "x1", "op": "<", "value": 0.5}],
        [{"var": "x2", "op": ">=", "value": 1.0}],
    ]
    with open(fixture_csv, newline="") as fh:
        raw = [row for row in csv.DictReader(fh) if row["selected"] == "0"]
    expected = [
        (float(r["ineligible"]) in (1.0,) and float(r["x1"]) < 0.5) or float(r["x2"]) >= 1.0
        for r in raw
    ]
    mask = evaluate_raw_rules(_parsed(rules), columns, data.target_mask)
    assert mask.tolist() == expected
    assert mask.any() and not mask.all()


def test_main_simulate_smoke_and_determinism(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "sizes": [2e4],     # JSON may write a whole number as a float
        "replications": 3,
        "p3_star": [0.8],
        "methods": ["aipw"],
        "assumptions": ["epd"],
        "outcome_family": "gaussian",
        "seed": 5150,
        "oracle_draws": 200000,
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "study1.csv"
    out2 = tmp_path / "study2.csv"
    assert _run_main(["simulate", "--config", cfg_path, "--output", out1]) == 0
    assert _run_main(["simulate", "--config", cfg_path, "--output", out2, "--threads", "2"]) == 0
    assert out1.read_text() == out2.read_text()
    lines = out1.read_text().strip().splitlines()
    assert lines[0].startswith("trial_size,target_size,proportion")
    assert len(lines) == 2
    assert capsys.readouterr().err.splitlines() == ["simulate n_total=20000: 0/3 replications failed"] * 2


def test_main_simulate_reports_failures_per_size(tmp_path, capsys, monkeypatch):
    # a stand-in study that lost some replications; the CSV carries only
    # the cells, so the count reaches the user through stderr alone
    def study_with_failures(study, n_jobs=1, true_tau=None):
        failures = study.dgp.n_total // 10_000
        return StudyReport(cells=(), true_tau=0.0, replications=study.replications, failures=failures)

    monkeypatch.setattr(cli, "run_study", study_with_failures)
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps({
        "schema_version": 1, "sizes": [20000, 50000], "replications": 100, "seed": 1,
    }))
    out = tmp_path / "study.csv"
    assert _run_main(["simulate", "--config", cfg_path, "--output", out]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "simulate n_total=20000: 2/100 replications failed",
        "simulate n_total=50000: 5/100 replications failed",
    ]
    assert out.read_text().splitlines() == [",".join(StudyReport.CSV_HEADER)]


def test_simulate_computes_the_truth_once_for_all_sizes(monkeypatch):
    # the Monte Carlo truth does not read n_total: one oracle call serves
    # every size, and the CSV equals that of one call per size
    oracle = simulation.true_tau_oracle
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(simulation, "true_tau_oracle", counted)
    cfg = {
        "schema_version": 1, "replications": 2, "p3_star": [0.8], "methods": ["aipw"],
        "assumptions": ["epd"], "seed": 77, "oracle_draws": 100_000,
    }
    sizes = [20000, 30000, 40000]
    # one process, so that the calls are counted here
    text = cli.cmd_simulate(dict(cfg, sizes=sizes), threads=1)
    assert len(calls) == 1
    per_size = [cli.cmd_simulate(dict(cfg, sizes=[n]), threads=1).splitlines(True) for n in sizes]
    assert len(calls) == 4
    assert text == "".join(per_size[0] + [line for lines in per_size[1:] for line in lines[1:]])


@pytest.mark.parametrize("cpus, pools", [(1, []), (3, [2])])
def test_simulate_takes_its_worker_count_from_the_cpu_count(monkeypatch, cpus, pools):
    # three replications and the two Monte Carlo truths: on one CPU no pool,
    # on three CPUs shares of 2, 2 and 1 tasks, two of them in a pool
    built = []
    # ordered_map imports the pool class where it builds a pool
    pool = concurrent.futures.ProcessPoolExecutor

    def recorded(workers, **kwargs):
        built.append(workers)
        return pool(workers, **kwargs)

    monkeypatch.setattr(parallel, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorded)
    cfg = {
        "schema_version": 1, "replications": 3, "p3_star": [0.8], "methods": ["aipw"],
        "assumptions": ["epd"], "seed": 77, "sizes": [20000], "oracle_draws": 100_000,
    }
    text = cli.cmd_simulate(cfg)
    assert built == pools
    assert text == cli.cmd_simulate(cfg, threads=1)


def test_main_simulate_rejects_no_oracle_draws_before_any_replication(tmp_path, capsys, monkeypatch):
    def replication(config, rep):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulation, "_replication", replication)
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps({
        "schema_version": 1, "sizes": [20000], "replications": 2, "seed": 1, "oracle_draws": 0,
    }))
    assert _run_main(["simulate", "--config", cfg_path]) == 2
    assert capsys.readouterr().err == "error: oracle_draws must be at least 1, got 0\n"


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_main_simulate_rejects_threads_below_one_before_the_config(tmp_path, capsys, monkeypatch, threads):
    def replication(config, rep):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulation, "_replication", replication)
    # the config file does not exist: the count is refused before it is read
    with pytest.raises(SystemExit) as exc:
        _run_main(["simulate", "--config", tmp_path / "missing.json", "--threads", threads])
    assert exc.value.code == 2
    assert f"argument --threads: must be at least 1, got {threads}" in capsys.readouterr().err


@pytest.mark.parametrize("n_jobs", [0, -3])
def test_run_study_rejects_fewer_than_one_process(monkeypatch, n_jobs):
    def replication(config, rep):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulation, "_replication", replication)
    study = simulation.StudyConfig(dgp=simulation.DgpConfig(n_total=20_000), replications=2, oracle_draws=1_000)
    with pytest.raises(ConfigError, match=f"n_jobs must be at least 1, got {n_jobs}"):
        simulation.run_study(study, n_jobs=n_jobs)


def test_main_simulate_requires_seed(tmp_path):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "replications": 2}))
    assert _run_main(["simulate", "--config", cfg_path]) == 2


def test_main_calibrate(tmp_path, capsys):
    out = tmp_path / "cal.json"
    code = _run_main([
        "calibrate", "--slopes", "0,0,0,0", "--target", "0.5",
        "--draws", "100000", "--seed", "3", "--no-exclusions", "--output", out,
    ])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["intercept"] == pytest.approx(0.0, abs=1e-6)


def test_extrapolation_filter_refits_on_stratum(tmp_path):
    # surrogate-stratum refit: restrict trial rows used for the group models
    path = _write_fixture(tmp_path / "cohort.csv", seed=17)
    cfg = _config(path)
    cfg["sensitivity"]["extrapolation"] = {
        "r2_trial_filter": [[{"var": "x1", "op": ">=", "value": 0.0}]],
    }
    report = cmd_analyze(cfg)
    base = cmd_analyze(_config(path))
    assert report["zeta"]["zeta2"] != base["zeta"]["zeta2"]
    assert report["zeta"]["zeta1"] == base["zeta"]["zeta1"]
