"""The scripts in ``tools/``: ``src_lines.py``, which counts the package's
lines by kind for the size rule every change reports against, and
``coverage.py``, which scores the study's interval under three sandwich
variances."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC_LINES = TOOLS / "src_lines.py"
COVERAGE = TOOLS / "coverage.py"

# code 6, docstring 5, comment 2, blank 3
FIRST = '''"""Module docstring."""

import os
# a comment

class Thing:
    """Class docstring
    over three
    lines."""

    def method(self):
        """Function docstring."""
        # an indented comment
        "a bare string, no docstring"
        return (1 +
                2)
'''
# code 3, docstring 1, comment 0, blank 1
SECOND = '''def f():
    """One line."""

    x = 1
    return x
'''


def _run(package: Path, *options: str) -> dict[str, list[int]]:
    out = subprocess.run(
        [sys.executable, str(SRC_LINES), *options, str(package)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0].split() == ["module", "code", "docstring", "comment", "blank"]
    return {line.split()[0]: [int(v.replace(",", "")) for v in line.split()[1:]] for line in out[1:]}


def test_src_lines_counts_each_kind(tmp_path):
    (tmp_path / "first.py").write_text(FIRST, encoding="utf-8")
    (tmp_path / "second.py").write_text(SECOND, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    rows = _run(tmp_path)
    assert list(rows) == ["first.py", "second.py", "total"]
    # the bare string and both lines of the two-line statement are code
    assert rows["first.py"] == [6, 5, 2, 3]
    assert rows["second.py"] == [3, 1, 0, 1]
    assert rows["total"] == [sum(col) for col in zip(rows["first.py"], rows["second.py"])]
    assert sum(rows["first.py"]) == len(FIRST.splitlines())


def _git(repo: Path, *args: str):
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
        capture_output=True, check=True,
    )


def test_src_lines_against_a_revision_reads_it_from_git(tmp_path):
    package = tmp_path / "src" / "extval"
    package.mkdir(parents=True)
    _git(tmp_path, "init", "-q")
    (package / "first.py").write_text(FIRST, encoding="utf-8")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "first")
    (package / "second.py").write_text(SECOND, encoding="utf-8")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "second")
    # an uncommitted edit counts in the tree only: one more blank line
    (package / "second.py").write_text(SECOND + "\n", encoding="utf-8")
    rows = _run(package, "--against", "HEAD~1")
    assert list(rows) == ["HEAD~1", "tree", "delta"]
    assert rows["HEAD~1"] == [6, 5, 2, 3]
    assert rows["tree"] == [9, 6, 2, 5]
    assert rows["delta"] == [3, 1, 0, 2]


def _coverage_tool():
    # loaded under its own name, so that no ``coverage`` package is shadowed
    spec = importlib.util.spec_from_file_location("coverage_tool", COVERAGE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coverage_prints_one_row_per_check_and_seed(capsys, monkeypatch):
    tool = _coverage_tool()
    # each cohort's variances() raises unless its HC0, values @ values / n^2,
    # is sandwich_variance(system) to a relative 1e-12
    assert tool.main(["--cohorts", "2", "check7=820_720", "check7=840_720"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["check", "seed", "cohorts", "failed", "HC0", "HC2", "HC3", "median_min_ess"]
    rows = [line.split() for line in out[1:]]
    assert [row[:4] for row in rows] == [["check7", "820720", "2", "0"], ["check7", "840720", "2", "0"]]
    for row in rows:
        hc0, hc2, hc3, ess = (float(v) for v in row[4:])
        # each variance widens the interval of the one before it
        assert 0.0 <= hc0 <= hc2 <= hc3 <= 1.0
        assert hc0 in (0.0, 0.5, 1.0)
        assert ess > 1.0
    # and that check is live: a sandwich off by a relative 1e-9 fails it
    sandwich = tool.sandwich_variance
    monkeypatch.setattr(tool, "sandwich_variance", lambda system: sandwich(system) * (1 + 1e-9))
    with pytest.raises(AssertionError, match="is not the sandwich"):
        tool.main(["--cohorts", "1", "check7=820_720"])
