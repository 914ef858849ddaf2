"""The package imports only the standard library and numpy, loads no
scipy module in a run and runs where scipy cannot be imported, catches
no exception more broadly than by its class, evaluates inverse logits
only through ``glm.expit``, gathers and builds design matrices only in
``data``, and reads no config value with a converting constructor
(``float``, ``int``, ``dict`` or ``list``). The tests themselves use
scipy as a reference."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import _config, _write_fixture

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "extval").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imported_packages(tree: ast.AST) -> list[str]:
    """The top-level package of every absolute import in ``tree``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_found():
    assert any(path.name == "estimators.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = sorted(set(_imported_packages(tree)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


BROAD = {"Exception", "BaseException"}


def _broad_handlers(tree: ast.AST) -> list[int]:
    """The lines of every bare ``except:`` and every handler naming
    ``Exception`` or ``BaseException``, alone or in a tuple."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(
            (isinstance(t, ast.Name) and t.id in BROAD)
            or (isinstance(t, ast.Attribute) and t.attr in BROAD)
            for t in caught
        ):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_bare_or_broad_except(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    broad = _broad_handlers(tree)
    assert not broad, f"{path.name} catches too broadly at lines {broad}"


def test_broad_handlers_are_found():
    tree = ast.parse(
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        "try:\n    pass\nexcept builtins.BaseException:\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    assert _broad_handlers(tree) == [3, 7, 11]


def _scalar_logistic_kernels(tree: ast.AST) -> list[int]:
    """The lines that import ``expit`` from ``scipy.special`` or call
    ``logaddexp``, whose per-element scalar ``exp`` ``glm.expit`` and
    ``glm._bernoulli_loglik`` replace with numpy's vector one."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.special":
            if any(alias.name == "expit" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "logaddexp":
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_scalar_logistic_kernels(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _scalar_logistic_kernels(tree)
    assert not found, f"{path.name} uses scipy's expit or logaddexp at lines {found}"


def test_scalar_logistic_kernels_are_found():
    tree = ast.parse(
        "from scipy.special import ndtr, expit\n"
        "from scipy.special import ndtr\n"
        "y = np.logaddexp(0.0, x)\n"
        "y = logaddexp(0.0, x)\n"
        "y = expit(x)\n"
    )
    assert _scalar_logistic_kernels(tree) == [1, 3, 4]


def _row_major_design_code(tree: ast.AST) -> list[int]:
    """The lines that gather rows with an axis-0 ``take`` or ``compress``,
    as method or numpy function, or build a matrix with ``column_stack``:
    each gives a row-major design, where ``data.take_rows`` and the
    loader keep the column-major one."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        axis0 = any(k.arg == "axis" and isinstance(k.value, ast.Constant) and k.value.value == 0
                    for k in node.keywords)
        if name == "column_stack" or (name in ("take", "compress") and axis0):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "data.py"], ids=lambda path: path.name)
def test_design_rows_are_gathered_only_in_data(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _row_major_design_code(tree)
    assert not found, f"{path.name} gathers design rows or stacks a design outside data.take_rows at lines {found}"


def test_row_major_design_code_is_found():
    tree = ast.parse(
        "xt = x.take(idx, axis=0)\n"
        "xt = x.compress(mask, axis=0)\n"
        "xt = np.take(x, idx, axis=0)\n"
        "v = hs.compress(mask)\n"
        "x = np.column_stack([np.ones(n), z])\n"
        "xt = x.T.take(idx, axis=1).T\n"
        "xt = take_rows(x, idx)\n"
    )
    assert _row_major_design_code(tree) == [1, 2, 3, 5]


def _loose_reads(tree: ast.AST) -> list[int]:
    """The lines that call ``_value`` with ``float``, ``int``, ``dict`` or
    ``list`` as its converter. Each converts what it should refuse:
    ``float`` the string "1e-8", ``float`` and ``int`` a bool, ``dict`` a
    list of pairs and ``list`` a string. Numbers go through ``_number``,
    ``_whole`` or ``_number_list``, objects through ``_object`` and lists
    through ``_list``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_value":
            convert = node.args[2:3] + [k.value for k in node.keywords if k.arg == "convert"]
            if any(isinstance(c, ast.Name) and c.id in ("float", "int", "dict", "list") for c in convert):
                lines.append(node.lineno)
    return lines


def test_config_values_are_read_strictly():
    path = next(p for p in SOURCES if p.name == "cli.py")
    found = _loose_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"cli.py reads a config value with a converting constructor at lines {found}"


def test_loose_reads_are_found():
    tree = ast.parse(
        'epsilon = _value(config, "epsilon", float, 1e-8)\n'
        'reps = _value(config, "bootstrap_reps", convert=int)\n'
        'epsilon = _value(config, "epsilon", _number, 1e-8)\n'
        'epsilon = float(_value(config, "epsilon", _number, 1e-8))\n'
        'roles = _value(config, "roles", dict)\n'
        'methods = _value(config, "methods", _list)\n'
    )
    assert _loose_reads(tree) == [1, 2, 5]


def _run_configs(tmp_path, prelude: str, body: str) -> str:
    """Run ``body`` in a fresh interpreter after ``prelude``, with ``analyze``,
    ``bootstrap`` and ``simulate`` naming config files: the CLI tests'
    fixture under the sandwich and under a bootstrap, and a small study.
    Returns its standard output."""
    csv_path = _write_fixture(tmp_path / "cohort.csv")
    paths = {}
    for name, config in (
        ("analyze", _config(csv_path)),
        ("bootstrap", _config(csv_path, variance="bootstrap", bootstrap_reps=100, methods=["trimmed_aipw"])),
        ("simulate", {
            "schema_version": 1, "seed": 3, "sizes": [20_000], "replications": 1,
            "p3_star": [0.8], "methods": ["ipw", "aipw"], "assumptions": ["epd"], "oracle_draws": 1_000,
        }),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(config))
    script = prelude + "".join(f"{name} = {str(path)!r}\n" for name, path in paths.items()) + body
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_runs_load_no_scipy_module(tmp_path):
    # importing scipy.special adds about 20 MB of peak RSS and a tenth of a
    # second to every process; the package needs numpy alone
    out = _run_configs(tmp_path, "import json, sys\nfrom extval import cli\n", (
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "cli.cmd_analyze(json.load(open(analyze)))\n"
        "print('analyze', loaded())\n"
        "cli.cmd_simulate(json.load(open(simulate)))\n"
        "print('simulate', loaded())\n"
    ))
    assert out.splitlines() == ["analyze []", "simulate []"]


def test_a_sandwich_analysis_loads_no_process_pool(tmp_path):
    # concurrent.futures costs a process about 15 ms to load; only a map
    # that builds a pool (a bootstrap, a study) needs it
    out = _run_configs(tmp_path, "import sys\nfrom extval import cli\n", (
        "cli.main(['analyze', '--config', analyze, '--output', 'report.json'])\n"
        "cli.main(['sensitivity', '--config', analyze, '--report', 'report.json', '--output', 'grid.csv'])\n"
        "print('concurrent.futures' in sys.modules)\n"
    ))
    assert out.splitlines()[-1] == "False"


def test_runs_where_scipy_cannot_be_imported(tmp_path):
    # None in sys.modules makes every import of scipy raise ImportError, as
    # on a machine without it
    out = _run_configs(tmp_path, "import sys\nsys.modules['scipy'] = None\nfrom extval import cli\n", (
        "for args in (['analyze', '--config', analyze, '--output', 'sandwich.json'],\n"
        "             ['analyze', '--config', bootstrap, '--output', 'bootstrap.json'],\n"
        "             ['simulate', '--config', simulate, '--output', 'study.csv']):\n"
        "    print(args[0], cli.main(args))\n"
    ))
    assert [line for line in out.splitlines() if line.startswith(("analyze ", "simulate "))] == [
        "analyze 0", "analyze 0", "simulate 0",
    ]
