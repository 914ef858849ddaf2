"""Count the lines of the ``src/extval`` package by kind.

Prints, per module and in total, the code, docstring, comment and blank
lines. A docstring line is one that a module, class or function
docstring spans, found with ``ast``; of the other lines, a comment line
is one whose text starts with ``#`` and a blank line one that holds only
whitespace; every other line is code.

Usage: python3 tools/src_lines.py [--against REV] [package directory]
(default: src/extval next to this script's directory).

With ``--against REV`` it prints totals only: the package as the git
revision REV holds it (read with ``git show REV:<file>``, without a
checkout), as the working tree holds it, and a ``delta`` row, the tree
minus REV.
"""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        owner = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if owner and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The lines of one module's source by kind."""
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        elif not stripped:
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(root), *args], capture_output=True, text=True, check=True,
    ).stdout


def revision_sources(root: Path, rev: str) -> dict[str, str]:
    """The modules of the package directory ``root`` as revision ``rev``
    of its git repository holds them, by file name."""
    names = _git(root, "ls-tree", "--name-only", rev, ".").splitlines()
    return {name: _git(root, "show", f"{rev}:./{name}") for name in sorted(names) if name.endswith(".py")}


def tree_sources(root: Path) -> dict[str, str]:
    """The modules of the package directory ``root``, by file name."""
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(root.glob("*.py"))}


def totals(sources: dict[str, str]) -> dict[str, int]:
    counts = [count(text) for text in sources.values()]
    return {kind: sum(c[kind] for c in counts) for kind in KINDS}


def _row(label: str, counts: dict[str, int], sign: str) -> str:
    return f"{label:<16}" + "".join(f"{counts[kind]:>{sign}11,}" for kind in KINDS)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the package's lines by kind.")
    parser.add_argument("package", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src" / "extval")
    parser.add_argument("--against", metavar="REV",
                        help="print totals at git revision REV, in the tree, and their delta")
    args = parser.parse_args(argv[1:])
    tree = tree_sources(args.package)
    if args.against is None:
        rows = [(name, count(text), "") for name, text in tree.items()] + [("total", totals(tree), "")]
    else:
        try:
            before = totals(revision_sources(args.package, args.against))
        except subprocess.CalledProcessError as exc:
            parser.error(exc.stderr.strip())
        after = totals(tree)
        delta = {kind: after[kind] - before[kind] for kind in KINDS}
        rows = [(args.against, before, ""), ("tree", after, ""), ("delta", delta, "+")]
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS))
    for label, counts, sign in rows:
        print(_row(label, counts, sign))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
