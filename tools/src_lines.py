"""Count the lines of the ``src/extval`` package by kind.

Prints, per module and in total, the code, docstring, comment and blank
lines. A docstring line is one that a module, class or function
docstring spans, found with ``ast``; of the other lines, a comment line
is one whose text starts with ``#`` and a blank line one that holds only
whitespace; every other line is code.

Usage: python3 tools/src_lines.py [package directory]
(default: src/extval next to this script's directory).
"""

import ast
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


def count(path: Path) -> dict[str, int]:
    """The lines of one module by kind."""
    text = path.read_text(encoding="utf-8")
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


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "extval"
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = count(path)
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[kind]:>11,}" for kind in KINDS))
    print(f"{'total':<16}" + "".join(f"{totals[kind]:>11,}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
