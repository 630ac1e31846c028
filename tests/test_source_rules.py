"""Rules that hold for the source tree as a whole."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "skewcert"


def test_no_assert_statements_in_src():
    # `python -O` strips asserts, so no check may live in one
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(PACKAGE.rglob("*.py"))
    assert not found, f"assert statements in src: {found}"
