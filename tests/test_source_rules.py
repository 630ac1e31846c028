"""Rules that hold for the source tree as a whole."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "skewcert"


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_src():
    # `python -O` strips asserts, so no check may live in one; and a failed
    # soundness check is a KernelError, which the CLI reports in one line,
    # never a bare AssertionError
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert list(PACKAGE.rglob("*.py"))
    assert not found, f"assert statements or AssertionErrors in src: {found}"


def test_src_imports_only_stdlib():
    # the core package stays pure standard library: every absolute import
    # names a standard module or skewcert itself, and relative imports stay
    # inside the package
    allowed = set(sys.stdlib_module_names) | {"skewcert"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {n}" for n in names
                      if n.split(".")[0] not in allowed]
    assert list(PACKAGE.rglob("*.py"))
    assert not found, f"imports outside the standard library in src: {found}"
