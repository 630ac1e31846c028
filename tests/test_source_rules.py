"""Rules that hold for the source tree as a whole."""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

from skewcert import freecert, groupring, harness

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


def _load_spans():
    """perfbench/spans.py as it is, loaded from its file."""
    path = PACKAGE.parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_span_hooks_still_bind(monkeypatch):
    # the benchmark wraps the functions of its LAYERS table from outside and
    # calls its input-size hooks with each call's own arguments: a renamed
    # function or a changed call signature fails every traced run
    spans = _load_spans()
    for module, attr, _ in spans.LAYERS:
        owner = importlib.import_module(f"skewcert.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"
    inspect.signature(freecert.evaluate_words).bind("generators", "ops", "words", "mode")
    inspect.signature(freecert.rank_over_Q).bind("vectors")
    # the certification call sites bind to the hooks as the tracer calls them
    tracer = spans.Tracer()
    for name, hook in (("evaluate_words", tracer._count_words), ("rank_over_Q", tracer._rank_shape)):
        original = getattr(freecert, name)

        def hooked(*args, _hook=hook, _original=original, **kwargs):
            _hook(*args, **kwargs)
            return _original(*args, **kwargs)

        monkeypatch.setattr(freecert, name, hooked)
    x, y = groupring.symmetric_generators()
    freecert.certify_freeness([x, y], groupring.ring_ops(), harness.groupring_coordinatizer(), 2)
    harness.run_certify_cauchon("5/6", "1/6", 2, 1)
    assert tracer.words == 7 + 5 and [rows for rows, _, _ in tracer.rank_inputs] == [7]



def _is_os_fork(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name == "fork" for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr == "fork"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def test_os_fork_appears_only_in_forked():
    # one fork path, whose child always leaves through os._exit and whose
    # parent always reaps it: a second one would have to repeat both
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}  # node -> name of the innermost function holding it
        for func in ast.walk(tree):  # breadth first: inner functions come later
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        found += [(path.name, owner.get(node)) for node in ast.walk(tree) if _is_os_fork(node)]
    assert found == [("forkjoin.py", "forked")], found
