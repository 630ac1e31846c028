"""Rules that hold for the source tree as a whole."""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import subprocess
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


def _absolute_imports():
    """(file:line, top-level module) of every absolute import in src."""
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            yield from ((f"{path.name}:{node.lineno}", n.split(".")[0]) for n in names)


def test_src_imports_only_stdlib():
    # the core package stays pure standard library: every absolute import
    # names a standard module or skewcert itself, and relative imports stay
    # inside the package
    allowed = set(sys.stdlib_module_names) | {"skewcert"}
    found = [f"{where}: {name}" for where, name in _absolute_imports() if name not in allowed]
    assert not found, f"imports outside the standard library in src: {found}"


def test_src_never_imports_dataclasses():
    # every command imports the whole package before it starts: the
    # dataclasses module pulls in inspect, ast, dis and tokenize, and each
    # decoration execs generated code, which is most of a short run's set-up
    found = [where for where, name in _absolute_imports() if name == "dataclasses"]
    assert not found, f"dataclasses imported in src: {found}"


def test_src_never_imports_argparse():
    # building argparse parsers creates a formatter and makes gettext
    # lookups for every flag, which loads gettext and locale: cli.COMMANDS
    # is the one table the command line is read against
    found = [where for where, name in _absolute_imports() if name == "argparse"]
    assert not found, f"argparse imported in src: {found}"


def test_a_command_loads_no_argparse_gettext_or_locale():
    # a fresh interpreter without site hooks runs a whole command, and the
    # report is followed by the modules it should not have loaded
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); from skewcert import cli; "
            "cli.run(['verify', 'valuation']); "
            "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.splitlines()[-1] == "[]", out.stdout[-200:] + out.stderr


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter without site hooks, as a command starts: importing
    # the CLI must not load the modules that only dataclasses needed
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import skewcert.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr


def _unused_imports(source: str, name: str) -> list[str]:
    """`name:line: bound` for each name an import in `source` binds and no
    other line of it reads.  `from __future__` imports and lines marked
    `# noqa: F401` (re-exports) are exempt."""
    tree = ast.parse(source, filename=name)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                found.append(f"{name}:{alias.lineno}: {bound}")
    return found


def test_no_unused_imports_in_src():
    # an import left behind when its last caller goes keeps a dependency
    # that nothing uses, and hides which module still needs it
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += _unused_imports(path.read_text(), path.name)
    assert list(PACKAGE.rglob("*.py"))
    assert not found, f"unused imports in src: {found}"
    # the rule sees a name imported in a parenthesised list and never read
    assert _unused_imports("from a import (\n    b,\n    c,\n)\nc()\n", "m.py") == ["m.py:2: b"]


def _restates_an_operator(node) -> bool:
    """A lambda whose whole body is `a + b`, `-a`, `a * b` or `not a` over
    its own parameters, in their order: `operator.add` and the rest say that
    already.  A reversed product, such as `lambda q, a: a * q`, is another
    operation."""
    if not isinstance(node, ast.Lambda):
        return False
    params = [a.arg for a in node.args.args]
    body = node.body
    if isinstance(body, ast.BinOp) and isinstance(body.op, (ast.Add, ast.Mult)):
        operands = [body.left, body.right]
    elif isinstance(body, ast.UnaryOp) and isinstance(body.op, (ast.USub, ast.Not)):
        operands = [body.operand]
    else:
        return False
    return [e.id if isinstance(e, ast.Name) else None for e in operands] == params


def test_no_lambda_restates_an_operator():
    # RingOps defaults add, neg, mul and is_zero to +, unary -, * and not, so
    # a ring table names an operation only to supply another kernel; a lambda
    # restating an operator would keep that decision in two places
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                  if _restates_an_operator(node)]
    assert list(PACKAGE.rglob("*.py"))
    assert not found, f"lambdas restating an operator in src: {found}"


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
    # `certify groupring` reaches `groupring.coordinatize` through the module,
    # once per word: a coordinatizer that read the terms itself would leave
    # the traced `groupring.coordinatize.calls` at zero
    coordinatized = []

    def counting(value, _original=groupring.coordinatize):
        coordinatized.append(value)
        return _original(value)

    monkeypatch.setattr(groupring, "coordinatize", counting)
    harness.run_certify_groupring(2)
    assert len(coordinatized) == 7



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
