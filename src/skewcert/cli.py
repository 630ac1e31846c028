"""Command-line entry point: wires the presets and certifications together
and emits machine-readable reports.

Report schema (version 1):

    { "schema": 1, "command": str, "params": {...},
      "verdicts": [ {"claim", "paper_label", "verdict", "data"}... ],
      "elapsed_ms": int, "seed": int }

Rational parameters and report values are serialized as "num/den" strings.
Exit codes: 0 all certified, 2 relation or counterexample found, 3
inconclusive (truncation ceiling), 4 unable (outside the prover's fragment),
1 usage or internal error.  Reports are deterministic given (command, flags,
seed); elapsed_ms is the only field that varies between runs.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from . import harness
from .errors import KernelError
from .pbw import LieAlg, jacobi_check
from .scalar import rat


def _json_default(o):
    if isinstance(o, Fraction):
        return f"{o.numerator}/{o.denominator}"
    return repr(o)


def emit_report(command: str, params: dict, verdicts: list, seed: int,
                elapsed_ms: int, output: str | None) -> None:
    report = {
        "schema": 1,
        "command": command,
        "params": params,
        "verdicts": verdicts,
        "elapsed_ms": elapsed_ms,
        "seed": seed,
    }
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def parse_lie_algebra(text: str) -> LieAlg:
    """Text format for non-preset algebras:

        basis u v w
        weight u = 1
        bracket v u = w            # or sums like  2*w + -1/3*u
        bracket w u = 0

    Unlisted brackets are zero; unlisted weights default to 1.  Either order
    of the bracket pair is accepted and stored antisymmetrically.  The basis,
    each weight and each bracket pair may be given once.  Every name a line
    mentions must be in the basis, which may come on any line and names each
    element once.
    """
    basis: list[str] = []
    weights: dict[str, int] = {}
    brackets: dict = {}
    given: dict = {}  # what a line defines -> that line's number
    mentions: list[tuple[int, list[str]]] = []  # (line number, names used there)

    def once(key, what: str) -> None:
        if key in given:
            raise ValueError(f"line {lineno}: {what} is already given on line {given[key]}")
        given[key] = lineno

    def number(parse, text: str):
        try:
            return parse(text)
        except ValueError as ex:
            raise ValueError(f"line {lineno}: {ex}") from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "basis":
            once("basis", "the basis")
            basis = parts[1:]
            if not basis:
                raise ValueError(f"line {lineno}: the basis names no element")
            twice = sorted({b for b in basis if basis.count(b) > 1})
            if twice:
                raise ValueError(f"line {lineno}: {twice[0]!r} appears twice in the basis")
        elif parts[0] == "weight":
            if len(parts) != 4 or parts[2] != "=":
                raise ValueError(f"line {lineno}: expected 'weight NAME = INT'")
            once(("weight", parts[1]), f"the weight of {parts[1]}")
            weights[parts[1]] = number(int, parts[3])
            mentions.append((lineno, [parts[1]]))
        elif parts[0] == "bracket":
            if len(parts) < 5 or parts[3] != "=":
                raise ValueError(f"line {lineno}: expected 'bracket J I = TERMS'")
            j_name, i_name = parts[1], parts[2]
            once(frozenset((j_name, i_name)), f"the bracket of {j_name} and {i_name}")
            rhs = " ".join(parts[4:])
            terms = []
            if rhs.strip() != "0":
                for piece in rhs.replace("- ", "+ -").split("+"):
                    piece = piece.strip()
                    if not piece:
                        continue
                    if "*" in piece:
                        coeff_s, name = piece.split("*", 1)
                        coeff = number(rat, coeff_s.strip())
                    elif piece.startswith("-"):
                        coeff, name = rat(-1), piece[1:]
                    else:
                        coeff, name = rat(1), piece
                    terms.append((coeff, name.strip()))
            brackets[(j_name, i_name)] = terms
            mentions.append((lineno, [j_name, i_name] + [name for _, name in terms]))
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if not basis:
        raise ValueError("missing 'basis' line")
    index = {b: i for i, b in enumerate(basis)}
    for lineno, names in mentions:
        for name in names:
            if name not in index:
                raise ValueError(f"line {lineno}: {name!r} is not a basis element")
    table: dict = {}
    for (j_name, i_name), terms in brackets.items():
        j, i = index[j_name], index[i_name]
        entries = [(index[k], c) for c, k in terms]
        if j == i:
            if entries:
                line = given[frozenset((j_name, i_name))]
                raise ValueError(f"line {line}: [{j_name}, {i_name}] must be zero")
            continue
        if j < i:
            j, i = i, j
            entries = [(k, -c) for k, c in entries]
        merged: dict = {}
        for k, c in entries:
            merged[k] = merged.get(k, Fraction(0)) + c
        table[(j, i)] = tuple(merged.items())
    weight_list = [weights.get(b, 1) for b in basis]
    return LieAlg("user", basis, table, weights=weight_list)


REQUIRED = ...  # the default of a flag that must be given
MAX_WORD_LEN = 12  # the rank holds every word up to it: 12 admits 8,191 monoid words


def class3_order(args) -> int:
    # at order 1 every jet the class-3 cross-checks compare has trunc 0, so
    # they would pass without comparing a single coefficient
    if args.order < 2:
        raise ValueError("--order must be at least 2 for the class-3 jet cross-checks")
    return args.order


def verify_scaling(args) -> list:
    order = class3_order(args)
    args.lams = [str(rat(x)) for x in args.lams or ("2", "3")]  # the form the report shows
    return harness.run_verify_scaling(tuple(map(rat, args.lams)), args.seed, class3_order=order)


def check_algebra(args) -> list:
    with open(args.path) as fh:
        L = parse_lie_algebra(fh.read())
    return [harness.verdict("Jacobi identity holds on all basis triples", "PBW", jacobi_check(L),
                            {"basis": list(L.basis), "graded": L.graded,
                             "weights": list(L.weights)})]


# Every command line: (command, target) -> (pipeline, {flag: (destination,
# default)}).  The pipeline maps the parsed flags to the verdicts.  An int
# default makes an int flag, False a switch and a tuple a repeatable flag;
# the rest take a string.  A name without dashes is a positional argument.
COMMANDS = {key: (pipeline, {**flags, "--seed": ("seed", harness.DEFAULT_SEED),
                             "--output": ("output", None)})
            for key, (pipeline, flags) in {
    ("certify", "heisenberg"): (
        lambda a: harness.run_certify_skew(harness.HEISENBERG, a.max_word_len, a.seed),
        {"--max-word-len": ("max_word_len", 3)}),
    ("certify", "twodim"): (
        lambda a: harness.run_certify_skew(harness.TWODIM, a.max_word_len, a.seed),
        {"--max-word-len": ("max_word_len", 3)}),
    ("certify", "groupring"): (lambda a: harness.run_certify_groupring(a.max_word_len, a.seed),
                               {"--max-word-len": ("max_word_len", 6)}),
    ("certify", "cauchon"): (
        lambda a: harness.run_certify_cauchon(a.alpha, a.beta, a.shift, a.max_word_len, a.seed),
        {"--alpha": ("alpha", REQUIRED), "--beta": ("beta", REQUIRED), "--shift": ("shift", "2"),
         "--max-word-len": ("max_word_len", 2)}),
    ("certify", "nilpotent"): (
        lambda a: harness.run_certify_nilpotent(class3_order(a), a.seed),
        {"--order": ("order", 12)}),
    ("verify", "scaling"): (verify_scaling, {"--lambda": ("lams", ()), "--order": ("order", 12)}),
    ("verify", "valuation"): (lambda a: harness.run_verify_valuation(a.seed), {}),
    ("selftest",): (lambda a: harness.run_selftest(a.seed, a.quick), {"--quick": ("quick", False)}),
    ("check-algebra",): (check_algebra, {"PATH": ("path", REQUIRED)}),
}.items()}


class UsageError(Exception):
    """args: (the command words read, the message, or None for -h/--help)."""


def usage(words: tuple) -> str:
    """The usage lines of every command line that starts with `words`;
    an optional flag is bracketed and shows its default."""
    lines = []
    for key, (_, flags) in COMMANDS.items():
        if key[:len(words)] != words:
            continue
        shapes = []
        for flag, (_, default) in flags.items():
            value = flag[2:].upper() if default in (None, (), REQUIRED) else default
            shape = flag if flag[0] != "-" or default is False else f"{flag} {value}"
            shapes.append(shape if default is REQUIRED else f"[{shape}]" + "..." * (default == ()))
        lines.append(" ".join(("skewcert",) + key + tuple(shapes)))
    return "usage: " + "\n       ".join(lines) + "\n"


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv against COMMANDS: the command words, then that command's
    flags in any order, as `--flag VALUE` or `--flag=VALUE`."""
    argv, words = list(argv), ()
    while words not in COMMANDS and argv and any(
            key[:len(words) + 1] == words + (argv[0],) for key in COMMANDS):
        words += (argv.pop(0),)
    if "-h" in argv or "--help" in argv:
        raise UsageError(words, None)
    if words not in COMMANDS:
        what = "target" if words else "command"
        raise UsageError(words, f"unknown {what} {argv[0]!r}" if argv else f"missing {what}")
    _, flags = COMMANDS[words]
    args = SimpleNamespace(command=words[0], target=words[1] if len(words) > 1 else None,
                           **dict(flags.values()))
    positionals = [flag for flag in flags if flag[0] != "-"]
    while argv:
        word = argv.pop(0)
        flag, eq, value = (word.partition("=") if word[:1] == "-" else
                           (positionals.pop(0) if positionals else "", "=", word))
        dest, default = flags.get(flag, (None, None))
        if dest is None or eq and default is False:
            raise UsageError(words, f"unrecognized argument {word!r}")
        if default is False:
            value = True
        elif not eq:  # the next word is the value, unless it is a flag
            if not argv or argv[0][:1] == "-" and not argv[0][1:2].isdigit():
                raise UsageError(words, f"{flag} expects a value")
            value = argv.pop(0)
        if type(default) is int:
            if not value.removeprefix("-").isdecimal():
                raise UsageError(words, f"{flag} expects an integer, not {value!r}")
            value = int(value)
        elif type(default) is tuple:
            value = getattr(args, dest) + (value,)
        setattr(args, dest, value)
    missing = [flag for flag, (dest, _) in flags.items() if getattr(args, dest) is REQUIRED]
    if missing:
        raise UsageError(words, f"missing {', '.join(missing)}")
    return args


def run(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as ex:  # -h or --help exits 0, a usage error 1
        words, message = ex.args
        error = f"{' '.join(('skewcert',) + words)}: error: {message}\n" if message else ""
        (sys.stderr if message else sys.stdout).write(usage(words) + error)
        return 1 if message else 0
    key = tuple(word for word in (args.command, args.target) if word)
    pipeline, flags = COMMANDS[key]
    t0 = time.monotonic()
    try:
        if getattr(args, "order", 1) < 1:
            raise ValueError("--order must be at least 1")
        if getattr(args, "max_word_len", 1) < 1:
            raise ValueError("--max-word-len must be at least 1")
        if getattr(args, "max_word_len", 1) > MAX_WORD_LEN:
            raise ValueError(f"--max-word-len must be at most {MAX_WORD_LEN}")
        verdicts = pipeline(args)
        params = {dest: getattr(args, dest) for dest, _ in flags.values()
                  if dest not in ("seed", "output")}
        elapsed_ms = int((time.monotonic() - t0) * 1000)
        emit_report(" ".join(key), params, verdicts, args.seed, elapsed_ms, args.output)
    except (KernelError, ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    return harness.worst_exit(verdicts)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
