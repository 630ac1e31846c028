"""Command-line entry point: wires the presets and certifications together
and emits machine-readable reports.

Report schema (version 1):

    { "schema": 1, "command": str, "params": {...},
      "verdicts": [ {"claim", "paper_label", "verdict", "data"}... ],
      "elapsed_ms": int, "seed": int }

Rational parameters and report values are serialized as "num/den" strings.
Exit codes: 0 all certified, 2 relation or counterexample found, 3
inconclusive (truncation ceiling), 1 usage or internal error.  Reports are
deterministic given (command, flags, seed); elapsed_ms is the only field
that varies between runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from fractions import Fraction

from . import harness
from .forkjoin import forked
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

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "basis":
            once("basis", "the basis")
            basis = parts[1:]
            twice = sorted({b for b in basis if basis.count(b) > 1})
            if twice:
                raise ValueError(f"line {lineno}: {twice[0]!r} appears twice in the basis")
        elif parts[0] == "weight":
            if len(parts) != 4 or parts[2] != "=":
                raise ValueError(f"line {lineno}: expected 'weight NAME = INT'")
            once(("weight", parts[1]), f"the weight of {parts[1]}")
            weights[parts[1]] = int(parts[3])
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
                        coeff = rat(coeff_s.strip())
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
                raise ValueError(f"[{j_name}, {i_name}] must be zero")
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    common.add_argument("--output", help="also write the JSON report to this path")
    ap = argparse.ArgumentParser(
        prog="skewcert",
        description="exact certifications for free symmetric subalgebras of "
                    "division rings built from enveloping algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="run a certification").add_subparsers(
        dest="target", required=True)
    for name, order in (("heisenberg", 32), ("twodim", 16)):
        sp = cert.add_parser(name, parents=[common])
        sp.add_argument("--max-word-len", type=int, default=3)
        sp.add_argument("--order", type=int, default=order)
    g = cert.add_parser("groupring", parents=[common])
    g.add_argument("--max-word-len", type=int, default=6)
    c = cert.add_parser("cauchon", parents=[common])
    c.add_argument("--alpha", required=True)
    c.add_argument("--beta", required=True)
    c.add_argument("--shift", default="2")
    c.add_argument("--max-word-len", type=int, default=2)
    n = cert.add_parser("nilpotent", parents=[common])
    n.add_argument("--order", type=int, default=12)

    ver = sub.add_parser("verify", help="verify a computed identity").add_subparsers(
        dest="target", required=True)
    s = ver.add_parser("scaling", parents=[common])
    s.add_argument("--lambda", dest="lams", action="append", default=None,
                   help="scaling factor; repeatable (default: 2 and 3)")
    s.add_argument("--order", type=int, default=12,
                   help="series order for the class-3 cross-check")
    ver.add_parser("valuation", parents=[common])

    st = sub.add_parser("selftest", parents=[common], help="full property suite")
    st.add_argument("--quick", action="store_true",
                    help="smaller sample counts (used by the test suite)")

    ca = sub.add_parser("check-algebra", parents=[common],
                        help="parse and validate a Lie algebra table")
    ca.add_argument("path")
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    seed = args.seed
    t0 = time.monotonic()
    params: dict = {}
    try:
        if getattr(args, "order", 1) < 1:
            raise ValueError("--order must be at least 1")
        if getattr(args, "target", None) in ("nilpotent", "scaling") and args.order < 2:
            # at order 1 every jet the class-3 cross-checks compare has trunc
            # 0, so they would pass without comparing a single coefficient
            raise ValueError("--order must be at least 2 for the class-3 jet cross-checks")
        if getattr(args, "max_word_len", 1) < 1:
            raise ValueError("--max-word-len must be at least 1")
        if args.command == "certify" and f"certify {args.target}" in harness.SKEW_PRESETS:
            command = f"certify {args.target}"
            if args.order > harness.JET_ORDER_CEILING:
                raise ValueError(f"--order must be at most {harness.JET_ORDER_CEILING}")
            params.update(max_word_len=args.max_word_len, order=args.order)
            preset = dataclasses.replace(harness.SKEW_PRESETS[command], beside=forked)
            verdicts = harness.run_certify_skew(preset, args.max_word_len, args.order, seed)
        elif args.command == "certify" and args.target == "groupring":
            params.update(max_word_len=args.max_word_len)
            verdicts = harness.run_certify_groupring(args.max_word_len, seed)
            command = "certify groupring"
        elif args.command == "certify" and args.target == "cauchon":
            params.update(alpha=args.alpha, beta=args.beta, shift=args.shift,
                          max_word_len=args.max_word_len)
            verdicts = harness.run_certify_cauchon(args.alpha, args.beta, args.shift,
                                                   args.max_word_len, seed)
            command = "certify cauchon"
        elif args.command == "certify" and args.target == "nilpotent":
            params.update(order=args.order)
            verdicts = harness.run_certify_nilpotent(args.order, seed, beside=forked)
            command = "certify nilpotent"
        elif args.command == "verify" and args.target == "scaling":
            lams = [rat(x) for x in (args.lams or ["2", "3"])]
            params.update(lams=[str(x) for x in lams], order=args.order)
            verdicts = harness.run_verify_scaling(tuple(lams), seed, class3_order=args.order,
                                                  beside=forked)
            command = "verify scaling"
        elif args.command == "verify" and args.target == "valuation":
            verdicts = harness.run_verify_valuation(seed)
            command = "verify valuation"
        elif args.command == "selftest":
            params.update(quick=args.quick)
            verdicts = harness.run_selftest(seed, quick=args.quick)
            command = "selftest"
        elif args.command == "check-algebra":
            with open(args.path) as fh:
                L = parse_lie_algebra(fh.read())
            ok = jacobi_check(L)
            verdicts = [harness.verdict(
                "Jacobi identity holds on all basis triples", "PBW", ok,
                {"basis": list(L.basis), "graded": L.graded,
                 "weights": list(L.weights)})]
            params.update(path=args.path)
            command = "check-algebra"
        else:  # pragma: no cover
            ap.error("unknown command")
            return 1
        elapsed_ms = int((time.monotonic() - t0) * 1000)
        emit_report(command, params, verdicts, seed, elapsed_ms, args.output)
    except (KernelError, ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    return harness.worst_exit(verdicts)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
