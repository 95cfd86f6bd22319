"""Command line interface.

    latchain suite <name>|all [--instances file] [--seed k]
                              [--json out.jsonl] [--csv out.csv]
    latchain poly <op> <coeffs...> [--lo r] [--hi r] [--n k] [--at r]
    latchain build <DSL> --out <path>

`suite all` runs the nine suites in order and writes all their reports to
one --json and one --csv file; --instances needs a single suite. Both
report files are opened before the first suite runs, so an unwritable
path stops the command at once. Every instance a suite reports can be fed
back to it through --instances. `build` writes a rank-row head
(boolean-rows, chain-rows, trunc-rows, dowling-rows) as rank rows, read by
families.build_rows, and any other DSL as a poset, read by build_instance.

Exit codes: 0 all checks pass, 1 a check failed or could not run, 2 usage
error (missing or malformed argument, unreadable instances or d-partition
file, unwritable output file, unknown or malformed DSL in `build`),
reported on one line.
Integers are ASCII [+-]?[0-9]+ everywhere: DSL fields, cut members, suite
tags, text formats, --seed and --n. Coefficient lists, --lo, --hi and --at
also take p/q. Nothing else is a number (no 1e9, 1_0, 0.5, 1/0 or non-ASCII
digits). Negative flag values need the equals form, e.g. --lo=-1/2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .families import _ROWS, build_instance, build_rows
from .permstats import eulerian, q_eulerian
from .polynomial import (
    DigitLimitError,
    ExactPoly,
    _decimals,
    _integer,
    _rational,
    diamond_product,
    f_from_h,
    h_from_f,
    interlaces,
    is_real_rooted,
    roots_in_interval,
    sturm_real_root_count,
)
from .posets import write_poset
from .reports import write_csv, write_jsonl
from .suites import SUITE_NAMES, suite_run


def _int_flag(token: str) -> int:  # --seed and --n, refused in argparse's own words for int flags
    try:
        return _integer(token)
    except DigitLimitError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


def _check_writable(args: argparse.Namespace, paths: List[str]) -> None:
    """Usage error unless every path opens for writing; a file that did not
    exist before is removed again, one that did is left untouched."""
    created = []
    try:
        for path in paths:
            existed = os.path.exists(path)
            open(path, "a", encoding="utf-8").close()
            if not existed:
                created.append(path)
    except OSError as exc:
        for path in created:
            os.remove(path)
        args.parser.error(f"cannot write reports: {exc}")


def _cmd_suite(args: argparse.Namespace) -> int:
    instances = None
    if args.instances is not None:
        if args.name == "all":
            args.parser.error("--instances needs a single suite, not all")
        try:
            with open(args.instances, "r", encoding="utf-8") as fh:
                instances = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
        except (OSError, UnicodeDecodeError) as exc:
            args.parser.error(f"cannot read --instances file: {exc}")
        if not instances:
            args.parser.error(f"--instances file {args.instances} lists no instance")
    _check_writable(args, [path for path in (args.json, args.csv) if path])
    names = SUITE_NAMES if args.name == "all" else (args.name,)
    reports = []
    for name in names:
        reports += suite_run(name, instances=instances, seed=args.seed)
    for r in reports:
        print(f"{r.verdict.upper():5s} {r.suite} {r.instance} ({r.runtime_ms} ms)")
    passed = sum(1 for r in reports if r.ok)
    print(f"{passed}/{len(reports)} passed")
    try:
        if args.json:
            write_jsonl(reports, args.json)
        if args.csv:
            write_csv(reports, args.csv)
    except OSError as exc:
        args.parser.error(f"cannot write reports: {exc}")
    return 0 if passed == len(reports) else 1


def _interval(args: argparse.Namespace):
    """--lo and --hi as rationals, or None when neither is given."""
    if args.lo is None and args.hi is None:
        return None
    if args.lo is None or args.hi is None:
        raise ValueError("needs both --lo and --hi, or neither")
    return _rational(args.lo), _rational(args.hi)


# each poly op: its number of coefficient lists, the flags it needs as its usage error names them,
# and what it prints (a verdict as true or false)
_POLY_OPS = {
    "real-rooted": (1, (), lambda a, ps: str(is_real_rooted(ps[0])).lower()),
    "sturm-count": (1, (), lambda a, ps: str(sturm_real_root_count(ps[0], _interval(a)))),
    "roots-in-interval": (
        1, ("--lo", "--hi"), lambda a, ps: str(roots_in_interval(ps[0], *_interval(a))).lower()
    ),
    "interlaces": (2, (), lambda a, ps: str(interlaces(ps[0], ps[1])).lower()),
    "diamond": (2, (), lambda a, ps: diamond_product(ps[0], ps[1]).to_string()),
    "h-from-f": (1, ("--n",), lambda a, ps: h_from_f(ps[0], a.n).to_string()),
    "f-from-h": (1, ("--n",), lambda a, ps: f_from_h(ps[0], a.n).to_string()),
    "eval": (1, ("--at",), lambda a, ps: _decimals([ps[0](_rational(a.at))])),
    "eulerian": (0, ("--n",), lambda a, ps: eulerian(a.n).to_string()),
    "q-eulerian": (0, ("--n", "--at <q>"), lambda a, ps: q_eulerian(a.n, _rational(a.at)).to_string()),
}


def _poly_result(args: argparse.Namespace) -> str:
    """What a poly op prints; a ValueError describes a usage error."""
    arity, flags, result = _POLY_OPS[args.op]
    if len(args.coeffs) != arity:
        raise ValueError(f"needs {arity} coefficient list(s), got {len(args.coeffs)}")
    ps = [ExactPoly.from_string(text) for text in args.coeffs]
    if any(getattr(args, flag.split()[0].lstrip("-")) is None for flag in flags):
        raise ValueError("needs " + " and ".join(flags))
    return result(args, ps)


def _cmd_poly(args: argparse.Namespace) -> int:
    try:
        print(_poly_result(args))
    except (ValueError, ZeroDivisionError) as exc:
        args.parser.error(f"{args.op}: {exc}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    rows = args.dsl.partition(":")[0] in _ROWS
    try:
        built = build_rows(args.dsl) if rows else build_instance(args.dsl)
    except (ValueError, LookupError, OSError) as exc:
        args.parser.error(f"cannot build {args.dsl!r:.200}: {type(exc).__name__}: {exc}")
    try:
        if rows:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(built.to_text())
            print(f"wrote {built.order + 1} rank rows to {args.out}")
        else:
            write_poset(built, args.out)
            print(f"wrote poset with {built.n} elements to {args.out}")
    except OSError as exc:
        args.parser.error(f"cannot write --out file: {exc}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="latchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="run a verification suite, or all of them")
    p_suite.add_argument("name", choices=sorted(SUITE_NAMES) + ["all"])
    p_suite.add_argument("--instances", help="file with one DSL instance per line")
    p_suite.add_argument("--seed", type=_int_flag, default=0)
    p_suite.add_argument("--json", help="write reports as JSON lines")
    p_suite.add_argument("--csv", help="write a CSV summary")
    p_suite.set_defaults(func=_cmd_suite, parser=p_suite)

    p_poly = sub.add_parser("poly", help="exact polynomial operations")
    p_poly.add_argument("op", choices=list(_POLY_OPS))
    p_poly.add_argument("coeffs", nargs="*", help='coefficient lists, e.g. "1 4 5 2"')
    p_poly.add_argument("--lo")
    p_poly.add_argument("--hi")
    p_poly.add_argument("--n", type=_int_flag)
    p_poly.add_argument("--at")
    p_poly.set_defaults(func=_cmd_poly, parser=p_poly)

    p_build = sub.add_parser("build", help="build a family instance and write it out")
    p_build.add_argument("dsl")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_build, parser=p_build)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
