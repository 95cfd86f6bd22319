"""The four workloads: inputs drawn from a seed, library calls, oracle checks.

Each instance has three parts. ``run`` makes the library calls and is the
only timed part. ``key`` turns its output into a comparable value, so every
later pass is checked against the first. ``check`` compares the first
pass with an oracle that does not share the library's code path and
returns None when they agree, else the reason they differ.

The seed draws only what does not change the amount of work: which atoms a
cut holds, which lines a linear space has, the group order and the
perturbation of a control, the numerator of a rational weight. Instance
sizes are fixed per workload, so the time of a pass does not depend on the
seed and runs at different seeds measure the same thing.

The library is always called through module attributes (``lc.interlaces``,
``L.chain_polynomial``), never through names bound at import, so that
tracing wrappers and planted faults reach these calls too.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, floor, gcd
from typing import Any, Callable, List, Optional

import latchain as lc
from latchain import cli, families, suites
from latchain.polynomial import ExactPoly
from latchain.tn import RMatrix

import oracles as O


@dataclass
class Instance:
    tag: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    key: Callable[[Any], Any] = lambda out: out


@dataclass
class Workload:
    name: str
    tail_pct: int  # percentile reported as inst_tail_ms
    unit: str  # what one timed instance is
    build: Callable[[int, bool, str], List[Instance]]  # (seed, small, scratch dir)


def _coeffs(p: ExactPoly) -> tuple:
    return p.coeffs


def _first_mismatch(pairs) -> Optional[str]:
    for what, got, want in pairs:
        if got != want:
            return f"{what}: got {got!r}, oracle {want!r}"
    return None


# -- rows-interlace ----------------------------------------------------------------

T2_T_1 = ExactPoly((1, 1, 1))  # t^2 + t + 1: two non-real roots
T2_MINUS_2 = ExactPoly((-2, 0, 1))  # t^2 - 2: roots +-sqrt(2), outside [-1, 0]


def _chain_poly(m: int, n: int) -> ExactPoly:
    return lc.chain_polys_from_rmatrix(lc.dowling_rows(m, n))[n]


def _dowling_pipeline(m: int, N: int):
    """resolve -> witness.verify -> real roots in [-1, 0] -> consecutive interlacing."""
    rows = lc.dowling_rows(m, N)
    outcome = lc.resolve(rows)
    verified = outcome.ok and outcome.witness.verify(rows)
    ps = lc.chain_polys_from_rmatrix(rows)
    located = tuple(lc.is_real_rooted(p) and lc.roots_in_interval(p, -1, 0) for p in ps)
    inter = tuple(lc.interlaces(a, b) for a, b in zip(ps, ps[1:]))
    return tuple(map(_coeffs, rows.rows)), verified, tuple(map(_coeffs, ps)), located, inter


def _check_dowling(m: int, N: int):
    def check(out) -> Optional[str]:
        rows, verified, ps, located, inter = out
        stepped = [
            families.dowling_step_operator(m, ExactPoly(rows[n - 1])).coeffs for n in range(1, N + 1)
        ]
        pairs = [("rows[0]", rows[0], (1,)), ("step operator identity", list(rows[1:]), stepped)]
        pairs.append(("resolve + verify", verified, True))
        if N <= 5:
            tnn = lc.is_totally_nonnegative(RMatrix.from_int_rows(rows))
            pairs.append(("all-minors total nonnegativity", tnn, True))
        want_located = tuple(O.real_rooted(p) and O.roots_in_minus_one_zero(p) for p in ps)
        want_inter = tuple(O.interlaces(a, b) for a, b in zip(ps, ps[1:]))
        pairs += [("roots in [-1, 0]", located, want_located), ("interlacing", inter, want_inter)]
        # the theorem the pipeline certifies, independent of either computation
        pairs += [("all located", all(want_located), True), ("all interlace", all(want_inter), True)]
        return _first_mismatch(pairs)

    return check


def _squared_control(m: int, n: int) -> Instance:
    """p^2 for a chain polynomial p: every root repeated, all in [-1, 0]."""

    def run():
        c = _chain_poly(m, n) ** 2
        rr = lc.is_real_rooted(c)
        return c.coeffs, rr, rr and lc.roots_in_interval(c, -1, 0)

    def check(out):
        c, rr, inside = out
        return _first_mismatch(
            [
                ("real-rooted", rr, O.real_rooted(c)),
                ("roots in [-1, 0]", inside, O.roots_in_minus_one_zero(c)),
                ("by construction", (rr, inside), (True, True)),
            ]
        )

    return Instance(f"control:squared:m={m}:n={n}", run, check)


def _nonreal_control(m: int, n: int) -> Instance:
    def run():
        c = _chain_poly(m, n) * T2_T_1
        return c.coeffs, lc.is_real_rooted(c)

    def check(out):
        c, rr = out
        return _first_mismatch([("real-rooted", rr, O.real_rooted(c)), ("by construction", rr, False)])

    return Instance(f"control:nonreal:m={m}:n={n}", run, check)


def _brackets(interval, root_squared: int, positive: bool) -> bool:
    """(a, b] holds +-sqrt(root_squared), which is irrational."""
    a, b = interval
    if positive:
        return (a < 0 or a * a < root_squared) and b > 0 and b * b > root_squared
    return a < 0 and a * a > root_squared and (b >= 0 or b * b < root_squared)


def _irrational_control(m: int, n: int) -> Instance:
    def run():
        c = _chain_poly(m, n) * T2_MINUS_2
        rr = lc.is_real_rooted(c)
        inside = lc.roots_in_interval(c, -1, 0)
        iso = lc.isolate_real_roots(c)  # the failure witness, as the suites report it
        return c.coeffs, rr, inside, iso.intervals, iso.multiplicities

    def check(out):
        c, rr, inside, intervals, mults = out
        return _first_mismatch(
            [
                ("real-rooted", rr, O.real_rooted(c)),
                ("roots in [-1, 0]", inside, O.roots_in_minus_one_zero(c)),
                ("by construction", (rr, inside), (True, False)),
                ("isolating intervals", len(intervals), O.distinct_real_roots(c)),
                ("multiplicities", sum(mults), len(c) - 1),
                ("interval around sqrt 2", any(_brackets(iv, 2, True) for iv in intervals), True),
                ("interval around -sqrt 2", any(_brackets(iv, 2, False) for iv in intervals), True),
            ]
        )

    return Instance(f"control:irrational:m={m}:n={n}", run, check)


def _perturbed_control(m: int, n: int, r: int, delta: int) -> Instance:
    """Row r gets [t^1] R_r = [t^1] R_(r+1) + delta, so the 2x2 minor on rows
    r, r+1 and columns 0, 1 is -delta: not totally nonnegative, so resolve
    must find an obstruction."""

    def run():
        rows = [list(p.coeffs) for p in lc.dowling_rows(m, n).rows]
        rows[r][1] = rows[r + 1][1] + delta
        perturbed = RMatrix.from_int_rows(rows)
        outcome = lc.resolve(perturbed)
        return tuple(map(tuple, rows)), outcome.ok, outcome.obstruction, outcome.position

    def check(out):
        rows, ok, obstruction, _ = out
        minor = rows[r][0] * rows[r + 1][1] - rows[r][1] * rows[r + 1][0]
        return _first_mismatch(
            [
                ("negative minor", minor, -delta),
                ("all-minors total nonnegativity", lc.is_totally_nonnegative(RMatrix.from_int_rows(rows)), False),
                ("resolvable", ok, False),
                ("obstruction reported", obstruction is not None, True),
            ]
        )

    return Instance(f"control:perturbed:m={m}:n={n}:row={r}:delta={delta}", run, check)


def _interlace_control(m: int, n: int, a: int, b: int, c: int, d: int, e: int) -> Instance:
    """g = p (t+a)(t+b), f = p (t+c)(t+d)(t+e) with 1 < a <= b and a < c, d, e.

    Every root of the chain polynomial p lies in [-1, 0], so after the shared
    roots the next root of g, -a, lies above the next root of f: g cannot
    interlace f."""

    def run():
        p = _chain_poly(m, n)
        g = p * ExactPoly((a, 1)) * ExactPoly((b, 1))
        f = p * ExactPoly((c, 1)) * ExactPoly((d, 1)) * ExactPoly((e, 1))
        return g.coeffs, f.coeffs, lc.interlaces(g, f)

    def check(out):
        g, f, verdict = out
        return _first_mismatch([("interlacing", verdict, O.interlaces(g, f)), ("by construction", verdict, False)])

    return Instance(f"control:no-interlace:m={m}:n={n}:{a},{b}|{c},{d},{e}", run, check)


def build_rows_interlace(seed: int, small: bool, scratch: str) -> List[Instance]:
    rng = random.Random(seed)
    # 25 instances: the median and the 90th percentile fall inside one size
    # class (N = 5 and N = 9), not on the border between two
    ms, sizes, n_ctl = ((1, 2), (2, 4), 3) if small else ((1, 2, 3, 4), (3, 5, 6, 7, 9), 4)
    out = [
        Instance(f"dowling:m={m}:N={N}", (lambda m=m, N=N: _dowling_pipeline(m, N)), _check_dowling(m, N))
        for m in ms
        for N in sizes
    ]
    out.append(_squared_control(rng.randint(1, 4), n_ctl))
    out.append(_nonreal_control(rng.randint(1, 4), n_ctl))
    out.append(_irrational_control(rng.randint(1, 4), n_ctl))
    out.append(_perturbed_control(rng.randint(1, 4), n_ctl, rng.randint(2, n_ctl - 1), rng.randint(1, 5)))
    a = rng.randint(2, 5)
    b, c, d, e = rng.randint(a, 9), rng.randint(a + 1, 9), rng.randint(a + 1, 9), rng.randint(a + 1, 9)
    out.append(_interlace_control(rng.randint(1, 4), n_ctl, a, b, c, d, e))
    return out


# -- lattice-verify ----------------------------------------------------------------


def _lattice_pipeline(build: Callable, uniform: bool):
    """is_lattice -> is_geometric -> chain_polynomial -> roots in [-1, 0]
    -> rank_matrix / resolve / chain polynomials from the rows."""
    L = build()
    lat = L.is_lattice
    geo = lc.is_geometric(L)
    c = L.chain_polynomial()
    rr = lc.is_real_rooted(c)
    inside = lc.roots_in_interval(c, -1, 0) if rr else None
    rows_part = None
    if uniform:
        rows = lc.rank_matrix(L)
        outcome = lc.resolve(rows)
        ps = lc.chain_polys_from_rmatrix(rows)
        # a chain with maximum x != bottom either contains the bottom or not:
        # C(t) = 1 + t + (1 + t) * sum_n #(rank n) * p_n(t)
        top = rows.rows[-1]
        acc = ExactPoly((1, 1))
        for n in range(1, rows.order + 1):
            acc = acc + ExactPoly((1, 1)) * ps[n] * top.coefficient(n)
        rows_part = (outcome.ok and outcome.witness.verify(rows), acc.coeffs)
    return L, lat, geo, c.coeffs, rr, inside, rows_part


def _lattice_key(out):
    L, *rest = out
    return (L.n,) + tuple(rest)


def _lattice_instance(tag: str, build: Callable, geometric: bool, uniform: bool, counts_of: Callable) -> Instance:
    """counts_of(L) gives the oracle chain counts; only the brute-force
    oracle reads the built lattice L."""

    def check(out):
        L, lat, geo, c, rr, inside, rows_part = out
        want = O.trim(counts_of(L))
        want_rr = O.real_rooted(want)
        pairs = [
            ("is_lattice", lat, True),
            ("is_geometric", geo, geometric),
            ("chain counts", c, want),
            ("real-rooted", rr, want_rr),
        ]
        if want_rr:
            pairs.append(("roots in [-1, 0]", inside, O.roots_in_minus_one_zero(want)))
        if uniform:
            verified, from_rows = rows_part
            pairs += [("resolve + verify", verified, True), ("chains from rank rows", from_rows, want)]
        return _first_mismatch(pairs)

    return Instance(tag, (lambda: _lattice_pipeline(build, uniform)), check, _lattice_key)


def _flags(top: int, up):
    return lambda L: O.flag_chain_counts(top, up)


def _rank3_closed_form(points: int, lines):
    """(1 + (m1 + m2) t + e t^2)(1 + t)^2 from the generated incidence data."""
    e = sum(len(l) for l in lines)
    return lambda L: O.mul(O.mul((1, points + len(lines), e), (1, 1)), (1, 1))


def _random_linear_space(rng: random.Random, n: int) -> List[frozenset]:
    """Lines on points 1..n covering every pair exactly once; at least two."""
    while True:
        pairs = list(combinations(range(1, n + 1), 2))
        rng.shuffle(pairs)
        covered, lines = set(), []
        for a, b in pairs:
            if (a, b) in covered:
                continue
            line = {a, b}
            for c in rng.sample(range(1, n + 1), n):
                if c not in line and len(line) < n - 1 and rng.random() < 0.45:
                    if all(tuple(sorted((c, x))) not in covered for x in line):
                        line.add(c)
            lines.append(frozenset(line))
            covered.update(combinations(sorted(line), 2))
        if len(lines) >= 2:
            return lines


def _see_dsl(rng: random.Random, host: str, atoms: int, size: int) -> str:
    cut = sorted(rng.sample(range(1, atoms + 1), size))
    return f"see:{host}:cut={','.join(map(str, cut))}"


def build_lattice_verify(seed: int, small: bool, scratch: str) -> List[Instance]:
    rng = random.Random(seed)
    out: List[Instance] = []

    def family(tag, build, top, up, uniform):
        out.append(_lattice_instance(tag, build, True, uniform, _flags(top, up)))

    # 35 instances: 15 of a few milliseconds (among them every seed-drawn
    # one), 11 of 5-30 ms, 9 large; so the median and the 90th percentile
    # fall on fixed instances
    booleans, partitions = ((3, 4), (4,)) if small else ((6, 7, 8, 9, 10), (5, 6, 7))
    subspaces = ((2, 2), (3, 2)) if small else ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 5), (3, 5), (2, 7))
    affines = ((2, 2),) if small else ((2, 2), (3, 2), (2, 3), (3, 3), (2, 5), (2, 7))
    truncs = ((4, 1),) if small else ((7, 1), (8, 2), (9, 3))
    for n in booleans:
        family(f"boolean:{n}", lambda n=n: lc.boolean_lattice(n), n, O.boolean_up(n), True)
    for n in partitions:
        family(f"partition:{n}", lambda n=n: lc.partition_lattice(n), n - 1, O.partition_up(n), False)
    for n, q in subspaces:
        family(f"subspace:{n}:{q}", lambda n=n, q=q: lc.subspace_lattice(n, q), n, O.subspace_up(n, q), True)
    for n, q in affines:
        family(f"affine:{n}:{q}", lambda n=n, q=q: lc.affine_lattice(n, q), n + 1, O.affine_up(n, q), True)
    for n, k in truncs:
        up = O.truncated_up(O.boolean_up(n), n - k - 1)
        family(f"trunc-boolean:{n}:{k}", lambda n=n, k=k: lc.truncated_boolean(n, k), n - k, up, True)
    if not small:
        up = O.truncated_up(O.subspace_up(4, 2), 2)
        family("truncate:subspace:4:2", lambda: lc.subspace_lattice(4, 2).truncate(), 3, up, True)
        up = O.truncated_up(O.partition_up(6), 3)
        family("truncate:partition:6", lambda: lc.partition_lattice(6).truncate(), 4, up, False)

    # seed-drawn rank-3 linear spaces, checked against the closed form
    for n in (5, 6) if small else (7, 8, 9):
        lines = _random_linear_space(rng, n)
        tag = f"linear-space:{n}:" + "|".join(",".join(map(str, sorted(l))) for l in lines)
        build = lambda n=n, lines=lines: lc.linear_space_lattice(n, lines)
        out.append(_lattice_instance(tag, build, True, False, _rank3_closed_form(n, lines)))

    # seed-drawn principal single-element extensions, all of 20 elements or fewer
    hosts = (("boolean:3", 3, 2),) if small else (("boolean:4", 4, 2), ("trunc-boolean:4:1", 4, 2))
    for host, atoms, size in hosts:
        dsl = _see_dsl(rng, host, atoms, size)
        out.append(_lattice_instance(dsl, lambda dsl=dsl: lc.build_instance(dsl), True, False, suites.brute_force_oracle))

    # controls: lattices that are not geometric, with known chain counts
    k = rng.randint(3, 6)
    controls = [(f"chain:{k}", lambda: lc.chain_poset(k), lambda L: [comb(k, j) for j in range(k + 1)])]
    if not small:
        controls += [
            ("dual-partition:5", lambda: lc.partition_lattice(5).dual(), _flags(4, O.partition_up(5))),
            ("dual-affine:2:3", lambda: lc.affine_lattice(2, 3).dual(), _flags(3, O.affine_up(2, 3))),
        ]
    for tag, build, counts_of in controls:
        out.append(_lattice_instance(f"control:{tag}", build, False, False, counts_of))
    return out


# -- suite-corpus ------------------------------------------------------------------


class _Discard(io.TextIOBase):
    def write(self, s: str) -> int:
        return len(s)


def _suite_instance(name: str, seed: int, path: str) -> Instance:
    argv = ["suite", name, "--seed", str(seed), "--json", path]

    def run():
        with redirect_stdout(_Discard()):
            return cli.main(argv)

    def key(rc):
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        for r in records:
            r.pop("runtime_ms")  # the only field that differs between passes
        return rc, json.dumps(records, sort_keys=True, default=str)

    def check(rc):
        _, text = key(rc)
        records = json.loads(text)
        pairs = [
            ("exit code", rc, 0),
            ("instances", len(records), SUITE_SIZES[name]),
            ("verdicts", sorted({r["verdict"] for r in records}), ["pass"]),
        ]
        pairs += _suite_witness_checks(name, seed, records)
        return _first_mismatch(pairs)

    return Instance(f"suite:{name}", run, check, key)


# instances per suite in the default corpora (433 in all)
SUITE_SIZES = {
    "rank3": 200,
    "paving": 23,
    "dowling": 3,
    "designs": 6,
    "triangular": 17,
    "ordinal-sum": 32,
    "see": 100,
    "diamond": 50,
    "counterexample": 2,
}


def _family_counts(dsl: str):
    """Oracle chain counts for the upper-uniform families a DSL can name."""
    head, *args = dsl.split(":")
    a = list(map(int, args))
    if head == "boolean":
        return O.flag_chain_counts(a[0], O.boolean_up(a[0]))
    if head == "trunc-boolean":
        n, k = a
        return O.flag_chain_counts(n - k, O.truncated_up(O.boolean_up(n), n - k - 1))
    if head == "subspace":
        return O.flag_chain_counts(a[0], O.subspace_up(*a))
    if head == "affine":
        return O.flag_chain_counts(a[0] + 1, O.affine_up(*a))
    if head == "partition":
        return O.flag_chain_counts(a[0] - 1, O.partition_up(a[0]))
    return None


def _parse(text: str) -> tuple:
    return O.trim(Fraction(tok) for tok in text.split())


def _suite_witness_checks(name: str, seed: int, records) -> list:
    pairs = []
    if name == "rank3":
        rng = random.Random(seed)
        for r in records:
            L = suites.random_rank3_geometric(rng)
            want = suites.brute_force_oracle(L) if L.n <= 20 else suites.rank3_formula(L).coeffs
            pairs.append((r["instance"], _parse(r["witness"]["chain"]), O.trim(want)))
    elif name in ("paving", "triangular"):
        for r in records:
            want = _family_counts(r["instance"])
            if want is not None:
                pairs.append((r["instance"], _parse(r["witness"]["chain"]), want))
    elif name == "counterexample":
        for r in records:
            w = r["witness"]
            n, q = w["n"], w["first_failing_q"]
            failing = _parse(w["failing_poly"])
            pairs += [
                (f"n={n} first failing q", q, O.FIRST_FAILING_Q[n]),
                (f"n={n} eulerian", _parse(w["eulerian"]), O.eulerian_numbers(n)),
                (f"n={n} Mahonian sum", sum(failing), O.q_factorial(n, q)),
                (f"n={n} failing roots", len(w["failing_roots"]), O.distinct_real_roots(failing)),
            ]
    return pairs


def build_suite_corpus(seed: int, small: bool, scratch: str) -> List[Instance]:
    names = ("dowling", "counterexample") if small else suites.SUITE_NAMES
    return [_suite_instance(name, seed, os.path.join(scratch, f"{name}.jsonl")) for name in names]


# -- q-scan ------------------------------------------------------------------------


def _counterexample_instance(n: int) -> Instance:
    def run():
        return lc.counterexample_search(n, 64)

    def key(w):
        return json.dumps(w, sort_keys=True, default=str)

    def check(w):
        q = w["first_failing_q"]
        failing = _parse(w["failing_poly"])
        pairs = [
            ("first failing q", q, O.FIRST_FAILING_Q[n]),
            ("eulerian", _parse(w["eulerian"]), O.eulerian_numbers(n)),
            ("Mahonian sum", sum(failing), O.q_factorial(n, q)),
            ("failing roots", len(w["failing_roots"]), O.distinct_real_roots(failing)),
            ("interlacing at the failing q", O.interlaces(O.eulerian_numbers(n), failing), False),
        ]
        if n <= 3:
            pairs.append(("subspace h-polynomials", sorted(w["h_polynomial_checks"].values()), [True, True]))
        return _first_mismatch(pairs)

    return Instance(f"counterexample:n={n}", run, check, key)


def _q_instance(n: int, q: Fraction) -> Instance:
    def run():
        e = lc.eulerian(n)
        w = lc.q_eulerian(n, q)
        return e.coeffs, w.coeffs, lc.interlaces(e, w)

    def check(out):
        e, w, verdict = out
        return _first_mismatch(
            [
                ("eulerian", e, O.eulerian_numbers(n)),
                ("Mahonian sum", sum(w), O.q_factorial(n, q)),
                ("interlacing", verdict, O.interlaces(e, w)),
            ]
        )

    return Instance(f"q-eulerian:n={n}:q={q}", run, check)


def build_q_scan(seed: int, small: bool, scratch: str) -> List[Instance]:
    rng = random.Random(seed)
    out = [_counterexample_instance(n) for n in ((3, 4) if small else range(3, 9))]
    # q = a/d in [7/4, 9/4]: the denominator is fixed per slot and the
    # numerator drawn from a narrow range, so coefficient sizes, and with them
    # the work, hardly depend on the seed
    # 15 instances: the median falls on counterexample n = 6 and the 75th
    # percentile on n = 7, both fixed
    slots = ((4, 7), (5, 11)) if small else ((6, 7), (6, 11), (6, 13), (6, 17), (7, 7), (7, 11), (7, 13), (8, 7), (8, 11))
    for n, d in slots:
        a = rng.choice([a for a in range(ceil(1.75 * d), floor(2.25 * d) + 1) if gcd(a, d) == 1])
        out.append(_q_instance(n, Fraction(a, d)))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rows-interlace", 90, "one dowling_rows(m, N) pipeline or one control", build_rows_interlace),
        Workload("lattice-verify", 90, "one lattice built and certified", build_lattice_verify),
        Workload("suite-corpus", 75, "one `latchain suite <name>` call", build_suite_corpus),
        Workload("q-scan", 75, "one counterexample_search(n, 64) or one q_eulerian check", build_q_scan),
    )
}
