"""Shared builders for the test suite: reference posets, random corpora,
a root-list interlacing comparator independent of the library path, the
all-pairs join/meet tables that the lattice layer replaced, the all-pairs
inclusion scan that the set-family builder replaced, the paving lattices
listed as sets that their emitted covers replaced (``paving_poset_by_sets``),
the bottom-to-top chains counted on a built interval subposet that the
element program on its mask replaced (``bounded_chain_polynomial_by_interval``),
the covered-pair set of the rank-3 draws that one bitmask per point
replaced (``random_rank3_lines_by_pairs``), the echelon sums
and coset translation that the flat listing of subspace and affine
lattices replaced, the cover-path gradedness search that the single cover
scan replaced and that scan, cover by cover, which the climb sum replaced
(``graded_by_covers``), the permutation enumeration that the chain-count route
of permstats replaced, the packed element program that the level
quotient of uniform posets bypasses (``chain_fields_by_pairs``), the
per-coefficient chain-counting program, the per-rank-set flag f-vector
program and the per-element rank-profile walks that packed chain counts
and level-mask popcounts replaced, the
poset constructor that filtered a set of pair tuples for covers, the
join-fiber formula that Mobius inversion replaced for the incidence rank
function on lattices, and chain and multichain walks for Philip Hall's
theorem and the zeta polynomial. For single-element extensions: the
modular cuts by filtering every up-closed subset (``all_modular_cuts``),
a definitional cut test over every pair of members
(``modular_cut_by_definition``), the per-atom ``leq`` scan that atom-mask
reads replaced (``element_by_leq_scan``), and the three flat lists that
the one-pass extension replaced (``extension_by_flat_lists``).
``levels_by_rho`` groups the elements by a quasi-rank found from the
covers alone, as the poset core's stored level masks should.

The real-root oracles work over the rationals and share no code with the
library's integer remainder sequence: long division (``poly_divmod``),
Euclid's gcd (``poly_gcd``), the square-free part and Yun's square-free
decomposition (``squarefree_part``, ``squarefree_decomposition``), Fraction Sturm
chains, and on them ``real_rooted_by_sturm``,
``roots_in_interval_by_sturm``, ``interlaces_by_isolation``,
``isolate_by_sturm`` and ``root_count_by_sturm``. ``sign_at_by_fraction_horner``
is the Fraction Horner evaluation that signs of b^d p(a/b) in integers
replaced, and ``verify_interlacing_certificate`` re-checks the library's
interlacing certificate by evaluation alone. ``taylor_shift_by_compose``
is the Horner composition that root location used before its in-place
Taylor shift. ``rebase_by_powers`` is the f/h transform by powers of
(1 +/- t) that the binomial expansion replaced. ``tp2_by_cross_products``
is the 2x2 minor loop that the shared minor test replaced, and
``diamond_by_basis`` the diamond product through the binomial basis
that one bilinear formula replaced. ``isomorphic_by_backtracking`` is the
refine-once-then-backtrack isomorphism test that individualization-refinement
replaced, and ``rank_selection_sweep_by_all_masks`` the rank-selection sweep
that certified every selection before factor ranks were skipped.
``resolve_by_polys`` and ``chain_polys_by_polys`` are the resolvability
certificate and the rank-row chain polynomials by ExactPoly arithmetic,
one polynomial per column step, that coefficient lists replaced.
``array_by_polys`` rebuilds the polynomial array a certificate's
multipliers fix, by ExactPoly sums and scalar products, and
``verify_by_polys`` checks every invariant of that array, as the library
checked a stored array before the certificate became its multipliers.

The last section holds what the library exported but only the tests ran:
the damped interlacing and TP2 checks, the binomial basis, the Mobius
function and zeta polynomial, the subdivision operator, the semimodular,
modular, triangular and perfect-matroid-design predicates, the incidence
rank function with its cover recursion, the generalized paving
construction, the co-atoms of a truncated principal extension, and the
rank-selection sweep on its own (``rank_selection_sweep``)."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple
from unittest import mock

import pytest

from latchain import (
    CheckReport,
    ExactPoly,
    Poset,
    RMatrix,
    boolean_lattice,
    brute_force_oracle,
    chain_polys_from_rmatrix,
    chain_poset,
    interlaces,
    is_geometric,
    is_quasi_rank_uniform,
    modular_cut_validate,
    truncated_boolean,
)
from latchain.families import _atom_names, _poset_from_sets
from latchain.polynomial import Scalar, _minors_nonnegative
from latchain.posets import MAX_ELEMENTS, _bits
from latchain.suites import (
    _SWEEP_MAX_ELEMENTS,
    _SWEEP_MAX_RANK,
    _certify_rank_selections,
    _check_unit_interval_roots,
    _swept_flag_f_vector,
)
from latchain.tn import ResolutionWitness, ResolveOutcome, _is_graded, _require_lattice


ONE = ExactPoly((1,))


def run_cli(argv: Sequence[str], timeout: float) -> subprocess.CompletedProcess:
    """Run ``python -m latchain.cli *argv`` in a child process.

    The child is killed once ``timeout`` seconds pass and the test fails,
    so a runaway command never keeps running beside later tests.
    """
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        return subprocess.run(
            [sys.executable, "-m", "latchain.cli", *argv], env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"latchain {' '.join(argv)} still running after {timeout} s")


def quasi_uniform_13() -> Poset:
    """A 13-element quasi-rank uniform poset that is not graded.

    Six atoms over the bottom; two towers of two rank-2 elements each;
    two rank-3 tops, each covering two rank-2 elements and one atom
    directly (the direct atom covers are the rank jumps). Rank generating
    polynomial: 1 + 6t + 4t^2 + 2t^3.
    """
    covers = [(0, a) for a in range(1, 7)]
    covers += [(2, 7), (3, 8), (4, 9), (5, 10)]
    covers += [(7, 11), (8, 11), (1, 11)]
    covers += [(9, 12), (10, 12), (6, 12)]
    return Poset(13, covers)


def rank_uniform_tower_13() -> Poset:
    """A 13-element rank uniform poset of rank 5 used as a paving host.

    Bottom 0; atoms 1..4; rank-2 elements 5..8 (one over each atom);
    rank-3 elements 9 (over 5, 6) and 10 (over 7, 8); rank-4 element 11
    (over 9, 10); rank-5 top 12.
    """
    covers = [(0, a) for a in range(1, 5)]
    covers += [(1, 5), (2, 6), (3, 7), (4, 8)]
    covers += [(5, 9), (6, 9), (7, 10), (8, 10)]
    covers += [(9, 11), (10, 11), (11, 12)]
    return Poset(13, covers)


def collapsed_tower_9() -> Poset:
    """The nine-element collapse of the tower: paving_construction(P, {7,8,9}, 11, 2).

    Elements: bottom 0; atoms 1..4; level {5, 6, 7} with 5 over 3, 6 over
    4, 7 over 1 and 2; top 8.
    """
    covers = [(0, a) for a in range(1, 5)]
    covers += [(3, 5), (4, 6), (1, 7), (2, 7)]
    covers += [(5, 8), (6, 8), (7, 8)]
    return Poset(9, covers)


def nonuniform_5() -> Poset:
    """Bottom, atoms a and b, c over a only, d over both: not rank uniform."""
    return Poset(5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4)])


def pentagon() -> Poset:
    """The five-element non-semimodular lattice (one long side, one short)."""
    return Poset(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def m3() -> Poset:
    """The five-element modular, non-distributive lattice (three atoms)."""
    return Poset(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def with_bounds(p: Poset) -> Poset:
    """p with a new least element and a new greatest element adjoined."""
    n = p.n
    rels = list(p.covers) + [(n, x) for x in range(n)] + [(x, n + 1) for x in range(n)]
    return Poset(n + 2, rels)


def random_poset(rng: random.Random, n: int) -> Poset:
    """Random poset on n elements: edges i -> j (i < j) kept with probability p."""
    p = rng.uniform(0.1, 0.5)
    rels = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Poset(n, rels)


def random_bounded(rng: random.Random, n_mid: int) -> Poset:
    """Random poset with forced bottom and top around a random middle."""
    n = n_mid + 2
    rels = [(0, i) for i in range(1, n - 1)] + [(i, n - 1) for i in range(1, n - 1)]
    rels += [
        (i, j)
        for i in range(1, n - 1)
        for j in range(i + 1, n - 1)
        if rng.random() < 0.3
    ]
    if n == 2:
        rels = [(0, 1)]
    return Poset(n, rels)


def small_corpus() -> List[Poset]:
    """A deterministic mixed bag of small posets for identity tests."""
    rng = random.Random(20240817)
    out = [
        chain_poset(1),
        chain_poset(2),
        chain_poset(4),
        boolean_lattice(2),
        boolean_lattice(3),
        truncated_boolean(4, 1),
        quasi_uniform_13(),
        rank_uniform_tower_13(),
        collapsed_tower_9(),
        pentagon(),
        nonuniform_5(),
    ]
    out += [random_poset(rng, rng.randint(2, 10)) for _ in range(12)]
    return out


def bounded_corpus() -> List[Poset]:
    corpus = [p for p in small_corpus() if p.least is not None and p.greatest is not None]
    rng = random.Random(99)
    corpus += [random_bounded(rng, rng.randint(0, 5)) for _ in range(10)]
    return corpus


def flag_sum(alpha, ranks) -> ExactPoly:
    """sum of alpha(T) t^|T| over the rank bitmasks T within the set ``ranks``."""
    mask = sum(1 << r for r in set(ranks))
    coeffs = [0] * (mask.bit_count() + 1)
    for chain_ranks, count in alpha.items():
        if chain_ranks & ~mask == 0:
            coeffs[chain_ranks.bit_count()] += count
    return ExactPoly(coeffs)


def assert_flags_give_rank_selections(p: Poset) -> None:
    """The flag f-vector of p, summed over the subsets of each nonempty rank
    set S, is the chain polynomial of the subposet ``p.rank_selected(S)``;
    summed over all rank sets, it is the brute-force chain count (n <= 20)."""
    alpha = p.flag_f_vector()
    assert alpha[0] == 1 and all(alpha.values())
    top = p.quasi_rank
    for mask in range(1, 1 << (top + 1)):
        ranks = [r for r in range(top + 1) if mask >> r & 1]
        assert flag_sum(alpha, ranks) == p.rank_selected(ranks).chain_polynomial(), ranks
    if p.n <= 20:
        assert tuple(flag_sum(alpha, range(top + 1)).coeffs) == brute_force_oracle(p)


def rank_selection_sweep_by_all_masks(p: Poset) -> int:
    """Certify the chain polynomial of every nonempty rank selection of p,
    each summed from the whole flag f-vector; returns their number, 0 for
    a poset the library does not sweep."""
    top = p.quasi_rank
    if p.n == 0 or p.n > _SWEEP_MAX_ELEMENTS or top > _SWEEP_MAX_RANK:
        return 0
    alpha = p.flag_f_vector()
    selections = range(1, 1 << (top + 1))
    for mask in selections:
        ranks = [r for r in range(top + 1) if mask >> r & 1]
        _check_unit_interval_roots(flag_sum(alpha, ranks), f"rank selection {ranks}")
    return len(selections)


# -- exact interlacing comparator on known roots --------------------------------


def poly_from_roots(roots: Sequence[Fraction]) -> ExactPoly:
    out = ExactPoly((1,))
    for r in roots:
        out = out * ExactPoly((-Fraction(r), 1))
    return out


def roots_interlace(
    g_roots: Sequence[Fraction], f_roots: Sequence[Fraction]
) -> bool:
    """Direct comparison of sorted root lists, multiplicities included."""
    a = sorted((Fraction(r) for r in f_roots), reverse=True)
    b = sorted((Fraction(r) for r in g_roots), reverse=True)
    n, m = len(a), len(b)
    if not (m <= n <= m + 1):
        return False
    for k in range(m):
        if b[k] > a[k]:
            return False
        if k + 1 < n and a[k + 1] > b[k]:
            return False
    return True


# -- long division, gcd and square-free structure over the rationals --------------


def poly_divmod(a: ExactPoly, b: ExactPoly) -> Tuple[ExactPoly, ExactPoly]:
    """Quotient and remainder of a by b, by long division over the rationals."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    d, lead = b.degree, Fraction(b.leading_coefficient)
    quo = [0] * max(0, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        q = quo[i - d] = rem[i] / lead
        for j, c in enumerate(b.coeffs):
            rem[i - d + j] -= q * c
    return ExactPoly(quo), ExactPoly(rem)


def poly_quotient(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    return poly_divmod(a, b)[0]


def derivative(p: ExactPoly) -> ExactPoly:
    return ExactPoly(k * c for k, c in enumerate(p.coeffs) if k > 0)


def monic(p: ExactPoly) -> ExactPoly:
    """p divided by its leading coefficient; the zero polynomial stays zero."""
    return p * (1 / Fraction(p.leading_coefficient)) if not p.is_zero else p


def poly_gcd(f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """Monic gcd by the Euclidean algorithm over the rationals."""
    a, b = f, g
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    return monic(a)


def squarefree_part(f: ExactPoly) -> ExactPoly:
    """The monic product of the distinct irreducible factors of f."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return ONE
    return monic(poly_quotient(f, poly_gcd(f, derivative(f))))


def squarefree_decomposition(f: ExactPoly) -> list:
    """Yun's algorithm: return [(q_i, i)] with f = lc * prod q_i^i.

    Each q_i is monic and square-free, the q_i are pairwise coprime, and
    factors with q_i = 1 are omitted.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    f = monic(f)
    if f.degree == 0:
        return []
    df = derivative(f)
    a = poly_gcd(f, df)
    b = poly_quotient(f, a)
    c = poly_quotient(df, a)
    d = c - derivative(b)
    out = []
    i = 1
    while b.degree > 0:
        p = poly_gcd(b, d)
        if p.degree > 0:
            out.append((p, i))
        b2 = poly_quotient(b, p)
        c = poly_quotient(d, p)
        d = c - derivative(b2)
        b = b2
        i += 1
    return out


# -- real-root predicates by Sturm counts over the rationals and root isolation ------


def _fraction_sturm_chain(s: ExactPoly) -> list:
    chain = [s, derivative(s)]
    while not chain[-1].is_zero:
        chain.append(-poly_divmod(chain[-2], chain[-1])[1])
    chain.pop()
    return chain


def _variations_at(chain: Sequence[ExactPoly], x: Fraction) -> int:
    signs = [s for s in ((v > 0) - (v < 0) for v in (p(x) for p in chain)) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _cauchy_bound(p: ExactPoly) -> Fraction:
    """Every real root of p has absolute value below this."""
    lead = abs(Fraction(p.leading_coefficient))
    return 1 + max(abs(Fraction(c)) for c in p.coeffs) / lead


def _roots_closed(s: ExactPoly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of square-free s in the closed interval [lo, hi]."""
    if lo > hi:
        raise ValueError("empty interval")
    extra = 0
    if s(lo) == 0:
        extra += 1
        s = poly_quotient(s, ExactPoly((-lo, 1)))
    if lo != hi and s(hi) == 0:
        extra += 1
        s = poly_quotient(s, ExactPoly((-hi, 1)))
    if lo == hi or s.degree <= 0:
        return extra
    chain = _fraction_sturm_chain(s)
    return extra + _variations_at(chain, lo) - _variations_at(chain, hi)


def _distinct_real_roots(s: ExactPoly) -> int:
    bound = _cauchy_bound(s)
    return _roots_closed(s, -bound, bound)


def real_rooted_by_sturm(p: ExactPoly) -> bool:
    """Real roots counted with multiplicity, factor by factor of the
    square-free decomposition, against the degree."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    total = sum(mult * _distinct_real_roots(q) for q, mult in squarefree_decomposition(p))
    return total == p.degree


def roots_in_interval_by_sturm(p: ExactPoly, lo, hi) -> bool:
    """Distinct roots in [lo, hi] against distinct roots in all of R."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if not real_rooted_by_sturm(p):
        raise ValueError("not real-rooted")
    if p.degree == 0:
        return True
    s = squarefree_part(p)
    return _roots_closed(s, Fraction(lo), Fraction(hi)) == _distinct_real_roots(s)


def taylor_shift_by_compose(p: ExactPoly, a, sign: int = 1) -> ExactPoly:
    """p(a + sign * t) by Horner composition, one ExactPoly per step: the
    composition that the in-place Taylor shift of root location replaced."""
    inner = ExactPoly((a, sign))
    out = ExactPoly()
    for c in reversed(p.coeffs):
        out = out * inner + ExactPoly((c,))
    return out


def rebase_by_powers(p: ExactPoly, n: int, sign: int) -> ExactPoly:
    """(1 + sign*t)^n * p(t / (1 + sign*t)) as the sum of c_k * t^k times a
    power of (1 + sign*t), one power by repeated squaring per coefficient."""
    if p.degree > n:
        raise ValueError("degree exceeds the dimension parameter")
    base = ExactPoly((1, sign))
    out = ExactPoly()
    for k, c in enumerate(p.coeffs):
        if c != 0:
            out = out + c * (base ** (n - k)).shift(k)
    return out


def _isolate(s: ExactPoly) -> list:
    """Disjoint intervals (a, b], increasing, one per distinct real root of square-free s."""
    if s.degree <= 0:
        return []
    chain = _fraction_sturm_chain(s)
    bound = _cauchy_bound(s)
    out = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        count = _variations_at(chain, lo) - _variations_at(chain, hi)
        if count == 1:
            out.append((lo, hi))
        elif count > 1:
            mid = (lo + hi) / 2
            stack += [(lo, mid), (mid, hi)]
    return sorted(out)


def _root_profile(p: ExactPoly, intervals) -> list:
    """Multiplicity of p in each of the given globally disjoint intervals (a, b]."""
    decomp = squarefree_decomposition(p)
    return [
        sum(mult for q, mult in decomp if _roots_closed(q, lo, hi) - (q(lo) == 0))
        for lo, hi in intervals
    ]


def isolate_by_sturm(p: ExactPoly) -> Tuple[list, list]:
    """Same output as ``latchain.isolate_real_roots`` as (intervals, multiplicities):
    the roots of the square-free part isolated by Fraction Sturm chains, each
    multiplicity read off Yun's square-free decomposition."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    intervals = _isolate(squarefree_part(p))
    return intervals, _root_profile(p, intervals)


def root_count_by_sturm(p: ExactPoly, lo, hi) -> int:
    """Distinct real roots of nonzero p in the closed interval [lo, hi]."""
    return _roots_closed(squarefree_part(p), Fraction(lo), Fraction(hi))


def interlaces_by_isolation(g: ExactPoly, f: ExactPoly) -> bool:
    """Same contract as ``latchain.interlaces``, by isolating the roots of the
    square-free part of f*g and comparing the sorted root multisets."""
    nonzero = [p for p in (f, g) if not p.is_zero]
    if not all(map(real_rooted_by_sturm, nonzero)):
        raise ValueError("not real-rooted")
    if any(p.leading_coefficient <= 0 for p in nonzero):
        raise ValueError("positive leading coefficients required")
    if len(nonzero) < 2:
        return True
    n, m = f.degree, g.degree
    if not (m <= n <= m + 1):
        return False
    if m == 0:
        return True
    intervals = _isolate(squarefree_part(f * g))
    prof_f, prof_g = _root_profile(f, intervals), _root_profile(g, intervals)
    # interval indices increase with the root value; list roots largest first
    order = range(len(intervals) - 1, -1, -1)
    a = [i for i in order for _ in range(prof_f[i])]
    b = [i for i in order for _ in range(prof_g[i])]
    for k in range(m):
        if b[k] > a[k]:  # beta_k > alpha_k
            return False
        if k + 1 < n and a[k + 1] > b[k]:  # alpha_{k+1} > beta_k
            return False
    return True


# -- signs at rational points and the interlacing certificate, by Fraction evaluation --


def sign_at_by_fraction_horner(cs: Sequence[int], x: Fraction) -> int:
    """Sign at x of the polynomial with coefficient list cs, by Horner's rule
    on Fractions: the evaluation that the integer one of b^d p(a/b) replaced."""
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _endpoint_split(p: ExactPoly):
    """(q, a, b) with p = t^a (1 + t)^b q, a, b <= 1, q nonzero at 0 and -1
    and of positive leading coefficient; None otherwise."""
    if p.is_zero or p.leading_coefficient <= 0:
        return None
    a = b = 0
    if p(0) == 0:
        p, a = poly_quotient(p, ExactPoly((0, 1))), 1
    if p(-1) == 0:
        p, b = poly_quotient(p, ExactPoly((1, 1))), 1
    if p(0) == 0 or p(-1) == 0:
        return None
    return p, a, b


def verify_interlacing_certificate(ps: Sequence[ExactPoly], certificate) -> bool:
    """Re-verify, by evaluation alone, the points u_1, v_1, ..., u_e, v_e
    (as (n, k) for n / 2^k) that ``polynomial._interlacing_certificate``
    gives for each consecutive pair g = p_n, f = p_(n+1): True when they
    prove every p_n real-rooted in [-1, 0] and p_n interlacing p_(n+1).

    Shares no code with the library's certificate. With p = t^a (1 + t)^b q:
    q_g changing sign across (or vanishing at) each of e = deg q_g disjoint
    [u_i, v_i] locates every root of q_g; q_f keeping one nonzero sign at
    u_i and v_i and changing sign across deg q_f of the gaps between them,
    -1 and 0 locates every root of q_f. Any point of a root's interval or
    gap then stands for it, as the intervals and gaps are disjoint and in
    order, and the representatives, with the roots at 0 and -1, go to the
    sorted-list comparator ``roots_interlace``. The first polynomial needs
    at most one root besides 0 and -1, by a sign change over (-1, 0).
    """
    parts = [_endpoint_split(p) for p in ps]
    if None in parts or len(certificate) != len(ps) - 1:
        return False
    if ps:
        q = parts[0][0]
        if q.degree > 1 or (q.degree == 1 and q(-1) * q(0) > 0):
            return False
    for (qg, ag, bg), (qf, af, bf), points in zip(parts, parts[1:], certificate):
        if qf.degree + af + bf != qg.degree + ag + bg + 1 or len(points) != 2 * qg.degree:
            return False
        xs = [Fraction(n, 2**k) for n, k in points]
        bounds = [Fraction(-1)] + xs + [Fraction(0)]
        if any(x > y for x, y in zip(bounds, bounds[1:])):
            return False
        g_roots, f_roots = [0] * ag + [-1] * bg, [0] * af + [-1] * bf
        for u, v in zip(xs[::2], xs[1::2]):
            if not (u == v and qg(u) == 0 or qg(u) * qg(v) < 0):
                return False
            if not qf(u) * qf(v) > 0:
                return False
            g_roots.append((u + v) / 2)
        for lo, hi in zip(bounds[::2], bounds[1::2]):
            if qf(lo) * qf(hi) < 0:
                f_roots.append((lo + hi) / 2)
        if len(f_roots) != qf.degree + af + bf or not roots_interlace(g_roots, f_roots):
            return False
    return True


# -- the cross-product TP2 test and the diamond product through the binomial basis --


def tp2_by_cross_products(rows) -> bool:
    """All entries and all 2x2 minors nonnegative, each minor as one cross product."""
    mat = [list(r) for r in rows]
    nc = len(mat[0]) if mat else 0
    if any(len(r) != nc for r in mat):
        raise ValueError("ragged matrix")
    if any(c < 0 for r in mat for c in r):
        return False
    for i, j in combinations(range(len(mat)), 2):
        for k, l in combinations(range(nc), 2):
            if mat[i][k] * mat[j][l] - mat[i][l] * mat[j][k] < 0:
                return False
    return True


def diamond_by_basis(f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """E(E^-1(f) * E^-1(g)), E sending C(t, k) to t^k: the product taken in
    the power basis, read back in the binomial basis by finite differences."""
    if f.is_zero or g.is_zero:
        return ExactPoly()
    z = from_binomial_coefficients(f.coeffs) * from_binomial_coefficients(g.coeffs)
    values = [z(j) for j in range(z.degree + 1)]
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return ExactPoly(out)


# -- all-pairs lattice tables --------------------------------------------------------


def lattice_tables_oracle(p: Poset) -> Tuple[bool, List[List[int]], List[List[int]]]:
    """(is_lattice, join, meet) by scanning every pair; -1 marks a missing join
    or meet. The join of x and y is the unique common upper bound below all
    the others, found by testing each one."""
    n = p.n
    join = [[-1] * n for _ in range(n)]
    meet = [[-1] * n for _ in range(n)]
    ok = n > 0
    up = [p.up_mask(x) for x in range(n)]
    down = [p.down_mask(x) for x in range(n)]
    for x in range(n):
        for y in range(x, n):
            ub = up[x] & up[y]
            j = next((z for z in range(n) if ub >> z & 1 and up[z] & ub == ub), -1)
            lb = down[x] & down[y]
            w = next((z for z in range(n) if lb >> z & 1 and down[z] & lb == lb), -1)
            if j < 0 or w < 0:
                ok = False
            join[x][y] = join[y][x] = j
            meet[x][y] = meet[y][x] = w
    return ok, join, meet


# -- the poset constructor that filtered a set of pair tuples ------------------------


def poset_by_pair_filter(n: int, relations) -> dict:
    """The fields ``Poset(n, relations)`` sets, by the constructor that kept a
    set of pair tuples and sorted the pairs it found to be covers; raises the
    same errors in the same order."""
    if n < 0 or n > MAX_ELEMENTS:
        raise ValueError(f"element count out of range: {n}")
    succ = [set() for _ in range(n)]
    indeg = [0] * n
    seen = set()
    for x, y in relations:
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"relation index out of range: ({x}, {y})")
        if x == y:
            raise ValueError(f"reflexive relation pair ({x}, {y})")
        if (x, y) in seen:
            continue
        seen.add((x, y))
        succ[x].add(y)
        indeg[y] += 1
    order = [x for x in range(n) if indeg[x] == 0]
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                order.append(y)
    if len(order) != n:
        raise ValueError("relation contains a cycle")
    down = [1 << x for x in range(n)]
    for x in order:
        for y in succ[x]:
            down[y] |= down[x]
    up = [1 << x for x in range(n)]
    for x in reversed(order):
        for y in succ[x]:
            up[x] |= up[y]
    covers = sorted((x, y) for x, y in seen if up[x] & down[y] == (1 << x) | (1 << y))
    cover_down = [[] for _ in range(n)]
    cover_up = [[] for _ in range(n)]
    for x, y in covers:
        cover_down[y].append(x)
        cover_up[x].append(y)
    rho = [0] * n
    for x in order:
        if cover_down[x]:
            rho[x] = 1 + max(rho[y] for y in cover_down[x])
    minimals = [x for x in range(n) if not cover_down[x]]
    maximals = [x for x in range(n) if not cover_up[x]]
    return {
        "covers": tuple(covers),
        "_down": tuple(down),
        "_up": tuple(up),
        "_rho": tuple(rho),
        "_cover_down": tuple(map(tuple, cover_down)),
        "_cover_up": tuple(map(tuple, cover_up)),
        "least": minimals[0] if len(minimals) == 1 else None,
        "greatest": maximals[0] if len(maximals) == 1 else None,
    }


@contextmanager
def relations_passed():
    """Record, as a list of pairs, the covers every Poset built inside the
    block hands the core, through the front door or straight from a builder."""
    passed = []
    derive = Poset._derive

    def record(self, n, cover_up, order, labels, up):
        passed.append([(x, y) for x in range(n) for y in cover_up[x]])
        derive(self, n, cover_up, order, labels, up)

    with mock.patch.object(Poset, "_derive", record):
        yield passed


# -- inclusion order by comparing every pair of sets --------------------------------


def poset_from_sets_by_pairs(sets: Sequence[FrozenSet]) -> Poset:
    """Inclusion order on a family of distinct sets."""
    if len(set(sets)) != len(sets):
        raise ValueError("duplicate sets")
    order = sorted(range(len(sets)), key=lambda i: (len(sets[i]), sorted(map(repr, sets[i]))))
    sets = [sets[i] for i in order]
    rels = [
        (i, j)
        for i in range(len(sets))
        for j in range(len(sets))
        if len(sets[i]) < len(sets[j]) and sets[i] < sets[j]
    ]
    return Poset(len(sets), rels, sets)


def paving_poset_by_sets(ground, blocks, d: int) -> Poset:
    """The sets of size below d, the blocks and the ground, by inclusion,
    listed as sets and ordered by the set-family builder, as paving
    lattices were built before they handed the core their covers."""
    ground = frozenset(ground)
    small = [frozenset(c) for size in range(d) for c in combinations(sorted(ground), size)]
    return _poset_from_sets(list(dict.fromkeys([*small, *blocks, ground])))


# -- subspaces by summing every coefficient vector, cosets vector by vector ----------


def subspaces_by_sums(n: int, q: int) -> List[FrozenSet[Tuple[int, ...]]]:
    """Every linear subspace of F_q^n as a frozenset of vectors: one echelon
    basis per subspace, spanned by summing all q^r coefficient vectors."""
    spaces = []
    for r in range(n + 1):
        for pivots in combinations(range(n), r):
            free_slots = [(i, j) for i in range(r) for j in range(n) if j > pivots[i] and j not in pivots]
            for values in product(range(q), repeat=len(free_slots)):
                rows = [[0] * n for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = 1
                for (i, j), v in zip(free_slots, values):
                    rows[i][j] = v
                span = set()
                for coeffs in product(range(q), repeat=r):
                    span.add(
                        tuple(sum(c * rows[i][j] for i, c in enumerate(coeffs)) % q for j in range(n))
                    )
                spaces.append(frozenset(span))
    return spaces


def cosets_by_translation(n: int, q: int) -> Set[FrozenSet[Tuple[int, ...]]]:
    """Every coset of every subspace of F_q^n, plus the empty flat: all q^n
    translates of each subspace, with the duplicates thrown away."""
    flats: Set[FrozenSet[Tuple[int, ...]]] = {frozenset()}
    vectors = list(product(range(q), repeat=n))
    for space in subspaces_by_sums(n, q):
        for v in vectors:
            flats.add(frozenset(tuple((a + b) % q for a, b in zip(v, w)) for w in space))
    return flats


# -- chain counts coefficient by coefficient, rank profiles element by element ----------


def chain_polynomial_by_dp(p: Poset) -> ExactPoly:
    """Chains by size from one list of counts per element: ends[x][j] counts
    the (j+1)-element chains with maximum x, summed over y < x one
    coefficient at a time."""
    ends = [None] * p.n
    totals = [1, 0]
    for x in sorted(range(p.n), key=lambda v: (p.rho(v), v)):
        vec = [1]
        for y in _bits(p.down_mask(x) ^ (1 << x)):
            other = ends[y]
            while len(vec) < len(other) + 1:
                vec.append(0)
            for j, c in enumerate(other):
                vec[j + 1] += c
        ends[x] = vec
        while len(totals) < len(vec) + 1:
            totals.append(0)
        for j, c in enumerate(vec):
            totals[j + 1] += c
    return ExactPoly(totals)


def chain_fields_by_pairs(p: Poset, offsets: Sequence[int]) -> List[int]:
    """Field i counts the chains whose elements z sum offsets[rho z] to i.

    The packed element program on every poset: each element's counts in
    one integer of k-byte fields, one addition per comparable pair over a
    linear extension, with no level quotient for uniform posets."""
    sizes = [0] * (p.quasi_rank + 1)
    for x in range(p.n):
        sizes[p.rho(x)] += 1
    k = (prod(size + 1 for size in sizes).bit_length() + 7) // 8
    shifts = [8 * k * offset for offset in offsets]
    ends = [0] * p.n
    total = 1
    for x in sorted(range(p.n), key=p.rho):
        vec = sum((ends[y] for y in _bits(p.down_mask(x) ^ (1 << x))), 1) << shifts[p.rho(x)]
        ends[x] = vec
        total += vec
    data = total.to_bytes((total.bit_length() + 7) // 8, "little")
    return [int.from_bytes(data[i:i + k], "little") for i in range(0, len(data), k)]


def bounded_chain_polynomial_by_interval(p: Poset, x: int) -> ExactPoly:
    """sum_j (number of chains bottom = z_0 < ... < z_j = x) t^j, from the
    chain polynomial of the open interval (bottom, x) built as a subposet."""
    if p.least is None:
        raise ValueError("poset has no least element")
    if x == p.least:
        return ExactPoly((1,))
    return p.open_interval(p.least, x).chain_polynomial().shift(1)


def flag_f_vector_by_dicts(p: Poset) -> dict:
    """Chains by rank set from one dict per element: ends[x][U] counts the
    chains with maximum x and quasi-rank set U, and each chain below x gains
    the bit of rho(x)."""
    alpha = {0: 1}
    ends = [None] * p.n
    for x in sorted(range(p.n), key=lambda v: (p.rho(v), v)):
        bit = 1 << p.rho(x)
        vec = {bit: 1}
        for y in _bits(p.down_mask(x) ^ (1 << x)):
            for mask, c in ends[y].items():
                vec[mask | bit] = vec.get(mask | bit, 0) + c
        ends[x] = vec
        for mask, c in vec.items():
            alpha[mask] = alpha.get(mask, 0) + c
    return alpha


def levels_by_rho(p: Poset) -> List[List[int]]:
    """The quasi-rank levels of p, lowest first, each ascending; the empty
    poset has one empty level. rho is found from the covers alone, by
    raising rho(y) to rho(x) + 1 over every cover x < y until nothing
    changes (n rounds suffice, as a chain has fewer than n covers), so no
    linear extension or stored quasi-rank of p is read."""
    rho = [0] * p.n
    for _ in range(p.n):
        for x, y in p.covers:
            rho[y] = max(rho[y], rho[x] + 1)
    levels: List[List[int]] = [[] for _ in range(max(rho, default=0) + 1)]
    for x, r in enumerate(rho):
        levels[r].append(x)
    return levels


def rank_profile_by_walk(p: Poset, mask: int) -> List[int]:
    """Number of elements of each quasi-rank among the bits of ``mask``,
    up to the highest rank present."""
    counts: List[int] = []
    for z in _bits(mask):
        r = p.rho(z)
        counts += [0] * (r + 1 - len(counts))
        counts[r] += 1
    return counts


def quasi_rank_rows_by_walk(p: Poset):
    """The rows of R(P) as coefficient tuples, or None when some two
    down-sets with tops of equal quasi-rank differ in profile."""
    profiles = {}
    for x in range(p.n):
        profile = tuple(rank_profile_by_walk(p, p.down_mask(x)))
        if profiles.setdefault(p.rho(x), profile) != profile:
            return None
    return tuple(profiles[r] for r in range(p.quasi_rank + 1))


def triangular_by_walk(p: Poset) -> bool:
    """Every interval [x, y]'s count of each quasi-rank present in it
    depends only on (rho x, that rank, rho y)."""
    counts = {}
    for x in range(p.n):
        for y in _bits(p.up_mask(x)):
            profile = rank_profile_by_walk(p, p.up_mask(x) & p.down_mask(y))
            for j, c in enumerate(profile):
                if c and counts.setdefault((p.rho(x), j, p.rho(y)), c) != c:
                    return False
    return True


def mobius_R_by_walk(p: Poset, x: int, y: int) -> ExactPoly:
    """Mobius inversion over [x, y] of w -> sum_{z <= w} t^rho(z)."""
    acc = ExactPoly()
    for w in _bits(p.up_mask(x) & p.down_mask(y)):
        acc = acc + mobius(p, w, y) * ExactPoly(rank_profile_by_walk(p, p.down_mask(w)))
    return acc


# -- rank-3 draws by a set of covered pairs ------------------------------------------


def random_rank3_lines_by_pairs(rng: random.Random) -> Tuple[int, List[FrozenSet[int]]]:
    """The point count and lines of the random linear space that
    ``suites.random_rank3_geometric`` draws, with the same calls on ``rng``,
    keeping the pairs already on a line as a set of sorted tuples."""
    n = rng.randint(4, 9)
    pairs = list(combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    covered = set()
    lines = []
    for a, b in pairs:
        if (a, b) in covered:
            continue
        line = {a, b}
        extras = list(range(1, n + 1))
        rng.shuffle(extras)
        for c in extras:
            if c in line or len(line) >= n - 1:
                continue
            if rng.random() < 0.45 and all(tuple(sorted((c, x))) not in covered for x in line):
                line.add(c)
        lines.append(frozenset(line))
        for x, y in combinations(sorted(line), 2):
            covered.add((x, y))
    return n, lines


# -- the incidence algebra by join fibers and chain walks ----------------------------


def incidence_R_by_join_fiber(p: Poset, x: int, y: int) -> ExactPoly:
    """Sum of t^rho(z) over z <= y with z join x = y, on a lattice."""
    counts = [0] * (p.rho(y) + 1)
    for z in p.down_set(y):
        if p.join(x, z) == y:
            counts[p.rho(z)] += 1
    return ExactPoly(counts)


def chain_counts_by_walk(p: Poset, x: int, y: int) -> List[int]:
    """c[j] counts the chains x = z_0 < ... < z_j = y, by a walk up the
    order that remembers the counts from each element it has left."""
    memo = {}

    def walk(z: int) -> List[int]:
        if z not in memo:
            counts = [1] if z == y else [0]
            for w in range(p.n):
                if w != z and p.leq(z, w) and p.leq(w, y):
                    for j, c in enumerate(walk(w), start=1):
                        counts += [0] * (j + 1 - len(counts))
                        counts[j] += c
            memo[z] = counts
        return memo[z]

    return walk(x)


def multichains_by_walk(p: Poset, n: int) -> int:
    """Multichains bottom = x_0 <= x_1 <= ... <= x_n = top, one step at a time."""

    def walk(z: int, steps: int) -> int:
        if steps == 0:
            return int(z == p.greatest)
        return sum(walk(w, steps - 1) for w in p.up_set(z))

    return walk(p.least, n)


# -- gradedness by cover-path lengths ------------------------------------------------


def graded_by_covers(p: Poset) -> bool:
    """Every cover raises the quasi-rank by one, compared cover by cover."""
    rho = p._rho
    return all(rho[y] == rho[x] + 1 for x, y in p.covers)


def interval_length_spread(p: Poset):
    """Yield (x, y, shortest, longest) cover-path lengths for all x <= y."""
    for x in range(p.n):
        up = p.up_mask(x)
        shortest = {x: 0}
        longest = {x: 0}
        for y in sorted(_bits(up), key=lambda v: (p.rho(v), v)):
            if y == x:
                continue
            lens_s = [shortest[z] for z in p._cover_down[y] if up >> z & 1]
            lens_l = [longest[z] for z in p._cover_down[y] if up >> z & 1]
            shortest[y] = 1 + min(lens_s)
            longest[y] = 1 + max(lens_l)
            yield x, y, shortest[y], longest[y]


# -- the resolvability certificate and chain polynomials by ExactPoly arithmetic -----


def resolve_by_polys(r: RMatrix) -> ResolveOutcome:
    """The greedy certificate with one ExactPoly per column step (a scalar
    multiple, a negation and a sum), as ``tn.resolve`` built it before it
    ran on coefficient lists."""
    N = r.order
    current = [r.rows[0]]
    lambdas: List[List[Scalar]] = []

    for n in range(N):
        nxt = [r.rows[n + 1]]
        lams: List[Scalar] = []
        for k in range(n + 1):
            target = nxt[k].coefficient(k)
            pivot = current[k].coefficient(k)
            if pivot == 0:
                lam: Scalar = 0
                if target != 0:
                    return ResolveOutcome(False, obstruction="divisibility failure", position=(n, k))
            else:
                lam = Fraction(target, 1) / Fraction(pivot)
                if lam.denominator == 1:
                    lam = int(lam)
            if lam < 0:
                return ResolveOutcome(
                    False, obstruction="negative multiplier", position=(n, k)
                )
            lams.append(lam)
            nxt.append(nxt[k] - lam * current[k])
        current = nxt
        lambdas.append(lams)

    return ResolveOutcome(True, witness=ResolutionWitness(tuple(tuple(l) for l in lambdas)))


def array_by_polys(witness: ResolutionWitness, rows: RMatrix) -> List[List[ExactPoly]]:
    """The array R(n, k) that multipliers of the right shape rebuild by
    ExactPoly sums and scalar products: R(0, 0) is row 0, R(n, n) = t^n
    and R(n+1, k) = R(n+1, k+1) + lambdas[n][k] * R(n, k)."""
    array = [[rows.rows[0]]]
    for n, lams in enumerate(witness.lambdas):
        nxt = [ExactPoly.monomial(n + 1)]
        for k in range(len(lams) - 1, -1, -1):
            nxt.insert(0, nxt[0] + lams[k] * array[n][k])
        array.append(nxt)
    return array


def verify_by_polys(witness: ResolutionWitness, rows: RMatrix) -> bool:
    """Every invariant of the array the multipliers rebuild (``array_by_polys``)
    checked by ExactPoly arithmetic, as ``ResolutionWitness.verify`` did on a
    stored array before it rebuilt one on coefficient lists. A float
    multiplier raises AttributeError here, and True passes as 1."""
    N = rows.order
    if len(witness.lambdas) != N or any(len(lams) != n + 1 for n, lams in enumerate(witness.lambdas)):
        return False
    if any(l < 0 for lams in witness.lambdas for l in lams):
        return False
    array = array_by_polys(witness, rows)
    for n in range(N + 1):
        row = array[n]
        if row[0] != rows.rows[n] or row[n] != ExactPoly.monomial(n):
            return False
        for k, poly in enumerate(row):
            if poly.degree != n or poly.leading_coefficient != 1:
                return False
            if any(poly.coefficient(i) != 0 for i in range(k)):
                return False
    for n in range(N):
        lams = witness.lambdas[n]
        for k in range(n + 1):
            if array[n + 1][k] != array[n + 1][k + 1] + lams[k] * array[n][k]:
                return False
    return True


def chain_polys_by_polys(r: RMatrix) -> List[ExactPoly]:
    """p_0 = 1 and p_n = t * sum_{k<n} r(n, k) p_k, summed as ExactPoly objects."""
    out = [ExactPoly((1,))]
    for n in range(1, r.order + 1):
        acc = ExactPoly()
        for k in range(n):
            c = r.entry(n, k)
            if c:
                acc = acc + c * out[k]
        out.append(acc.shift(1))
    return out


# -- permutation statistics by enumeration -------------------------------------------


def perm_stats_oracle(n: int) -> List[Tuple[int, int]]:
    """(descents, inversions) of each of the n! permutations of n letters."""
    table = []
    for sigma in permutations(range(1, n + 1)):
        des = sum(1 for i in range(n - 1) if sigma[i] > sigma[i + 1])
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])
        table.append((des, inv))
    return table


# -- modular cuts by subset filters, extensions by flat lists ------------------------


def up_closed_subsets(l: Poset) -> Iterator[int]:
    """The mask of every up-closed subset of the elements, by filtering all 2^n masks."""
    for mask in range(1 << l.n):
        if not any(l.up_mask(x) & ~mask for x in _bits(mask)):
            yield mask


def all_modular_cuts(l: Poset) -> List[int]:
    """The mask of every modular cut: the up-closed subsets that
    ``modular_cut_validate`` accepts; exponential, so capped at 16 elements."""
    if l.n > 16:
        raise ValueError("modular cut enumeration is capped at 16 elements")
    return [cut for cut in up_closed_subsets(l) if modular_cut_validate(l, cut)]


_cached_tables = lru_cache(maxsize=4)(lattice_tables_oracle)


def modular_cut_by_definition(l: Poset, cut: int) -> bool:
    """Whether every element above a member of the cut mask is a member, and
    the meet of every modular pair of members (comparable pairs and x = y
    included) is a member; joins and meets from the all-pairs tables."""
    mem = set(_bits(cut))
    if any(l.leq(x, y) and y not in mem for x in mem for y in range(l.n)):
        return False
    _, join, meet = _cached_tables(l)
    return all(
        meet[x][y] in mem or l.rho(x) + l.rho(y) != l.rho(join[x][y]) + l.rho(meet[x][y])
        for x in mem
        for y in mem
    )


@contextmanager
def derivations() -> Iterator[list]:
    """Record (poset, key) each time ``Poset._derived`` derives a fact,
    and nothing when it returns one it kept."""
    made = []
    derived = Poset._derived

    def spy(p, key, derive):
        return derived(p, key, lambda q: made.append((q, key)) or derive(q))

    with mock.patch.object(Poset, "_derived", spy):
        yield made


def element_by_leq_scan(l: Poset, atom_names) -> int:
    """The element whose atom set carries exactly the given names, each atom
    set listed by one ``leq`` test per atom."""
    want = frozenset(atom_names)
    names = _atom_names(l)
    for x in range(l.n):
        mine = frozenset(names[a] for a in l.atoms() if l.leq(a, x))
        if mine == want and (x != l.least or not want):
            return x
    raise ValueError(f"no element with atom set {sorted(map(repr, want))}")


def extension_by_flat_lists(l: Poset, cut: int, e) -> Poset:
    """Single-element extension along the cut mask from three flat lists: the
    flats outside the cut, every cut flat with e added, and the flats X
    outside the cut with e added when no cut flat of rank rho(X) + 1 sits
    above X. Inclusion order by comparing every pair of flats; a name
    collision is caught only by repr."""
    if not modular_cut_validate(l, cut):
        raise ValueError("invalid modular cut")
    names = _atom_names(l)
    if any(repr(e) == repr(v) for v in names.values()):
        raise ValueError(f"new atom name {e!r} collides with an existing atom")

    def atom_set(x: int) -> FrozenSet:
        return frozenset(names[a] for a in l.atoms() if l.leq(a, x))

    mem = set(_bits(cut))
    flats = [atom_set(x) for x in range(l.n) if x not in mem]
    flats += [atom_set(x) | {e} for x in mem]
    for x in range(l.n):
        if x not in mem and not any(l.rho(y) == l.rho(x) + 1 and l.leq(x, y) for y in mem):
            flats.append(atom_set(x) | {e})
    out = poset_from_sets_by_pairs(list(set(flats)))
    if not is_geometric(out):
        raise AssertionError("single-element extension is not geometric")
    return out


def isomorphic_by_backtracking(p: Poset, q: Poset) -> bool:
    """Poset isomorphism by one joint colour refinement, then a backtracking
    matcher that maps rarest colours first and checks each new pair against
    the covers already mapped. It never refines after a choice and recurses
    once per element, so it is for small posets only."""
    if p.n != q.n or len(p.covers) != len(q.covers):
        return False

    def start(r: Poset) -> list:
        return [
            (r.rho(x), len(r._cover_down[x]), len(r._cover_up[x]),
             r.down_mask(x).bit_count(), r.up_mask(x).bit_count())
            for x in range(r.n)
        ]

    def step(r: Poset, colors: list) -> list:
        return [
            (
                colors[x],
                tuple(sorted(colors[y] for y in r._cover_down[x])),
                tuple(sorted(colors[y] for y in r._cover_up[x])),
            )
            for x in range(r.n)
        ]

    cp, cq = start(p), start(q)
    palette = {}
    cp = [palette.setdefault(c, len(palette)) for c in cp]
    cq = [palette.setdefault(c, len(palette)) for c in cq]
    for _ in range(max(p.n, q.n)):
        np_, nq_ = step(p, cp), step(q, cq)
        palette = {}
        rp = [palette.setdefault(c, len(palette)) for c in np_]
        rq = [palette.setdefault(c, len(palette)) for c in nq_]
        if rp == cp and rq == cq:
            break
        cp, cq = rp, rq
    if sorted(cp) != sorted(cq):
        return False
    by_color = {}
    for y, c in enumerate(cq):
        by_color.setdefault(c, []).append(y)
    order = sorted(range(p.n), key=lambda x: (len(by_color[cp[x]]), cp[x], x))
    mapping = [-1] * p.n
    used = [False] * q.n

    def compatible(x: int, y: int) -> bool:
        for z in p._cover_down[x]:
            if mapping[z] >= 0 and mapping[z] not in q._cover_down[y]:
                return False
        for z in p._cover_up[x]:
            if mapping[z] >= 0 and mapping[z] not in q._cover_up[y]:
                return False
        # covers must also be reflected
        for w in q._cover_down[y]:
            if used[w] and w not in [mapping[z] for z in p._cover_down[x]]:
                return False
        for w in q._cover_up[y]:
            if used[w] and w not in [mapping[z] for z in p._cover_up[x]]:
                return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for y in by_color[cp[x]]:
            if used[y] or not compatible(x, y):
                continue
            mapping[x] = y
            used[y] = True
            if backtrack(i + 1):
                return True
            mapping[x] = -1
            used[y] = False
        return False

    return backtrack(0)


# -- predicates and constructions that only the tests run ----------------------------
#
# No suite, CLI command or family builder calls these, so they live here
# rather than in the library; each behaves as it did there.


def check_damped_interlacing(f: ExactPoly, g: ExactPoly, lam) -> bool:
    """Check that g interlaces f - lam*t*g and f - lam*t*g interlaces f.

    Requires g interlacing f with deg f = deg g + 1, lam >= 0, and a
    positive leading coefficient for f - lam*t*g; each violated
    precondition raises its own ValueError.
    """
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("multiplier must be nonnegative")
    if f.degree != g.degree + 1:
        raise ValueError("degree of f must exceed degree of g by one")
    if not interlaces(g, f):
        raise ValueError("g does not interlace f")
    damped = f - (lam * g).shift(1)
    if damped.is_zero or damped.leading_coefficient <= 0:
        raise ValueError("damped polynomial must keep a positive leading coefficient")
    return interlaces(g, damped) and interlaces(damped, f)


def is_tp2(rows) -> bool:
    """True iff all entries and all 2x2 minors of the matrix are nonnegative."""
    return _minors_nonnegative(rows, 2)


def binomial_basis_poly(k: int) -> ExactPoly:
    """The polynomial C(t, k) = t(t-1)...(t-k+1) / k!."""
    out = ONE
    for i in range(k):
        out = out * ExactPoly((-i, 1))
    return out * Fraction(1, factorial(k))


def from_binomial_coefficients(cs) -> ExactPoly:
    """Expand sum_k cs[k] * C(t, k) into the power basis."""
    out = ExactPoly()
    for k, c in enumerate(cs):
        if c != 0:
            out = out + c * binomial_basis_poly(k)
    return out


def antichain(k: int) -> Poset:
    return Poset(k)


def strict_down_poset(p: Poset, h: int) -> Poset:
    """Subposet of elements strictly below h."""
    return p.induced(_bits(p.down_mask(h) ^ (1 << h)))


def down_poset(p: Poset, h: int) -> Poset:
    """Subposet of elements weakly below h."""
    return p.induced(_bits(p.down_mask(h)))


def _mobius_column(p: Poset, y: int, mask: int) -> Dict[int, int]:
    """mu(w, y) for every w in ``mask``, a subset of the down-set of y
    closed upward below y.

    Taken level by level from the top, so every z above w comes first:
    mu(y, y) = 1 and mu(w, y) = -sum of mu(z, y) over w < z <= y.
    """
    mu: Dict[int, int] = {}
    for level in reversed(p._levels):
        for w in _bits(level & mask):
            mu[w] = 1 if w == y else -sum(mu[z] for z in _bits((p.up_mask(w) & mask) ^ (1 << w)))
    return mu


def mobius(p: Poset, x: int, y: int) -> int:
    """Mobius function of the interval [x, y], read from one column."""
    if not p.leq(x, y):
        raise ValueError("mobius is undefined on incomparable pairs")
    return _mobius_column(p, y, p.up_mask(x) & p.down_mask(y))[x]


def zeta_polynomial(p: Poset) -> ExactPoly:
    """Multichain-counting polynomial Z(n) of a bounded poset.

    Z(n) counts multichains bottom = x_0 <= ... <= x_n = top: a strict
    chain of j steps from bottom to top spreads over the n steps in
    C(n, j) ways, so Z is the bottom-to-top chain polynomial read in
    the binomial basis.
    """
    if p.least is None or p.greatest is None:
        raise ValueError("zeta polynomial requires a bounded poset")
    return from_binomial_coefficients(p.bounded_chain_polynomial(p.greatest).coeffs)


def subdivision_operator(r: RMatrix, f: ExactPoly) -> ExactPoly:
    """Linear extension of t^n -> p_n applied to f; deg f must not exceed N."""
    if f.degree > r.order:
        raise ValueError("degree exceeds the matrix order")
    ps = chain_polys_from_rmatrix(r)
    out = ExactPoly()
    for n, c in enumerate(f.coeffs):
        if c:
            out = out + c * ps[n]
    return out


def _covers_close(p: Poset, upward: bool) -> bool:
    """Cover criterion: any two elements covering one z have a common upper
    cover (upward), or any two elements covered by one z have a common lower
    cover (downward).

    In a lattice a common upper cover of x and y is x join y, so it is
    unique; the pairs of covers of z that have one are then counted once
    each by summing C(k, 2) over the elements w with k covers of z below w.
    """
    near = p._cover_up if upward else p._cover_down
    for z in range(p.n):
        m = len(near[z])
        if m > 1:
            shared = Counter(w for x in near[z] for w in near[x])
            if sum(k * (k - 1) for k in shared.values()) != m * (m - 1):
                return False
    return True


def is_semimodular(p: Poset) -> bool:
    """Graded lattice with rho(x) + rho(y) >= rho(meet) + rho(join).

    Decided by the upward cover criterion (Stanley, EC1 Prop. 3.3.2).
    """
    _require_lattice(p)
    return _is_graded(p) and _covers_close(p, upward=True)


def is_modular(p: Poset) -> bool:
    """Graded lattice with rank equality on every pair: semimodular and
    lower semimodular, by the cover criterion in both directions."""
    _require_lattice(p)
    return _is_graded(p) and _covers_close(p, upward=True) and _covers_close(p, upward=False)


def is_triangular(p: Poset) -> bool:
    """Interval rank-level counts depend only on the endpoint ranks.

    Requires a least element and graded intervals; an ungraded interval
    raises ValueError rather than returning False. With a least element
    every interval is graded iff every cover raises rho by one. Then the
    levels rho(x) and rho(y) of [x, y] are {x} and {y}, and every level
    between them is nonempty, so only the levels in between are counted.
    """
    if p.least is None:
        raise ValueError("triangularity requires a least element")
    if not _is_graded(p):
        raise ValueError("ungraded interval: a cover raises rho by more than one")
    rho, down, levels = p._rho, p._down, p._levels
    counts: Dict[Tuple[int, int, int], int] = {}
    for rx, up in zip(rho, p._up):
        for y in _bits(up):
            ry, interval = rho[y], up & down[y]
            for j in range(rx + 1, ry):
                c = (interval & levels[j]).bit_count()
                if counts.setdefault((rx, j, ry), c) != c:
                    return False
    return True


def is_perfect_matroid_design(p: Poset) -> bool:
    """Geometric lattice whose down-set rank profiles are rank uniform."""
    if not is_geometric(p):
        raise ValueError("not a geometric lattice")
    ok, _ = is_quasi_rank_uniform(p)
    return ok


def _incidence_column(p: Poset, y: int, mask: int, xs: Sequence[int]) -> Dict[int, ExactPoly]:
    """R(x, y) for each x in ``xs`` from one Mobius column: the sum over w in
    [x, y] of mu(w, y) times the level popcounts of w's down-set. ``mask``
    is closed upward below y and holds every x."""
    rho, down, up, levels = p._rho, p._down, p._up, p._levels
    terms = {
        w: [m * (down[w] & level).bit_count() for level in levels[: rho[w] + 1]]
        for w, m in _mobius_column(p, y, mask).items()
        if m
    }
    column = {}
    for x in xs:
        counts = [0] * (rho[y] + 1)
        for w in _bits(up[x] & mask):
            for r, c in enumerate(terms.get(w, ())):
                counts[r] += c
        column[x] = ExactPoly(counts)
    return column


def incidence_R(p: Poset, x: int, y: int) -> ExactPoly:
    """Monic degree-rho(y) polynomial attached to the interval [x, y].

    It is the Mobius inversion of w -> sum_{z <= w} t^rho(z) over [x, y],
    defined on any poset with a least element. On a lattice it equals the
    join-fiber sum of t^rho(z) over z <= y with z join x = y.
    """
    if not p.leq(x, y):
        raise ValueError("incomparable pair")
    if p.least is None:
        raise ValueError("requires a least element")
    return _incidence_column(p, y, p.up_mask(x) & p.down_mask(y), (x,))[x]


def incidence_R_table(p: Poset) -> Dict[Tuple[int, int], ExactPoly]:
    """incidence_R on every comparable pair of a lattice, one Mobius column per top."""
    _require_lattice(p)
    columns = ((y, _incidence_column(p, y, p.down_mask(y), p.down_set(y))) for y in range(p.n))
    return {(x, y): poly for y, column in columns for x, poly in column.items()}


def check_cover_recursion(p: Poset) -> CheckReport:
    """Verify the cover-step recursion of the incidence rank function.

    For every x < x' <= y with x' covering x the polynomial R(x, y) must
    equal R(x', y) minus the sum of R(x, w) over the co-covers w of y
    with x <= w and x' not below w. Requires a semimodular lattice.
    """
    if not p.is_lattice or not is_semimodular(p):
        return CheckReport(
            suite="incidence",
            instance=repr(p),
            verdict="error",
            witness={"reason": "not a semimodular lattice"},
        )
    table = incidence_R_table(p)
    failures = []
    for x, xp in p.covers:
        for y in _bits(p.up_mask(xp)):
            acc = table[(xp, y)]
            for w in p._cover_down[y]:
                if p.leq(x, w) and not p.leq(xp, w):
                    acc = acc - table[(x, w)]
            if acc != table[(x, y)]:
                failures.append(
                    {
                        "x": x,
                        "x_cover": xp,
                        "y": y,
                        "expected": table[(x, y)].to_string(),
                        "got": acc.to_string(),
                    }
                )
    verdict = "pass" if not failures else "fail"
    return CheckReport(
        suite="incidence",
        instance=repr(p),
        verdict=verdict,
        witness={"failures": failures[:5], "failure_count": len(failures)},
    )


def paving_construction(p: Poset, h_elements, y: int, d: int) -> Poset:
    """Collapse the down-set of y to quasi-rank d+1 through the antichain H.

    Keeps the elements below y of quasi-rank at most d-1, adjoins H as the
    level at quasi-rank d and y on top. The four admissibility conditions
    are checked and reported by clause number.
    """
    if p.least is None:
        raise ValueError("host must have a least element")
    h_set = set(h_elements)
    n = p.rho(y)
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= d < rho(y), got d={d}, rho(y)={n}")
    for h in h_set:
        if not p.leq(h, y):
            raise ValueError(f"H must lie below y: element {h}")
    failure = _paving_clause_failure(p, h_set, y, d)
    if failure is not None:
        raise ValueError(failure)
    # the levels are disjoint, so their sum is their union; y lies above them
    keep = list(_bits(p.down_mask(y) & sum(p._levels[:d])))
    for x in keep:
        if not any(p.leq(x, h) for h in h_set):
            raise ValueError(f"condition (iv) fails: element {x} below no H member")
    keep += sorted(h_set)
    keep.append(y)
    return p.induced(keep)


def _paving_clause_failure(p: Poset, h_set: Set[int], y: int, d: int):
    """The message of the first of clauses (i) y not in H, (ii) rho(h) >= d
    and (iii) H an antichain that fails; None when all three hold."""
    if y in h_set:
        return "condition (i) fails: y belongs to H"
    for h in h_set:
        if p.rho(h) < d:
            return f"condition (ii) fails: rho({h}) < {d}"
    for a in h_set:
        for b in h_set:
            if a != b and p.leq(a, b):
                return f"condition (iii) fails: {a} < {b} in H"
    return None


def generalized_dpartition_check(l: Poset, h_elements, d: int) -> bool:
    """Check the antichain conditions for the paving construction on a lattice.

    Every rank-d element must lie below exactly one member of H; the host
    must be geometric.
    """
    if not is_geometric(l):
        raise ValueError("host is not a geometric lattice")
    h_set = set(h_elements)
    if _paving_clause_failure(l, h_set, l.greatest, d) is not None:
        return False
    rank_d = l._levels[d] if 0 <= d < len(l._levels) else 0
    return all(sum(1 for h in h_set if l.leq(x, h)) == 1 for x in _bits(rank_d))


def l_paving(l: Poset, h_elements, d: int) -> Poset:
    """Paving construction over a geometric host; the result must be geometric."""
    h_list = list(h_elements)
    if not generalized_dpartition_check(l, h_list, d):
        raise ValueError("not a generalized d-partition of the host")
    out = paving_construction(l, h_list, l.greatest, d)
    if not is_geometric(out):
        raise AssertionError("paving construction left the geometric class")
    return out


def truncated_extension_coatoms(E, X, e) -> Set[FrozenSet]:
    """Co-atom family of the principal extension of the Boolean algebra on E.

    These are the hyperplanes that the one-step truncation removes when
    passing from the extension to the extension of the truncated Boolean
    algebra, expressed through the product decomposition: A + (E - X)
    with A a co-atom of the truncated Boolean algebra on X + e, and
    (X + e) + B with B a co-atom of the Boolean algebra on E - X.
    """
    E = frozenset(E)
    X = frozenset(X)
    if not X or not X <= E:
        raise ValueError("X must be a nonempty subset of E")
    if e in E:
        raise ValueError("e must be new")
    xe = X | {e}
    rest = E - X
    out: Set[FrozenSet] = set()
    for a in combinations(sorted(xe, key=repr), len(xe) - 2):
        out.add(frozenset(a) | rest)
    if rest:
        for b in combinations(sorted(rest, key=repr), len(rest) - 1):
            out.add(xe | frozenset(b))
    return out


def rank_selection_sweep(p: Poset) -> int:
    """Check [-1,0]-rootedness of every nonempty rank selection; returns
    their count, 0 for a poset the library does not sweep. The sweep the
    rank-selection suites run, taken on its own (see
    ``suites._certify_rank_selections``)."""
    alpha = _swept_flag_f_vector(p)
    return 0 if alpha is None else _certify_rank_selections(p, alpha)
