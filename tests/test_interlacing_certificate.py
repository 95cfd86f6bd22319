"""The interlacing certificate by signs at dyadic points: re-verified by an
independent checker, compared with the remainder-sequence predicates on
sequences with a planted failure, and pinned on the rank rows it decides."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latchain import ExactPoly, build_instance, build_rows, chain_polys_from_rmatrix, dowling_rows
from latchain import suites
from latchain.polynomial import (
    _CERTIFICATE_BITS,
    _interlacing_certificate,
    certify_interlacing_sequence,
    interlaces,
    roots_in_interval,
)
from latchain.suites import _certify_rows, _rows_for_poset, suite_run
from helpers import poly_from_roots, verify_interlacing_certificate

T = ExactPoly((0, 1))
ONE_PLUS_T = ExactPoly((1, 1))


def _exact_verdict(ps) -> bool:
    """Every p_n real-rooted in [-1, 0] and p_n interlacing p_(n+1), by the
    remainder-sequence predicates."""
    try:
        return all(roots_in_interval(p, -1, 0) for p in ps) and all(map(interlaces, ps, ps[1:]))
    except ValueError:  # zero, not real-rooted or a nonpositive leading coefficient
        return False


def _decided(ps) -> bool:
    """The certificate's answer, checked against the exact verdict and, when
    it decides, re-verified point by point."""
    certificate = _interlacing_certificate(ps)
    assert certify_interlacing_sequence(ps) == (True if certificate is not None else None)
    if certificate is None:
        return False
    assert _exact_verdict(ps)
    assert verify_interlacing_certificate(ps, certificate)
    return True


# -- sequences with a planted failure ----------------------------------------------

DENOMINATOR = st.sampled_from([2, 3, 4, 5, 7, 8, 16])
SCALE = st.sampled_from([1, 2, 7, Fraction(1, 3), Fraction(5, 4)])
PLANTS = ("none", "none", "endpoint", "non-real", "past -1", "past 0", "shared", "dyadic", "repeated", "degree gap")


def _strict_roots(data, length: int) -> list:
    """roots[n], for n < length, holds n - 1 distinct roots in (-1, 0)
    (none for n = 0), one in each gap that roots[n - 1], -1 and 0 leave,
    so consecutive lists strictly interlace; increasing."""
    roots = [[], []]
    while len(roots) < length:
        ends = [Fraction(-1)] + roots[-1] + [Fraction(0)]
        gaps = [(lo, hi, data.draw(DENOMINATOR)) for lo, hi in zip(ends, ends[1:])]
        roots.append([lo + (hi - lo) * Fraction(data.draw(st.integers(1, den - 1)), den) for lo, hi, den in gaps])
    return roots


def _plant(data, roots: list, kind: str):
    """The root lists with one planted failure of the certificate's premises
    at a position n >= 2, and an extra factor per position (a non-real
    pair)."""
    inner, extra = [list(r) for r in roots], [ExactPoly((1,))] * len(roots)
    n = data.draw(st.integers(2, len(roots) - 1))
    i = data.draw(st.integers(0, len(inner[n]) - 1))
    j = max(i, 1)  # a root with a root below it, when there are two
    if kind == "endpoint":  # from n on, the least root moves to -1
        for k in range(n, len(inner)):
            inner[k][0] = Fraction(-1)
    elif kind == "non-real" and len(inner[n]) >= 2:
        c = (inner[n][j - 1] + inner[n][j]) / 2
        d = data.draw(st.sampled_from([Fraction(1, 100), Fraction(1, 3), Fraction(1)]))
        del inner[n][j - 1 : j + 1]
        extra[n] = ExactPoly((c * c + d * d, -2 * c, 1))
    elif kind == "past -1":
        inner[n][0] = -1 - Fraction(1, data.draw(st.sampled_from([3, 64, 10**6])))
    elif kind == "past 0":
        inner[n][-1] = Fraction(1, data.draw(st.sampled_from([3, 64, 10**6])))
    elif kind == "shared" and n + 1 < len(inner):
        inner[n + 1][i] = inner[n][i]
    elif kind == "dyadic":  # a root at a dyadic point, maybe shared with the next polynomial
        k = data.draw(st.integers(1, 4))
        inner[n][i] = Fraction(data.draw(st.integers(-(2**k) + 1, -1)), 2**k)
        if n + 1 < len(inner) and data.draw(st.booleans()):
            inner[n + 1][i] = inner[n][i]
    elif kind == "repeated" and len(inner[n]) >= 2:
        inner[n][j - 1] = inner[n][j]
    elif kind == "degree gap":
        if data.draw(st.booleans()):
            del inner[n][i]
        else:
            inner[n].append(-Fraction(1, 2))
    return inner, extra


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_certificate_matches_the_remainder_sequence_predicates(data):
    """p_0 = 1, p_n = t * (roots of list n) for n >= 1, each scaled, with a
    planted failure at one position; the sequence may start at p_1 or p_2.
    A decided sequence must hold by the exact predicates and pass the
    checker; a sequence with nothing planted, or with the least roots
    moved to -1 from some n on, must be decided."""
    length = data.draw(st.integers(3, 8))
    kind = data.draw(st.sampled_from(PLANTS))
    inner, extra = _plant(data, _strict_roots(data, length), kind)
    ps = [ExactPoly((1,))] + [
        data.draw(SCALE) * T * extra[n] * poly_from_roots(inner[n]) for n in range(1, length)
    ]
    ps = ps[data.draw(st.integers(0, 2)) :] if length > 3 else ps
    decided = _decided(ps)
    if kind in ("none", "endpoint"):
        assert decided


@pytest.mark.parametrize(
    "ps",
    [
        # a shared root at -1/2, a bisection point: the sequence interlaces
        [T, T * ExactPoly((1, 2)), T * ExactPoly((1, 2)) * ExactPoly((1, 4))],
        # a root of p_2 at 1, past 0, and at the first bisection point -1/2
        [T, T * ExactPoly((1, 3)), T * ExactPoly((1, 2)) * ExactPoly((-1, 1))],
        # a double root of p_2 inside (-1, 0)
        [T, T * ExactPoly((1, 3)), T * ExactPoly((1, 3)) ** 2],
        # p_1 with roots 0 and -1 twice, p_2 of lower degree
        [ExactPoly((1,)), T * ONE_PLUS_T**2],
        [T, T * ExactPoly((1, 3)), 5 * T],
        # t^2 divides p_1; a negative leading coefficient; the zero polynomial
        [ExactPoly((1,)), T * T],
        [ExactPoly((1,)), -T],
        [ExactPoly((1,)), ExactPoly()],
        # the first polynomial with two roots besides 0 and -1
        [poly_from_roots([Fraction(-1, 3), Fraction(-2, 3)]), T * poly_from_roots([Fraction(-k, 6) for k in (1, 3, 5)])],
    ],
)
def test_certificate_leaves_premises_it_does_not_cover_undecided(ps):
    assert _interlacing_certificate(ps) is None
    assert certify_interlacing_sequence(ps) is None


def test_roots_closer_than_the_bit_budget_are_left_undecided():
    """Roots 2^-(budget + 8) apart interlace, but no dyadic point within
    the budget separates them."""
    gap = Fraction(1, 2 ** (_CERTIFICATE_BITS + 8))
    g = T * poly_from_roots([Fraction(-1, 3)])
    f = T * poly_from_roots([Fraction(-1, 3) - gap, Fraction(-1, 3) + gap])
    ps = [T, g, f]
    assert _exact_verdict(ps)
    assert certify_interlacing_sequence(ps) is None


def test_checker_refuses_a_tampered_certificate():
    ps = chain_polys_from_rmatrix(dowling_rows(m=2, N=6))
    certificate = _interlacing_certificate(ps)
    assert verify_interlacing_certificate(ps, certificate)
    for n, points in enumerate(certificate):
        for i in range(len(points)):
            moved = [list(p) for p in certificate]
            moved[n][i] = (0, 0) if points[i] != (0, 0) else (-1, 0)
            assert not verify_interlacing_certificate(ps, moved)
    assert not verify_interlacing_certificate(ps, certificate[:-1])


# -- where the suites use it ------------------------------------------------------


@pytest.fixture
def without_fallback(monkeypatch):
    """Make the per-polynomial path of _certify_rows fail if it runs."""

    def refuse(*args):
        raise AssertionError("the per-polynomial path ran")

    monkeypatch.setattr(suites, "roots_in_interval", refuse)
    monkeypatch.setattr(suites, "interlaces", refuse)


def test_certificate_decides_the_dowling_rows_up_to_m_4_and_n_40(without_fallback):
    """Each sequence is certified pair by pair from p_0, so certifying N = 40
    certifies every N <= 40 as well."""
    instances = [f"dowling-rows:m={m}:N=40" for m in (1, 2, 3, 4)]
    reports = suite_run("dowling", instances=instances)
    assert [(r.instance, r.verdict) for r in reports] == [(tag, "pass") for tag in instances]
    for m in (1, 2, 3, 4):
        ps = chain_polys_from_rmatrix(dowling_rows(m=m, N=40))
        assert verify_interlacing_certificate(ps, _interlacing_certificate(ps))


@pytest.mark.parametrize("dsl", ["boolean:12", "partition:8", "subspace:4:7", "affine:3:7", "trunc-boolean:7:2"])
def test_certificate_decides_the_rank_rows_at_the_caps(dsl, without_fallback):
    rows, side, _ = _rows_for_poset(build_instance(dsl))
    _, ps = _certify_rows(rows, side=side)
    assert side == ("dual" if dsl.startswith("partition") else "primal")
    assert verify_interlacing_certificate(ps, _interlacing_certificate(ps))


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_chain_rows_fall_back_and_pass(k, monkeypatch):
    """p_n = t (1 + t)^(n - 1) for n >= 1: from p_3 on the root -1 repeats, so the certificate
    leaves the rows to the per-polynomial path, which passes them."""
    rows = build_rows(f"chain-rows:{k}")
    ps = chain_polys_from_rmatrix(rows)
    assert len(ps) == k and ps[-1] == T * ONE_PLUS_T ** (k - 2)
    assert certify_interlacing_sequence(ps) is None
    pairs = []

    def counted(g, f):
        pairs.append((g, f))
        return interlaces(g, f)

    monkeypatch.setattr(suites, "interlaces", counted)
    _certify_rows(rows)
    assert len(pairs) == k - 1
