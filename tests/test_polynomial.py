import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from latchain import (
    ExactPoly,
    diamond_product,
    f_from_h,
    h_from_f,
    interlaces,
    is_real_rooted,
    isolate_real_roots,
    roots_in_interval,
    sturm_real_root_count,
)
from latchain.permstats import MAX_PERMUTATION_SIZE
from latchain import polynomial
from latchain.polynomial import MAX_TRANSFORM_DIMENSION, MAX_TRANSFORM_WORK, _sign_at, _taylor_shift
from helpers import (
    check_damped_interlacing,
    diamond_by_basis,
    interlaces_by_isolation,
    is_tp2,
    isolate_by_sturm,
    monic,
    poly_divmod,
    poly_from_roots,
    poly_gcd,
    poly_quotient,
    real_rooted_by_sturm,
    rebase_by_powers,
    root_count_by_sturm,
    sign_at_by_fraction_horner,
    roots_in_interval_by_sturm,
    roots_interlace,
    squarefree_decomposition,
    taylor_shift_by_compose,
    tp2_by_cross_products,
)

ONE_PLUS_T = ExactPoly((1, 1))


def test_string_round_trip():
    p = ExactPoly.from_string("1 4 5 2")
    assert p.to_string() == "1 4 5 2"
    assert ExactPoly.from_string("1/2 -3").coeffs == (Fraction(1, 2), -3)
    assert ExactPoly().to_string() == "0"
    with pytest.raises(ValueError, match=r"^invalid number '1/0': zero denominator$"):
        ExactPoly.from_string("1 1/0")


@pytest.mark.parametrize("token", ["1e1000000", "1_0", ".5", "-2E3", "0.5", "1/-2", "1/2/3", "+-1", "\u0661", "inf"])
def test_from_string_takes_only_integers_and_p_over_q(token):
    with pytest.raises(ValueError, match=re.escape(f"invalid number {token!r}: write an integer or p/q")):
        ExactPoly.from_string("1 " + token)


def test_coefficient_types():
    # a bool is refused although bool subclasses int; integral Fractions collapse
    with pytest.raises(TypeError, match="bool"):
        ExactPoly((True,))
    with pytest.raises(TypeError, match="exact coefficient required"):
        ExactPoly((0.5,))
    assert ExactPoly((Fraction(4, 2),)).coeffs == (2,)  # Fraction(2) == 2 too, so check the type
    assert type(ExactPoly((Fraction(4, 2),)).coeffs[0]) is int


def test_arithmetic_basics():
    p = ExactPoly((1, 2))
    q = ExactPoly((0, 1, 1))
    assert (p * q).coeffs == (0, 1, 3, 2)
    assert (p + q).coeffs == (1, 3, 1)
    assert (p - p).is_zero
    assert p(Fraction(1, 2)) == 2
    quo, rem = poly_divmod(q, p)
    assert quo * p + rem == q
    assert poly_gcd(ONE_PLUS_T**2 * ExactPoly((1, 2)), ONE_PLUS_T * ExactPoly((1, 3))) == ONE_PLUS_T


def test_sturm_count_examples():
    assert sturm_real_root_count(ONE_PLUS_T**2) == 1
    assert sturm_real_root_count(ExactPoly((1, 1, 1))) == 0
    assert sturm_real_root_count(ExactPoly((1, 4, 5, 2)), (-1, 0)) == 2


def test_real_rooted_examples():
    assert is_real_rooted(ONE_PLUS_T**2 * ExactPoly((1, 2)))
    assert not is_real_rooted(ExactPoly((1, 0, 1)))
    assert not is_real_rooted(ExactPoly((1, 2, 2)))
    with pytest.raises(ValueError):
        is_real_rooted(ExactPoly())


def test_roots_in_interval_examples():
    assert roots_in_interval(ExactPoly((1, 4, 5, 2)), -1, 0)
    assert not roots_in_interval(ExactPoly((1, -1)), -1, 0)
    assert roots_in_interval(ExactPoly.monomial(3), -1, 0)
    with pytest.raises(ValueError, match="real-rooted"):
        roots_in_interval(ExactPoly((1, 0, 1)), -1, 0)


def test_interlaces_examples():
    assert interlaces(ExactPoly((1, 2)), ONE_PLUS_T * ExactPoly((1, 3)))
    assert interlaces(ONE_PLUS_T, ONE_PLUS_T**2)
    assert not interlaces(ONE_PLUS_T * ExactPoly((1, 4)), ExactPoly((1, 2)) * ExactPoly((1, 3)))
    # the zero polynomial interlaces and is interlaced by itself and by
    # every real-rooted polynomial with a positive leading coefficient
    assert interlaces(ExactPoly(), ONE_PLUS_T)
    assert interlaces(ONE_PLUS_T, ExactPoly())
    assert interlaces(ExactPoly(), ExactPoly())
    # any other argument beside it still meets the guards
    for f in (ExactPoly((1, 1, 1)), ExactPoly((1, 0, 1))):
        with pytest.raises(ValueError, match="not real-rooted"):
            interlaces(ExactPoly(), f)
        with pytest.raises(ValueError, match="not real-rooted"):
            interlaces(f, ExactPoly())
    with pytest.raises(ValueError, match="positive leading"):
        interlaces(ExactPoly(), -ONE_PLUS_T)
    with pytest.raises(ValueError, match="positive leading"):
        interlaces(ExactPoly((-3,)), ExactPoly())
    # degree gap of two is a plain False
    assert not interlaces(ExactPoly((1,)), ONE_PLUS_T**2)
    with pytest.raises(ValueError):
        interlaces(ExactPoly((1, 0, 1)), ONE_PLUS_T)


def test_roots_in_interval_rejects_an_empty_interval():
    with pytest.raises(ValueError, match="empty interval"):
        roots_in_interval(ONE_PLUS_T, 0, -1)
    with pytest.raises(ValueError, match="empty interval"):
        roots_in_interval(ExactPoly((-2, 0, 1)), Fraction(1, 2), Fraction(1, 3))
    # a constant has no root to place; a root at lo = hi is inside
    assert roots_in_interval(ExactPoly((3,)), 0, -1)
    assert roots_in_interval(ONE_PLUS_T**2, -1, -1)


def test_interlaces_equal_degree_with_every_root_shared():
    for f in (ONE_PLUS_T**3, ONE_PLUS_T * ExactPoly((-2, 0, 1)), ExactPoly((0, 1)) * ExactPoly((1, 3)) ** 2):
        assert interlaces(f, f)
        assert interlaces(3 * f, f) and interlaces(f, Fraction(1, 2) * f)
    with pytest.raises(ValueError, match="real-rooted"):
        interlaces(ExactPoly((1, 1, 1)), ExactPoly((1, 1, 1)))


def test_damped_interlacing_examples():
    assert check_damped_interlacing(ONE_PLUS_T**2, ONE_PLUS_T, 1)
    assert check_damped_interlacing(ONE_PLUS_T**2, ONE_PLUS_T, 0)
    assert check_damped_interlacing(ExactPoly((0, 1, 1)), ONE_PLUS_T, Fraction(1, 2))
    with pytest.raises(ValueError, match="degree"):
        check_damped_interlacing(ONE_PLUS_T, ONE_PLUS_T, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        check_damped_interlacing(ONE_PLUS_T**2, ONE_PLUS_T, -1)


def test_tp2_examples():
    assert is_tp2([[1, 0], [0, 1]])
    assert not is_tp2([[1, 2], [2, 1]])
    # triangular multiplier matrix with lambda = (1, 2, 3)
    assert is_tp2([[1, 2, 3], [0, 2, 3], [0, 0, 3]])
    assert not is_tp2([[1, -1], [0, 1]])
    # the shape is checked before any entry decides the verdict
    with pytest.raises(ValueError, match="ragged matrix"):
        is_tp2([[1, -1], [3]])


def test_h_from_f_examples():
    assert h_from_f(ExactPoly((1, 2)), 1) == ONE_PLUS_T
    assert h_from_f(ExactPoly((1,)), 0) == ExactPoly((1,))
    assert h_from_f(ExactPoly((1, 4, 5, 2)), 3) == ONE_PLUS_T
    with pytest.raises(ValueError):
        h_from_f(ExactPoly((1, 1, 1)), 1)
    # the zero polynomial maps to zero at every dimension
    assert h_from_f(ExactPoly(), 5).is_zero and f_from_h(ExactPoly(), 0).is_zero


@pytest.mark.parametrize("transform", [h_from_f, f_from_h])
def test_transforms_refuse_a_negative_dimension(transform):
    # the zero polynomial once passed the degree check at every n and came back as zero
    with pytest.raises(ValueError, match=r"^dimension parameter n=-5 is negative$"):
        transform(ExactPoly(), -5)
    with pytest.raises(ValueError, match="^degree exceeds the dimension parameter$"):
        transform(ExactPoly((1,)), -1)


def test_transforms_are_capped_at_dimension_10000():
    h = h_from_f(ExactPoly((1, 2)), MAX_TRANSFORM_DIMENSION)
    # (1 - t)^n + 2t(1 - t)^(n - 1): t^1 has -n + 2, the top -(-1)^n
    assert (h.coefficient(1), h.coefficient(MAX_TRANSFORM_DIMENSION)) == (-MAX_TRANSFORM_DIMENSION + 2, -1)
    # the largest coefficient still prints under Python's 4300-digit limit
    assert len(str(max(map(abs, h.coeffs)))) < 4300
    for transform in (h_from_f, f_from_h):
        with pytest.raises(ValueError, match="^dimension parameter n=10001 over the cap of 10000$"):
            transform(ExactPoly((1, 2)), MAX_TRANSFORM_DIMENSION + 1)


def test_transforms_refuse_work_over_the_budget_at_once():
    # four nonzero coefficients at n = 10000 are 40004 units of work, five 50005
    four = ExactPoly((1, 0, 2, 0, 0, 3, 4))
    assert h_from_f(four, MAX_TRANSFORM_DIMENSION).coefficient(0) == 1
    five = ExactPoly((1, 0, 2, 0, 0, 3, 4, 5))
    for transform in (h_from_f, f_from_h):
        with pytest.raises(ValueError, match=r"^transform work of 50005 \(nonzero coefficients times n \+ 1\) "):
            transform(five, MAX_TRANSFORM_DIMENSION)
    # q_eulerian transforms at most n nonzero chain counts at dimension n - 1
    assert MAX_PERMUTATION_SIZE**2 * 50 < MAX_TRANSFORM_WORK


@pytest.mark.parametrize("rational", [False, True], ids=["int", "rational"])
@pytest.mark.parametrize("sign", [-1, 1])
def test_transforms_match_the_power_oracle(sign, rational):
    """The term recurrence against powers of 1 +/- t, with coefficients of both
    signs; the oracle's repeated squaring takes seconds from n = 2000 on."""
    transform = h_from_f if sign < 0 else f_from_h
    rng = random.Random(2 * sign + rational)
    for n in (0, 1, 2, 3, 7, 40, 250, 600):
        for _ in range(3):
            degree = rng.randint(0, min(n, 6))
            coeffs = [rng.randint(-(10**30), 10**30) for _ in range(degree + 1)]
            if rational:
                coeffs = [Fraction(c, rng.randint(1, 10**6)) for c in coeffs]
            f = ExactPoly(c if rng.random() < 0.6 else 0 for c in coeffs)
            got, expected = transform(f, n), rebase_by_powers(f, n, sign)
            assert got == expected and list(map(type, got.coeffs)) == list(map(type, expected.coeffs)), (f, n)


@pytest.mark.parametrize(
    "f",
    [ExactPoly((7**1000, 0, -(5**1200), 3**2000, -(10**1500))), ExactPoly((Fraction(-1, 3), 0, Fraction(5, 7), 2))],
    ids=["int", "rational"],
)
def test_transforms_at_the_cap_keep_their_values(f):
    """At n = 10000, past the power oracle's reach: h = h_from_f(f, n) has
    2^n h(1/2) = f(1), and g = f_from_h(f, n) has 2^n g(-1/2) = f(-1)."""
    n = MAX_TRANSFORM_DIMENSION
    h, g = h_from_f(f, n), f_from_h(f, n)
    assert sum(c * 2 ** (n - i) for i, c in enumerate(h.coeffs)) == f(1)
    assert sum(c * (-1) ** i * 2 ** (n - i) for i, c in enumerate(g.coeffs)) == f(-1)


def test_diamond_product_examples():
    t = ExactPoly((0, 1))
    assert diamond_product(t, t) == ExactPoly((0, 1, 2))
    assert diamond_product(ExactPoly((1,)), ExactPoly((1, 4, 5, 2))) == ExactPoly((1, 4, 5, 2))


COEFF = st.one_of(st.integers(-50, 50), st.fractions(min_value=-20, max_value=20, max_denominator=6))


@settings(max_examples=200, deadline=None)
@given(st.lists(COEFF, max_size=7), st.lists(COEFF, max_size=7))
def test_diamond_product_matches_basis_round_trip(f, g):
    """The bilinear formula against E(E^-1(f) * E^-1(g)), zero polynomial included."""
    f, g = ExactPoly(f), ExactPoly(g)
    assert diamond_product(f, g) == diamond_by_basis(f, g)
    assert diamond_product(f, ExactPoly()).is_zero and diamond_product(ExactPoly(), g).is_zero


ENTRY = st.one_of(st.integers(-6, 9), st.fractions(min_value=-3, max_value=5, max_denominator=4))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(ENTRY, min_size=0, max_size=4), min_size=0, max_size=4))
def test_tp2_matches_cross_products(rows):
    """The shared minor test against the cross-product loop, on negative,
    rational and ragged matrices; both refuse a ragged one."""
    assert _outcome(is_tp2, rows) == _outcome(tp2_by_cross_products, rows)
    nonneg = [[abs(c) for c in r] for r in rows]
    assert _outcome(is_tp2, nonneg) == _outcome(tp2_by_cross_products, nonneg)


def test_isolation_counts():
    p = ONE_PLUS_T**2 * ExactPoly((1, 2))
    iso = isolate_real_roots(p)
    assert iso.distinct_count == 2
    assert iso.count_with_multiplicity == 3
    assert sorted(iso.multiplicities) == [1, 2]
    # intervals are disjoint, increasing, and half-open
    for (a1, b1), (a2, b2) in zip(iso.intervals, iso.intervals[1:]):
        assert b1 <= a2
    # the double root 0 ends the first interval and opens the second, which
    # holds the simple root 1 alone
    iso = isolate_real_roots(ExactPoly((0, 0, -1, 1)))
    assert iso.intervals == ((-2, 0), (0, 2)) and iso.multiplicities == (2, 1)


def test_real_rooted_fuzz_1000():
    """Products of rational linear factors: counts match the constructed multiset."""
    rng = random.Random(1729)
    for _ in range(1000):
        k = rng.randint(1, 5)
        roots = []
        for _ in range(k):
            r = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            roots += [r] * rng.randint(1, 2)
        p = poly_from_roots(roots)
        assert is_real_rooted(p)
        assert sturm_real_root_count(p) == len(set(roots))
        iso = isolate_real_roots(p)
        assert iso.count_with_multiplicity == len(roots)


small_fraction = st.fractions(
    min_value=-10, max_value=10, max_denominator=4
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(small_fraction, min_size=0, max_size=5),
    st.lists(small_fraction, min_size=0, max_size=5),
)
def test_interlaces_matches_root_comparator(g_roots, f_roots):
    g, f = poly_from_roots(g_roots), poly_from_roots(f_roots)
    assert interlaces(g, f) == roots_interlace(g_roots, f_roots)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_common_interlacer_sum(data):
    """h interlacing f and g forces h to interlace f + g."""
    k = data.draw(st.integers(min_value=1, max_value=4))
    gap = st.fractions(min_value=0, max_value=10, max_denominator=3)
    h_roots = [Fraction(10 * (j + 1)) for j in range(k)]
    f_roots = [Fraction(10 * j) + data.draw(gap) for j in range(k + 1)]
    g_roots = [Fraction(10 * j) + data.draw(gap) for j in range(k + 1)]
    h = poly_from_roots(h_roots)
    f, g = poly_from_roots(f_roots), poly_from_roots(g_roots)
    assert interlaces(h, f) and interlaces(h, g)
    assert interlaces(h, f + g)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_common_interlacee_sum(data):
    """f and g interlacing h forces f + g to interlace h."""
    k = data.draw(st.integers(min_value=2, max_value=5))
    h_roots = [Fraction(10 * (j + 1)) for j in range(k)]
    gap = st.fractions(min_value=0, max_value=10, max_denominator=3)
    f_roots = [Fraction(10 * (j + 1)) + data.draw(gap) for j in range(k - 1)]
    g_roots = [Fraction(10 * (j + 1)) + data.draw(gap) for j in range(k - 1)]
    h = poly_from_roots(h_roots)
    f, g = poly_from_roots(f_roots), poly_from_roots(g_roots)
    assert interlaces(f, h) and interlaces(g, h)
    assert interlaces(f + g, h)


def _random_tn_matrix(data, size: int):
    """Product of nonnegative diagonal and elementary bidiagonal factors.

    Such products are totally nonnegative, so in particular TP2; this
    gives dense coverage instead of filtering random matrices.
    """
    mat = [[1 if i == j else 0 for j in range(size)] for i in range(size)]

    def mul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]

    steps = data.draw(st.integers(min_value=1, max_value=5))
    for _ in range(steps):
        kind = data.draw(st.sampled_from(["diag", "lower", "upper"]))
        factor = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        if kind == "diag":
            for i in range(size):
                factor[i][i] = data.draw(st.integers(min_value=0, max_value=3))
        else:
            i = data.draw(st.integers(min_value=0, max_value=size - 2))
            c = data.draw(st.integers(min_value=0, max_value=3))
            if kind == "lower":
                factor[i + 1][i] = c
            else:
                factor[i][i + 1] = c
        mat = mul(mat, factor)
    return mat


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tp2_matrices_preserve_interlacing_sequences(data):
    """Nonnegative TP2 matrices map interlacing sequences to interlacing sequences."""
    length = data.draw(st.integers(min_value=2, max_value=3))
    degree = data.draw(st.integers(min_value=1, max_value=3))
    gap = st.fractions(min_value=0, max_value=9, max_denominator=2)
    # cells construction: root j of member i lives in cell j, ascending in i
    offsets = [
        sorted(data.draw(st.lists(gap, min_size=length, max_size=length)))
        for _ in range(degree)
    ]
    seq = [
        poly_from_roots([Fraction(10 * (j + 1)) + offsets[j][i] for j in range(degree)])
        for i in range(length)
    ]
    for i in range(length):
        for j in range(i + 1, length):
            assert interlaces(seq[i], seq[j])
    rows = _random_tn_matrix(data, length)
    assert is_tp2(rows)
    image = []
    for row in rows:
        acc = ExactPoly()
        for c, p in zip(row, seq):
            acc = acc + c * p
        image.append(acc)
    for i in range(len(image)):
        for j in range(i + 1, len(image)):
            assert interlaces(image[i], image[j])


@settings(max_examples=100, deadline=None)
@given(st.lists(small_fraction, min_size=0, max_size=5), st.integers(min_value=0, max_value=36))
def test_h_f_round_trip(coeffs, extra):
    f = ExactPoly(coeffs)
    n = (f.degree if not f.is_zero else 0) + extra
    h = h_from_f(f, n)
    assert h == rebase_by_powers(f, n, -1)
    assert f_from_h(f, n) == rebase_by_powers(f, n, 1)
    assert f_from_h(h, n) == f
    if not f.is_zero:
        with pytest.raises(ValueError, match="^degree exceeds the dimension parameter$"):
            h_from_f(f, f.degree - 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(small_fraction, min_size=1, max_size=4))
def test_squarefree_decomposition_reassembles(roots):
    p = poly_from_roots(roots)
    acc = ExactPoly((1,))
    for q, mult in squarefree_decomposition(p):
        acc = acc * q**mult
    assert acc == monic(p)


# -- remainder-sequence predicates against the root-isolation oracle -------------------

LINEAR = st.builds(lambda a, b: ExactPoly((-a, b)), st.integers(-4, 4), st.integers(1, 3))
IRRATIONAL = st.sampled_from([ExactPoly((-k, 0, 1)) for k in (2, 3, 5, 8)])  # t^2 - k
NON_REAL = st.sampled_from([ExactPoly((1, 1, 1)), ExactPoly((2, 0, 1))])
FACTOR = st.one_of(LINEAR, LINEAR, IRRATIONAL, NON_REAL)
POSITIVE_SCALE = st.sampled_from([1, 2, Fraction(1, 3), Fraction(5, 2)])
SIGNED_SCALE = st.one_of(POSITIVE_SCALE, POSITIVE_SCALE.map(lambda c: -c))


def _factors(data, max_size: int) -> list:
    """Factors with multiplicity 1 or 2, so roots may repeat."""
    return data.draw(st.lists(st.tuples(FACTOR, st.integers(1, 2)), max_size=max_size))


def _product(factors) -> ExactPoly:
    out = ExactPoly((1,))
    for factor, mult in factors:
        out = out * factor**mult
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_interlaces_matches_isolation_oracle(data):
    """Shared, repeated, irrational and non-real roots; degree gaps of 0 to 2,
    leading coefficients of either sign and a zero argument, so every guard
    and its order is reached."""
    shared = _product(_factors(data, 2))
    f = shared * _product(_factors(data, 2))
    g = shared * _product(_factors(data, 2))
    gap = data.draw(st.sampled_from([0, 1, 2]))
    while f.degree - g.degree != gap:
        if f.degree - g.degree > gap:
            g = g * data.draw(LINEAR)
        else:
            f = f * data.draw(LINEAR)
    f, g = data.draw(SIGNED_SCALE) * f, data.draw(SIGNED_SCALE) * g
    zeroed = data.draw(st.sampled_from(["none", "none", "none", "f", "g"]))
    f = ExactPoly() if zeroed == "f" else f
    g = ExactPoly() if zeroed == "g" else g
    assert _outcome(interlaces, g, f) == _outcome(interlaces_by_isolation, g, f)
    assert _outcome(interlaces, f, g) == _outcome(interlaces_by_isolation, f, g)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_real_root_predicates_match_sturm_oracle(data):
    factors = _factors(data, 4)
    p = data.draw(POSITIVE_SCALE) * _product(factors)
    assert is_real_rooted(p) == real_rooted_by_sturm(p)
    roots = [Fraction(-q.coeffs[0], q.coeffs[1]) for q, _ in factors if q.degree == 1]
    endpoint = st.one_of(
        st.integers(-5, 5), small_fraction, *([st.sampled_from(roots)] if roots else [])
    )
    lo, hi = data.draw(endpoint), data.draw(endpoint)
    if data.draw(st.integers(0, 3)):  # mostly a nonempty interval
        lo, hi = min(lo, hi), max(lo, hi)
    assert _outcome(roots_in_interval, p, lo, hi) == _outcome(roots_in_interval_by_sturm, p, lo, hi)


# roots at small dyadic rationals often fall on bisection points, so a repeated
# root often closes one isolating interval and opens the next
DYADIC = st.builds(lambda k: ExactPoly((Fraction(-k, 2), 1)), st.integers(-4, 4))
TOWER_FACTOR = st.one_of(
    LINEAR, DYADIC, st.sampled_from([ExactPoly((-2, 0, 1)), ExactPoly((-5, 0, 1)), ExactPoly((1, 1, 1))])
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_isolation_and_interval_counts_match_fraction_oracle(data):
    """Multiplicities 1 to 3, irrational and non-real factors; interval
    endpoints at roots and at isolation endpoints, some with lo == hi."""
    factors = data.draw(st.lists(st.tuples(TOWER_FACTOR, st.integers(1, 3)), min_size=1, max_size=4))
    p = data.draw(POSITIVE_SCALE) * _product(factors)
    iso = isolate_real_roots(p)
    assert (list(iso.intervals), list(iso.multiplicities)) == isolate_by_sturm(p)
    roots = [-q.coeffs[0] / Fraction(q.coeffs[1]) for q, _ in factors if q.degree == 1]
    ends = [x for interval in iso.intervals for x in interval]
    endpoint = st.one_of(small_fraction, st.sampled_from(roots + ends + [0]))
    for _ in range(4):
        lo, hi = sorted((data.draw(endpoint), data.draw(endpoint)))
        if data.draw(st.integers(0, 3)) == 0:
            hi = lo
        assert sturm_real_root_count(p, (lo, hi)) == root_count_by_sturm(p, lo, hi)


REAL_FACTOR = st.one_of(LINEAR, DYADIC, IRRATIONAL)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_roots_in_interval_matches_compose_and_sturm_oracles(data):
    """Real-rooted p with irrational and repeated roots; integer and rational
    endpoints, endpoints at roots, and lo == hi."""
    factors = data.draw(st.lists(st.tuples(REAL_FACTOR, st.integers(1, 3)), max_size=4))
    p = data.draw(POSITIVE_SCALE) * _product(factors)
    roots = [-q.coeffs[0] / Fraction(q.coeffs[1]) for q, _ in factors if q.degree == 1]
    endpoint = st.one_of(st.integers(-5, 5), small_fraction, st.sampled_from(roots + [0]))
    lo, hi = sorted((data.draw(endpoint), data.draw(endpoint)))
    if data.draw(st.integers(0, 3)) == 0:
        hi = lo
    for a in (lo, hi):
        assert ExactPoly(_taylor_shift(p.coeffs, a)) == taylor_shift_by_compose(p, a)
    # Descartes: no positive root iff the nonzero coefficients share one sign
    by_compose = all(
        len({c > 0 for c in shifted.coeffs if c}) <= 1
        for shifted in (taylor_shift_by_compose(p, hi), taylor_shift_by_compose(p, lo, -1))
    )
    assert roots_in_interval(p, lo, hi) == by_compose == roots_in_interval_by_sturm(p, lo, hi)


# roots k + a/q with large prime q, so coefficients carry large coprime
# denominators and nearby roots need many bisection steps to separate
BIG_PRIMES = (10007, 65537, 999983, 2**31 - 1, 2**61 - 1)
BIG_ROOT = st.sampled_from(BIG_PRIMES).flatmap(
    lambda q: st.builds(lambda k, a: k + Fraction(a, q), st.integers(-3, 3), st.integers(0, q - 1))
)
BIG_SCALE = st.builds(
    Fraction, st.integers(-(10**12), 10**12).filter(bool), st.sampled_from(BIG_PRIMES)
)
NAMED = st.sampled_from([ExactPoly((1, 1, 1)), ExactPoly((-2, 0, 1))])  # t^2 + t + 1, t^2 - 2
BIG_FACTOR = st.one_of(BIG_ROOT.map(lambda r: ExactPoly((-r, 1))), LINEAR, NAMED)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_lists_match_fraction_oracles(data):
    """Every predicate on the integer-list representation against the
    Fraction oracles: large coprime denominators, t^2 + t + 1 and t^2 - 2,
    multiplicities 1 to 3, degrees 0 and 1, leading coefficients of either
    sign, interval endpoints at simple and repeated roots."""
    factors = data.draw(st.lists(st.tuples(BIG_FACTOR, st.integers(1, 3)), max_size=3))
    p = data.draw(BIG_SCALE) * _product(factors)
    assert is_real_rooted(p) == real_rooted_by_sturm(p)
    iso = isolate_real_roots(p)
    intervals, mults = isolate_by_sturm(p)
    assert (list(iso.intervals), list(iso.multiplicities)) == (intervals, mults)
    assert sturm_real_root_count(p) == len(intervals)
    roots = [-q.coeffs[0] / Fraction(q.coeffs[1]) for q, _ in factors if q.degree == 1]
    endpoint = st.one_of(small_fraction, BIG_ROOT, st.sampled_from(roots + [0]))
    for _ in range(3):
        lo, hi = sorted((data.draw(endpoint), data.draw(endpoint)))
        if data.draw(st.integers(0, 3)) == 0:
            hi = lo
        assert sturm_real_root_count(p, (lo, hi)) == root_count_by_sturm(p, lo, hi)
        assert _outcome(roots_in_interval, p, lo, hi) == _outcome(roots_in_interval_by_sturm, p, lo, hi)

    # g interlaces f by construction: alternate sorted distinct roots between
    # them, then multiply both by a shared factor and scale each
    distinct = sorted(set(data.draw(st.lists(BIG_ROOT, min_size=1, max_size=6))))
    f = poly_from_roots(distinct[::2])
    g = poly_from_roots(distinct[1::2])
    shared = _product(data.draw(st.lists(st.tuples(BIG_FACTOR, st.integers(1, 2)), max_size=2)))
    scale = st.one_of(BIG_SCALE.map(abs), BIG_SCALE.map(abs), BIG_SCALE)  # mostly positive
    f, g = data.draw(scale) * shared * f, data.draw(scale) * shared * g
    if data.draw(st.booleans()):  # replace a root of f by another drawn root
        f = poly_quotient(f * ExactPoly((-data.draw(BIG_ROOT), 1)), ExactPoly((-distinct[0], 1)))
    for a, b in ((g, f), (f, g), (p, f), (g, p)):
        assert _outcome(interlaces, a, b) == _outcome(interlaces_by_isolation, a, b)


# -- signs at rational points in integers against Fraction Horner --------------------

DENOMINATOR = st.one_of(st.integers(0, 200).map(lambda k: 1 << k), st.integers(1, 2**200))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sign_at_matches_fraction_horner(data):
    """Integer polynomials of degree 0 to 40; points a/b of either sign with
    denominators up to 2^200, powers of two among them, given reduced or
    not; and exact roots, planted as a factor b t - a."""
    root = data.draw(st.booleans())
    cs = data.draw(st.lists(st.integers(-(2**64), 2**64), min_size=1, max_size=40 if root else 41))
    cs[-1] = cs[-1] or 1
    b = data.draw(DENOMINATOR)
    a = data.draw(st.integers(-3 * b, 3 * b))
    if root:  # times b t - a
        cs = [b * below - a * c for c, below in zip(cs + [0], [0] + cs)]
    x = Fraction(a, b)
    expected = sign_at_by_fraction_horner(cs, x)
    assert _sign_at(cs, a, b) == _sign_at(cs, x.numerator, x.denominator) == expected
    if root:
        assert expected == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_isolation_matches_the_fraction_horner_path(data):
    """Root isolation and Sturm counts on an interval, with every sign taken
    in integers, against the same path with every sign taken by Fraction
    Horner: irrational, non-real and repeated roots (multiplicities 1 to 3)
    and large coprime denominators."""
    factors = data.draw(
        st.lists(st.tuples(st.one_of(TOWER_FACTOR, BIG_FACTOR), st.integers(1, 3)), min_size=1, max_size=4)
    )
    p = data.draw(POSITIVE_SCALE) * _product(factors)
    lo, hi = sorted((data.draw(small_fraction), data.draw(small_fraction)))

    def isolation_and_count():
        iso = isolate_real_roots(p)
        return iso.intervals, iso.multiplicities, sturm_real_root_count(p, (lo, hi))

    in_integers = isolation_and_count()
    calls = []

    def by_fraction_horner(cs, a, b=1):
        calls.append(cs)
        return sign_at_by_fraction_horner(cs, Fraction(a, b))

    with mock.patch.object(polynomial, "_sign_at", by_fraction_horner):
        assert isolation_and_count() == in_integers
    assert calls or p.degree == 0


def test_real_root_counts_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(4913)
    linear = [ExactPoly((-a, b)) for a in range(-4, 5) for b in (1, 2, 3)]
    others = [ExactPoly((-k, 0, 1)) for k in (2, 3, 5, 8)] + [ExactPoly((1, 1, 1)), ExactPoly((2, 0, 1))]
    real_rooted_seen = set()
    for _ in range(200):
        p = ExactPoly((rng.choice([1, 2, Fraction(1, 3)]),))
        for _ in range(rng.randint(1, 5)):
            p = p * rng.choice(linear + others) ** rng.randint(1, 2)
        q = sympy.Poly([sympy.Rational(str(c)) for c in reversed(p.coeffs)], t)
        assert sturm_real_root_count(p) == q.count_roots()
        assert is_real_rooted(p) == (len(sympy.real_roots(q)) == p.degree)
        lo = Fraction(rng.randint(-6, 2), rng.randint(1, 3))
        hi = lo + Fraction(rng.randint(0, 6), rng.randint(1, 2))
        assert sturm_real_root_count(p, (lo, hi)) == q.count_roots(
            sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator)
        )
        real_rooted_seen.add(is_real_rooted(p))
    assert real_rooted_seen == {True, False}


def test_sturm_count_refuses_the_zero_polynomial_and_an_empty_interval():
    with pytest.raises(ValueError, match="^undefined root count for the zero polynomial$"):
        sturm_real_root_count(ExactPoly())
    with pytest.raises(ValueError, match="^empty interval$"):
        sturm_real_root_count(ExactPoly((1, 0, -1)), (1, -1))
