import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from latchain import (
    ExactPoly,
    RMatrix,
    affine_lattice,
    boolean_lattice,
    chain_polys_from_rmatrix,
    chain_poset,
    dowling_rows,
    interlaces,
    is_atomistic,
    is_geometric,
    is_quasi_rank_uniform,
    is_real_rooted,
    is_totally_nonnegative,
    ordinal_sum_rows,
    partition_lattice,
    rank_matrix,
    resolve,
    roots_in_interval,
    subspace_lattice,
    truncated_boolean,
    vamos_lattice,
)
from latchain.tn import ResolutionWitness, _is_graded
from helpers import (
    array_by_polys,
    chain_polys_by_polys,
    check_cover_recursion,
    down_poset,
    incidence_R,
    incidence_R_by_join_fiber,
    incidence_R_table,
    is_modular,
    is_perfect_matroid_design,
    is_semimodular,
    is_triangular,
    mobius_R_by_walk,
    nonuniform_5,
    pentagon,
    quasi_rank_rows_by_walk,
    quasi_uniform_13,
    random_bounded,
    random_poset,
    rank_uniform_tower_13,
    resolve_by_polys,
    subdivision_operator,
    triangular_by_walk,
    verify_by_polys,
    with_bounds,
)

ONE_PLUS_T = ExactPoly((1, 1))


# -- rank uniformity ----------------------------------------------------------


def test_reference_poset_is_quasi_rank_uniform():
    ok, rows = is_quasi_rank_uniform(quasi_uniform_13())
    assert ok
    assert [r.to_string() for r in rows.rows] == ["1", "1 1", "1 1 1", "1 3 2 1"]


def test_boolean_rank_matrix():
    for n in range(1, 6):
        rows = rank_matrix(boolean_lattice(n))
        for k in range(n + 1):
            assert rows.rows[k] == ONE_PLUS_T**k


def test_nonuniform_witness():
    assert is_quasi_rank_uniform(nonuniform_5()) == (False, None)
    with pytest.raises(ValueError):
        rank_matrix(nonuniform_5())


# -- resolvability ------------------------------------------------------------


def test_resolve_boolean_rows():
    rows = rank_matrix(boolean_lattice(4))
    outcome = resolve(rows)
    assert outcome.ok
    assert outcome.witness.verify(rows)
    array = array_by_polys(outcome.witness, rows)
    for n in range(5):
        for k in range(n + 1):
            assert array[n][k] == (ONE_PLUS_T ** (n - k)).shift(k)
    assert all(l == 1 for lams in outcome.witness.lambdas for l in lams)


def test_resolve_dowling_rows():
    rows = dowling_rows(2, 5)
    outcome = resolve(rows)
    assert outcome.ok and outcome.witness.verify(rows)


def test_resolve_reports_negative_multiplier():
    bad = RMatrix.from_int_rows([[1], [1, 1], [1, 3, 1], [1, 2, 3, 1]])
    outcome = resolve(bad)
    assert not outcome.ok
    assert outcome.obstruction == "negative multiplier"
    assert outcome.position == (2, 1)
    assert not is_totally_nonnegative(bad)


def test_resolve_reports_zero_pivot_divisibility():
    rows = rank_matrix(quasi_uniform_13())
    outcome = resolve(rows)
    assert not outcome.ok
    assert outcome.obstruction == "divisibility failure"
    assert outcome.zero_pivot
    assert not is_totally_nonnegative(rows)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[2]], "row 0 is not monic of degree 0"),
        ([[1], [1, 1, 1]], "row 1 is not monic of degree 1"),
        ([[1], [1, 2]], "row 1 is not monic of degree 1"),
        ([[1], [-1, 1]], "row 1 has a non-integer or negative entry"),
        ([[1], [0, 1]], "row 1 has constant term zero"),
    ],
)
def test_rank_matrix_refuses_bad_rows(rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RMatrix.from_int_rows(rows)
    with pytest.raises(ValueError, match=f"^{message}$"):
        RMatrix.from_text("".join(" ".join(map(str, row)) + "\n" for row in rows))


def test_rank_matrix_refuses_a_fraction_entry():
    with pytest.raises(ValueError, match="^row 1 has a non-integer or negative entry$"):
        RMatrix.from_int_rows([[1], [Fraction(1, 2), 1]])


def test_witness_and_matrix_serialization():
    rows = rank_matrix(boolean_lattice(3))
    assert RMatrix.from_text(rows.to_text()).rows == rows.rows
    with pytest.raises(ValueError, match="^line 2: not an integer: 'x'$"):
        RMatrix.from_text("1\n1 x\n")
    with pytest.raises(ValueError, match="^line 2: not an integer: '٣'$"):
        RMatrix.from_text("1\n1 ٣\n")
    # a matrix with no row 0 is refused before resolve or the chain polynomials see it
    for text in ("", "\n\n"):
        with pytest.raises(ValueError, match="^rank-count matrix has no rows$"):
            RMatrix.from_text(text)
    assert rows.to_text().splitlines()[3] == "1 3 3 1"
    witness = resolve(rows).witness
    assert witness.to_report_text() == "lambda 0: 1\nlambda 1: 1 1\nlambda 2: 1 1 1\n"
    fractional = resolve(RMatrix.from_int_rows([[1], [2, 1], [3, 2, 1]])).witness
    assert fractional.to_report_text() == "lambda 0: 2\nlambda 1: 3/2 1/2\n"


def test_resolve_agrees_with_minor_oracle_on_small_instances():
    instances = [
        rank_matrix(boolean_lattice(3)),
        rank_matrix(truncated_boolean(5, 2)),
        dowling_rows(2, 4),
        rank_matrix(quasi_uniform_13()),
        RMatrix.from_int_rows([[1], [1, 1], [1, 3, 1], [1, 2, 3, 1]]),
        rank_matrix(chain_poset(5)),
    ]
    for rows in instances:
        assert resolve(rows).ok == is_totally_nonnegative(rows)


def test_resolve_agrees_with_minor_oracle_fuzz():
    """Seeded sweep of random monic rows: certificate verdict == minors verdict."""
    import random

    rng = random.Random(2718)
    for _ in range(1500):
        order = rng.randint(1, 4)
        rows = []
        for n in range(order + 1):
            coeffs = [rng.randint(0, 6) for _ in range(n)] + [1]
            coeffs[0] = max(coeffs[0], 1)
            rows.append(coeffs)
        r = RMatrix.from_int_rows(rows)
        outcome = resolve(r)
        if outcome.ok:
            assert outcome.witness.verify(r)
        assert outcome.ok == is_totally_nonnegative(r)


def _at(i, change):
    """A tuple with entry i replaced by change(entry)."""
    return lambda seq: seq[:i] + (change(seq[i]),) + seq[i + 1:]


def _set(i, value):
    return _at(i, lambda _: value)


@pytest.mark.parametrize(
    "field, change",
    [
        # one multiplier row too few
        ("lambdas", lambda rows: rows[:-1]),
        # wrong multiplier shape, or a negative multiplier
        ("lambdas", _at(1, lambda lams: lams[:-1])),
        ("lambdas", _at(1, _set(0, -1))),
        # B3's multipliers are all 1: a 1 of an inexact type
        ("lambdas", _at(1, _set(0, 1.0))),
        ("lambdas", _at(1, _set(0, True))),
        ("lambdas", _at(1, _set(0, None))),
        # the recursion broken by a nonnegative multiplier
        ("lambdas", _at(1, _set(0, 2))),
        # one multiplier row too many, or a row one entry too long
        ("lambdas", lambda rows: rows + ((1, 1, 1, 1),)),
        ("lambdas", _at(1, lambda lams: lams + (1,))),
        # the recursion broken by a 0, which adds nothing to its column
        ("lambdas", _at(2, _set(1, 0))),
        # nonnegative multipliers that rebuild B3's last row, 1 3 3 1, from rows
        # 1 and 2 other than B3's, 2 1 and 1 3/2 1
        ("lambdas", lambda rows: ((2,), (Fraction(1, 2), 1), (1, Fraction(3, 2), Fraction(1, 2)))),
    ],
)
def test_verify_rejects_each_broken_invariant(field, change):
    """One invariant broken at a time on B3's witness, each failing verify."""
    rows = rank_matrix(boolean_lattice(3))
    witness = resolve(rows).witness
    assert witness.verify(rows)
    assert not dataclasses.replace(witness, **{field: change(getattr(witness, field))}).verify(rows)


@st.composite
def monic_rank_rows(draw):
    """Row n: a constant term of at least one, n - 1 entries, then 1."""
    rows = [[1]]
    for n in range(1, draw(st.integers(0, 5)) + 1):
        middle = draw(st.lists(st.integers(0, 8), min_size=n - 1, max_size=n - 1))
        rows.append([draw(st.integers(1, 8)), *middle, 1])
    return RMatrix.from_int_rows(rows)


@settings(max_examples=300, deadline=None)
@given(monic_rank_rows())
def test_resolve_fails_only_on_a_zero_pivot_or_a_negative_multiplier(rows):
    """On any monic rank matrix an obstruction is a zero-pivot divisibility
    failure or a negative multiplier, and every certificate verifies."""
    outcome = resolve(rows)
    if outcome.ok:
        assert outcome.witness.verify(rows)
    else:
        assert (outcome.obstruction, outcome.zero_pivot) in {
            ("divisibility failure", True), ("negative multiplier", False)
        }


def _rows_after(draw, rows, order, entries):
    """rows extended by monic rows of drawn entries up to the given order."""
    for n in range(len(rows), order + 1):
        middle = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
        rows.append([draw(entries.filter(bool)), *middle, 1])
    return RMatrix.from_int_rows(rows)


@st.composite
def wide_rank_rows(draw):
    """Monic rank rows with entries up to 10^30, small ones mixed with ones over 10^29."""
    entries = st.integers(0, 8) | st.integers(10**29, 10**30)
    return _rows_after(draw, [[1]], draw(st.integers(0, 5)), entries)


@st.composite
def resolvable_wide_rank_rows(draw):
    """Rows built from drawn integer multipliers up to 10^6 by the certificate's
    own recursion, so most resolve, with entries up to about 10^30."""
    lams = st.integers(0, 3) | st.integers(10**5, 10**6)
    polys = [[ExactPoly((1,))]]
    for n in range(draw(st.integers(0, 5))):
        nxt = [ExactPoly.monomial(n + 1)]
        for k in range(n, -1, -1):
            lam = draw(lams.filter(bool) if k == 0 else lams)  # a constant term of at least one
            nxt.insert(0, nxt[0] + lam * polys[n][k])
        polys.append(nxt)
    return RMatrix(tuple(row[0] for row in polys))


@st.composite
def fractional_multiplier_rows(draw):
    """Row 1 is p + t with p >= 2 and row 2 has a constant term p does not
    divide, so lambda(1, 0) is a Fraction; its t^1 entry keeps lambda(1, 1) >= 0."""
    p = draw(st.integers(2, 9))
    b = draw(st.integers(1, 60).filter(lambda b: b % p))
    rows = [[1], [p, 1], [b, draw(st.integers(-(-b // p), 60)), 1]]
    return _rows_after(draw, rows, draw(st.integers(2, 5)), st.integers(0, 60))


@st.composite
def chainlike_rank_rows(draw):
    """The rows 1 + t + ... + t^n of a chain, some entries raised by one or two.
    Past column 0 the chain's pivots are zero, so the rows meet zero pivots
    under zero targets and under the nonzero targets the raised entries leave."""
    rows = [[1]]
    for n in range(1, draw(st.integers(2, 6)) + 1):
        rows.append([1, *draw(st.lists(st.sampled_from([1, 1, 1, 2, 3]), min_size=n - 1, max_size=n - 1)), 1])
    return RMatrix.from_int_rows(rows)


@st.composite
def negative_multiplier_rows(draw):
    """Row 1 is a + t and row 2 is b + c t + t^2 with c a < b: lambda(1, 0) = b / a
    leaves c - b / a < 0 at t^1, a negative lambda(1, 1)."""
    a, b = draw(st.integers(1, 9)), draw(st.integers(1, 60))
    rows = [[1], [a, 1], [b, draw(st.integers(0, (b - 1) // a)), 1]]
    return _rows_after(draw, rows, draw(st.integers(2, 5)), st.integers(0, 60))


def _types(xss):
    return [[type(x) for x in xs] for xs in xss]


def assert_resolves_as_the_oracle(rows):
    """resolve equals the ExactPoly oracle in obstruction, position and
    multipliers, down to the type of each multiplier, its certificate passes
    both checks, and the chain polynomials equal theirs."""
    got, want = resolve(rows), resolve_by_polys(rows)
    assert got == want
    if want.ok:
        assert _types(got.witness.lambdas) == _types(want.witness.lambdas)
        assert got.witness.verify(rows) and verify_by_polys(got.witness, rows)
    got_ps, want_ps = chain_polys_from_rmatrix(rows), chain_polys_by_polys(rows)
    assert got_ps == want_ps and _types(p.coeffs for p in got_ps) == _types(p.coeffs for p in want_ps)
    return got


CERTIFIED_ROWS = {
    "monic": monic_rank_rows(),
    "wide": wide_rank_rows(),
    "resolvable-wide": resolvable_wide_rank_rows(),
    "fractional": fractional_multiplier_rows(),
    "chainlike": chainlike_rank_rows(),
}
ROW_STRATEGIES = {**CERTIFIED_ROWS, "negative": negative_multiplier_rows()}


@pytest.mark.parametrize("rows_strategy", list(ROW_STRATEGIES.values()), ids=list(ROW_STRATEGIES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_resolve_and_chain_polys_match_the_exactpoly_oracles(rows_strategy, data):
    assert_resolves_as_the_oracle(data.draw(rows_strategy))


def planted_faults(draw, witness):
    """The witness with one fault each: one multiplier row too many, a multiplier
    moved by one or by a unit fraction or set to 0, a multiplier row cut short
    or one entry too long."""
    lambdas = witness.lambdas
    yield dataclasses.replace(witness, lambdas=lambdas + ((1,) * (len(lambdas) + 1),))
    if lambdas:
        n = draw(st.integers(0, len(lambdas) - 1))
        k = draw(st.integers(0, n))
        step = draw(st.sampled_from([-1, 1]))
        nearby = step * Fraction(1, draw(st.integers(2, 7)))
        for change in (lambda lam: lam + step, lambda lam: lam + nearby, lambda lam: 0):
            yield dataclasses.replace(witness, lambdas=_at(n, _at(k, change))(lambdas))
        yield dataclasses.replace(witness, lambdas=_at(n, lambda lams: lams[:-1])(lambdas))
        yield dataclasses.replace(witness, lambdas=_at(n, lambda lams: lams + (0,))(lambdas))


@pytest.mark.parametrize("rows_strategy", list(CERTIFIED_ROWS.values()), ids=list(CERTIFIED_ROWS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_verify_agrees_with_the_exactpoly_oracle_on_certificates_and_planted_faults(rows_strategy, data):
    rows = data.draw(rows_strategy)
    outcome = resolve(rows)
    if not outcome.ok:
        return
    assert outcome.witness.verify(rows) and verify_by_polys(outcome.witness, rows)
    for faulty in planted_faults(data.draw, outcome.witness):
        assert faulty.verify(rows) == verify_by_polys(faulty, rows)


@st.composite
def arrays_by_recursion(draw):
    """Rows built by the certificate's recursion from drawn int multipliers,
    some negative and some 0, with those multipliers as their witness: one
    that rebuilds the rows but may break the sign. Draws whose rows are no
    rank matrix are rejected."""
    polys, lambdas = [(ExactPoly((1,)),)], []
    for n in range(draw(st.integers(1, 5))):
        lams = [draw(st.integers(1, 6)), *draw(st.lists(st.integers(-2, 6), min_size=n, max_size=n))]
        nxt = [ExactPoly.monomial(n + 1)]
        for k in range(n, -1, -1):
            nxt.insert(0, nxt[0] + lams[k] * polys[n][k])
        polys.append(tuple(nxt))
        lambdas.append(tuple(lams))
    try:
        rows = RMatrix(tuple(row[0] for row in polys))
    except ValueError:
        reject()
    return rows, ResolutionWitness(tuple(lambdas))


@settings(max_examples=200, deadline=None)
@given(arrays_by_recursion())
def test_verify_refuses_exactly_the_arrays_with_a_negative_multiplier(drawn):
    rows, witness = drawn
    nonnegative = all(lam >= 0 for lams in witness.lambdas for lam in lams)
    assert witness.verify(rows) == verify_by_polys(witness, rows) == nonnegative


def test_forced_rows_meet_what_their_strategies_name():
    """Each forcing strategy lands where its docstring says, on a fixed draw."""
    outcome = assert_resolves_as_the_oracle(RMatrix.from_int_rows([[1], [2, 1], [3, 2, 1], [1, 1, 1, 1]]))
    assert outcome.witness.lambdas == ((2,), (Fraction(3, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3), 0))
    outcome = assert_resolves_as_the_oracle(rank_matrix(chain_poset(4)))
    assert outcome.ok and outcome.witness.lambdas[2] == (1, 0, 0)  # zero pivot, zero target at (2, 1)
    outcome = assert_resolves_as_the_oracle(RMatrix.from_int_rows([[1], [1, 1], [1, 1, 1], [1, 2, 1, 1]]))
    assert (outcome.position, outcome.zero_pivot) == ((2, 1), True)  # zero pivot, nonzero target
    outcome = assert_resolves_as_the_oracle(RMatrix.from_int_rows([[1], [3, 1], [7, 2, 1]]))
    assert outcome.obstruction == "negative multiplier" and outcome.position == (1, 1)
    outcome = assert_resolves_as_the_oracle(RMatrix.from_int_rows([[1], [10**30, 1]]))
    assert outcome.witness.lambdas == ((10**30,),)


@pytest.mark.parametrize("m", [1, 2, 4, 64])
def test_dowling_rows_resolve_as_the_oracle(m):
    for N in (0, 1, 2, 3, 5, 9, 16, 31, 64):
        assert assert_resolves_as_the_oracle(dowling_rows(m, N)).ok


def test_boolean_truncation_and_stacked_rows_resolve_as_the_oracle():
    booleans = [rank_matrix(boolean_lattice(n)) for n in range(1, 11)]
    truncations = [rank_matrix(truncated_boolean(n, k)) for n in range(2, 8) for k in range(n - 1)]
    for rows in booleans + truncations:
        assert assert_resolves_as_the_oracle(rows).ok
    parts = booleans[:4] + truncations[:6] + [rank_matrix(chain_poset(3)), dowling_rows(2, 4)]
    for lower in parts:
        for upper in parts:
            assert_resolves_as_the_oracle(ordinal_sum_rows(lower, upper))


@pytest.fixture
def made(monkeypatch):
    """The ExactPoly objects made from here on, in order."""
    made = []
    init = ExactPoly.__init__

    def counted(self, coeffs=()):
        made.append(self)
        init(self, coeffs)

    monkeypatch.setattr(ExactPoly, "__init__", counted)
    return made


def test_resolve_and_chain_polys_build_exactpoly_objects_only_for_their_results(made):
    """A certificate is its multipliers, so neither it nor an obstruction
    makes a polynomial; the chain polynomials make N + 1."""
    N = 16
    rows = dowling_rows(4, N)
    failing = [
        RMatrix.from_int_rows([[1], [1, 1], [1, 3, 1], [1, 2, 3, 1]]),  # a negative multiplier
        rank_matrix(quasi_uniform_13()),  # a zero pivot under a nonzero target
    ]
    made.clear()
    assert resolve(rows).ok
    assert made == []
    for bad in failing:
        made.clear()
        assert not resolve(bad).ok
        assert made == []
    made.clear()
    chain_polys_from_rmatrix(rows)
    assert len(made) <= N + 1


def test_verify_builds_no_exactpoly_objects(made):
    rows = dowling_rows(4, 16)
    witness = resolve(rows).witness
    made.clear()
    assert witness.verify(rows)
    assert made == []


# -- chain polynomials from rows ------------------------------------------------


def test_chain_polys_boolean():
    rows = rank_matrix(boolean_lattice(3))
    ps = chain_polys_from_rmatrix(rows)
    assert ps[1] == ExactPoly((0, 1))
    assert ps[2] == ExactPoly((0, 1, 2))
    assert ps[3] == ExactPoly((0, 1, 6, 6))
    assert ps[3] == boolean_lattice(3).bounded_chain_polynomial(7)
    for n in range(1, 4):
        assert ps[n].coefficient(0) == 0


def test_chain_polys_match_interval_counts():
    """Row recursion output equals bottom-to-x chain counts on uniform posets."""
    instances = [
        boolean_lattice(4),
        truncated_boolean(5, 2),
        quasi_uniform_13(),
        chain_poset(5),
    ]
    for p in instances:
        ok, rows = is_quasi_rank_uniform(p)
        assert ok
        ps = chain_polys_from_rmatrix(rows)
        for x in range(p.n):
            n = p.rho(x)
            if n >= 1:
                assert ps[n] == p.bounded_chain_polynomial(x)


def test_subdivision_operator():
    rows = rank_matrix(boolean_lattice(3))
    assert subdivision_operator(rows, ExactPoly((1,))) == ExactPoly((1,))
    assert subdivision_operator(rows, ExactPoly.monomial(2)) == ExactPoly((0, 1, 2))
    ps = chain_polys_from_rmatrix(rows)
    assert subdivision_operator(rows, ExactPoly((0, 2, 3))) == 2 * ps[1] + 3 * ps[2]
    with pytest.raises(ValueError):
        subdivision_operator(rows, ExactPoly.monomial(9))


# -- stacked rows ----------------------------------------------------------------


def test_ordinal_sum_rows_two_chains():
    rows = rank_matrix(chain_poset(2))
    stacked = ordinal_sum_rows(rows, rows)
    assert [r.to_string() for r in stacked.rows] == ["1", "1 1", "1 1 1", "1 1 1 1"]
    assert stacked.rows == rank_matrix(chain_poset(4)).rows
    assert resolve(stacked).ok


def test_ordinal_sum_rows_match_stacked_poset():
    for left, right in [
        (boolean_lattice(2), truncated_boolean(4, 1)),
        (truncated_boolean(4, 1), boolean_lattice(3)),
        (chain_poset(3), boolean_lattice(2)),
    ]:
        stacked = left.ordinal_sum(right)
        assert rank_matrix(stacked).rows == ordinal_sum_rows(rank_matrix(left), rank_matrix(right)).rows


def test_ordinal_sum_rows_with_top_removed():
    """Rank-selection corollary: dropping the old top or bottom keeps resolvability."""
    left, right = boolean_lattice(3), truncated_boolean(4, 1)
    no_top = left.rank_selected(set(range(left.quasi_rank)))
    combos = [
        left.ordinal_sum(right),
        no_top.ordinal_sum(right),
        no_top.ordinal_sum(right.rank_selected(set(range(1, right.quasi_rank + 1)))),
    ]
    for p in combos:
        rows = rank_matrix(p)
        assert resolve(rows).ok


def test_ordinal_sum_rows_rejects_bad_constant_term():
    rows = rank_matrix(boolean_lattice(2))
    bad = RMatrix.from_int_rows([[1], [2, 1]])
    with pytest.raises(ValueError, match="constant"):
        ordinal_sum_rows(rows, bad)


def test_truncation_rows_resolve_with_unit_interval_roots():
    for n in range(2, 8):
        for k in range(0, n - 1):
            rows = rank_matrix(truncated_boolean(n, k))
            outcome = resolve(rows)
            assert outcome.ok, (n, k, outcome.describe())
            ps = chain_polys_from_rmatrix(rows)
            for a, b in zip(ps, ps[1:]):
                assert interlaces(a, b)
            for pn in ps[1:]:
                assert is_real_rooted(pn) and roots_in_interval(pn, -1, 0)


# -- predicates --------------------------------------------------------------------


def test_lattice_predicates_on_boolean():
    b4 = boolean_lattice(4)
    assert b4.is_lattice and is_semimodular(b4) and is_modular(b4)
    assert is_atomistic(b4) and is_geometric(b4)


def test_pentagon_is_not_semimodular():
    n5 = pentagon()
    assert n5.is_lattice
    assert not is_semimodular(n5)
    with pytest.raises(ValueError, match="lattice"):
        is_semimodular(nonuniform_5())


def test_affine_lattice_is_geometric_not_modular():
    a23 = affine_lattice(2, 3)
    assert is_geometric(a23)
    assert not is_modular(a23)
    assert is_triangular(a23)


def test_triangular_examples():
    assert is_triangular(boolean_lattice(4))
    assert is_triangular(subspace_lattice(3, 2))
    assert is_triangular(truncated_boolean(5, 2))
    assert not is_triangular(vamos_lattice())
    with pytest.raises(ValueError, match="ungraded"):
        is_triangular(quasi_uniform_13())


def assert_profiles_match_the_walks(p, rng: random.Random) -> None:
    """Level-mask popcounts against the element-by-element walks: R(P) and
    its verdict, triangularity where defined, and Mobius inversion on up to
    twenty comparable pairs of a non-lattice."""
    ok, rmat = is_quasi_rank_uniform(p)
    rows = quasi_rank_rows_by_walk(p)
    assert ok == (rows is not None)
    if ok:
        assert tuple(r.coeffs for r in rmat.rows) == rows
    if _is_graded(p):
        assert is_triangular(p) == triangular_by_walk(p)
    if not p.is_lattice:
        pairs = [(x, y) for y in range(p.n) for x in p.down_set(y)]
        for x, y in rng.sample(pairs, min(20, len(pairs))):
            assert incidence_R(p, x, y) == mobius_R_by_walk(p, x, y)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 58), st.booleans())
def test_rank_profiles_match_the_walk_oracles(rng, n, bounded):
    p = random_bounded(rng, n) if bounded else with_bounds(random_poset(rng, n))
    assert_profiles_match_the_walks(p, rng)


@pytest.mark.parametrize(
    "p",
    [
        boolean_lattice(5),
        subspace_lattice(3, 2),
        affine_lattice(2, 3),
        truncated_boolean(5, 2),
        partition_lattice(5),
        partition_lattice(5).dual(),
        vamos_lattice(),
        quasi_uniform_13(),
        rank_uniform_tower_13(),
        nonuniform_5(),
        pentagon(),
    ],
)
def test_rank_profiles_match_the_walk_oracles_on_families(p):
    assert_profiles_match_the_walks(p, random.Random(0))


def test_perfect_matroid_design_equivalence():
    """On geometric lattices triangularity and rank uniformity coincide."""
    geometric = [
        boolean_lattice(3),
        boolean_lattice(4),
        truncated_boolean(5, 1),
        subspace_lattice(3, 2),
        affine_lattice(2, 3),
        partition_lattice(4),
        vamos_lattice(),
    ]
    for lat in geometric:
        try:
            tri = is_triangular(lat)
        except ValueError:
            tri = None
        if tri is not None:
            assert tri == is_perfect_matroid_design(lat)
    with pytest.raises(ValueError):
        is_perfect_matroid_design(pentagon())


def test_partition_lattice_dual_rows_match_trivial_group_rows():
    for n in (3, 4, 5):
        ok, rows = is_quasi_rank_uniform(partition_lattice(n).dual())
        assert ok
        assert rows.rows == dowling_rows(1, n - 1).rows
        assert resolve(rows).ok


# -- the incidence rank function -------------------------------------------------------


def test_incidence_bottom_identity():
    for p in (boolean_lattice(3), truncated_boolean(4, 1), partition_lattice(4)):
        bottom = p.least
        for y in range(p.n):
            assert incidence_R(p, bottom, y) == ExactPoly.monomial(p.rho(y))


def test_incidence_join_fiber_example():
    b3 = boolean_lattice(3)
    # z with z join {1} = {1,2,3}: the sets {2,3} and {1,2,3}
    assert incidence_R(b3, 1, 7) == ExactPoly((0, 0, 1, 1))


def test_incidence_methods_agree_on_lattices():
    for p in (boolean_lattice(3), truncated_boolean(4, 1), partition_lattice(4)):
        for x in range(p.n):
            for y in range(p.n):
                if p.leq(x, y):
                    assert incidence_R(p, x, y) == incidence_R_by_join_fiber(p, x, y)


@pytest.mark.parametrize(
    "p",
    [boolean_lattice(4), subspace_lattice(3, 2), partition_lattice(5), truncated_boolean(5, 2), vamos_lattice()],
)
def test_incidence_R_matches_the_join_fiber_oracle(p):
    table = incidence_R_table(p)
    for y in range(p.n):
        for x in p.down_set(y):
            expected = incidence_R_by_join_fiber(p, x, y)
            assert incidence_R(p, x, y) == expected
            assert table[(x, y)] == expected


def test_incidence_on_non_lattices_by_mobius_inversion():
    two_tops = nonuniform_5()  # elements 3 and 4 are incomparable maxima over shared atoms
    assert not two_tops.is_lattice
    assert incidence_R(two_tops, 0, 4) == ExactPoly.monomial(2)


def test_incidence_divisibility_bounds():
    """Semimodular: t^(gap) divides; geometric: t^(gap+1) does not."""
    for p in (boolean_lattice(4), subspace_lattice(3, 2), partition_lattice(4)):
        table = incidence_R_table(p)
        for (x, y), poly in table.items():
            gap = p.rho(y) - p.rho(x)
            assert all(poly.coefficient(i) == 0 for i in range(gap))
            assert poly.coefficient(gap) != 0


def test_incidence_rank_only_dependence_on_triangular_lattices():
    for p in (boolean_lattice(4), subspace_lattice(3, 2), truncated_boolean(5, 2)):
        table = incidence_R_table(p)
        by_signature = {}
        for (x, y), poly in table.items():
            key = (p.rho(x), p.rho(y))
            assert by_signature.setdefault(key, poly) == poly


def test_cover_recursion_reports():
    for p in (boolean_lattice(3), truncated_boolean(4, 1), partition_lattice(4)):
        report = check_cover_recursion(p)
        assert report.ok, report.witness
    bad = check_cover_recursion(pentagon())
    assert bad.verdict == "error"


def test_interlacing_toward_truncation():
    """Chain polynomial below a co-atom interlaces that of the truncation."""
    for p in (boolean_lattice(4), truncated_boolean(5, 1), subspace_lattice(3, 2)):
        d = p.quasi_rank - 1
        trunc = p.truncate()
        c_trunc = trunc.chain_polynomial()
        for h in range(p.n):
            if p.rho(h) == d:
                c_h = down_poset(p, h).chain_polynomial()
                assert interlaces(c_h, c_trunc)
