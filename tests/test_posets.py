import ast
import random
import threading
from math import factorial, prod
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from latchain import (
    DPartition,
    ExactPoly,
    Poset,
    boolean_lattice,
    brute_force_oracle,
    build_instance,
    chain_poset,
    diamond_product,
    is_geometric,
    is_quasi_rank_uniform,
    paving_lattice_from_dpartition,
    poset_from_text,
    poset_to_text,
    rank_matrix,
    truncated_boolean,
)
from latchain import suites, tn
from latchain.posets import _bits, is_isomorphic
from latchain.suites import rank3_formula
from helpers import (
    antichain,
    assert_flags_give_rank_selections,
    bounded_chain_polynomial_by_interval,
    bounded_corpus,
    chain_counts_by_walk,
    chain_fields_by_pairs,
    chain_polynomial_by_dp,
    derivations,
    flag_f_vector_by_dicts,
    is_triangular,
    isomorphic_by_backtracking,
    levels_by_rho,
    mobius,
    multichains_by_walk,
    pentagon,
    poset_by_pair_filter,
    quasi_rank_rows_by_walk,
    quasi_uniform_13,
    random_bounded,
    random_poset,
    relations_passed,
    small_corpus,
    strict_down_poset,
    with_bounds,
    zeta_polynomial,
)

ONE_PLUS_T = ExactPoly((1, 1))


def test_chain_polynomial_examples():
    assert boolean_lattice(2).chain_polynomial() == ExactPoly((1, 4, 5, 2))
    # rank-1 geometric lattice is a two-element chain
    assert chain_poset(2).chain_polynomial() == ONE_PLUS_T**2
    # rank-2 geometric lattice with m co-atoms
    for m in (2, 3, 5):
        lat = truncated_boolean(m, m - 2)
        expected = ExactPoly((1, m)) * ONE_PLUS_T**2
        assert lat.chain_polynomial() == expected


def test_chain_polynomial_against_oracle_corpus():
    for p in small_corpus():
        if p.n <= 12:
            assert tuple(p.chain_polynomial().coeffs) == brute_force_oracle(p)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 60), st.booleans())
def test_packed_chain_counts_match_the_coefficient_dp(rng, n, bounded):
    p = random_bounded(rng, max(n - 2, 0)) if bounded else random_poset(rng, n)
    assert p.chain_polynomial() == chain_polynomial_by_dp(p)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 24), st.booleans())
def test_packed_flag_counts_match_the_rank_set_dicts(rng, n, bounded):
    p = random_bounded(rng, max(n - 2, 0)) if bounded else random_poset(rng, n)
    alpha = p.flag_f_vector()
    assert alpha == flag_f_vector_by_dicts(p)
    # every rank set occurs: subsets of a longest chain up to its top's rank
    assert len(alpha) == (1 << (p.quasi_rank + 1) if p.n else 1)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 8, 63, 64, 65, 200])
def test_chain_counts_fill_the_packing_bound_on_chains(k):
    # every subset of a k-chain is a chain: 2^k in all, the product of (1 + 1) per level;
    # the bound has 8 bits at k = 7 and 9 at k = 8, one field byte and two
    assert chain_poset(k).chain_polynomial() == ONE_PLUS_T**k
    if k <= 8:
        # rank r is element r, so each rank set is the one chain on its elements
        assert chain_poset(k).flag_f_vector() == {mask: 1 for mask in range(1 << k)}


@pytest.mark.parametrize("k", [0, 1, 7, 63, 64, 254, 255, 256])
def test_chain_counts_fill_the_packing_bound_on_antichains(k):
    # the empty chain and k singletons: k + 1, the bound of one level of size k;
    # 255 fits one field byte at k = 254, 256 needs two at k = 255, and at
    # k = 256 the count of singletons itself needs the second byte
    assert antichain(k).chain_polynomial() == ExactPoly((1, k))
    assert antichain(k).flag_f_vector() == ({0: 1, 1: k} if k else {0: 1})


@pytest.mark.parametrize("a, b", [(1, 1), (2, 3), (5, 4), (12, 12)])
def test_chain_counts_of_a_product_of_chains(a, b):
    p = chain_poset(a).direct_product(chain_poset(b))
    assert p.chain_polynomial() == chain_polynomial_by_dp(p)
    if p.n <= 12:
        assert tuple(p.chain_polynomial().coeffs) == brute_force_oracle(p)


def test_chain_counts_of_b12_from_its_flag_counts():
    """A chain of B_n with rank set r_1 < ... < r_j is counted by the
    multinomial n! / (r_1! (r_2 - r_1)! ... (n - r_j)!): the chain counts
    of B_12 and every flag count of B_8."""

    def flag_counts(n):
        for mask in range(1 << (n + 1)):
            ranks = [r for r in range(n + 1) if mask >> r & 1]
            steps = [b - a for a, b in zip([0] + ranks, ranks + [n])]
            yield mask, len(ranks), factorial(n) // prod(map(factorial, steps))

    coeffs = [0] * 14
    for _, size, count in flag_counts(12):
        coeffs[size] += count
    assert boolean_lattice(12).chain_polynomial() == ExactPoly(coeffs)
    assert boolean_lattice(8).flag_f_vector() == {mask: count for mask, _, count in flag_counts(8)}


def test_rank_polynomial_of_reference_poset():
    p = quasi_uniform_13()
    assert p.quasi_rank_generating_polynomial() == ExactPoly((1, 6, 4, 2))
    assert boolean_lattice(3).quasi_rank_generating_polynomial() == ONE_PLUS_T**3
    assert chain_poset(1).quasi_rank_generating_polynomial() == ExactPoly((1,))


def test_rank_polynomial_requires_bottom():
    two_min = Poset(3, [(0, 2), (1, 2)])
    with pytest.raises(ValueError):
        two_min.quasi_rank_generating_polynomial()


def test_rank_selection_and_truncation():
    b3 = boolean_lattice(3)
    assert is_isomorphic(b3.rank_selected(range(4)), b3)
    paving = b3.rank_selected({0, 1, 3})
    assert paving.n == 5
    assert is_isomorphic(paving, truncated_boolean(3, 1))
    assert is_isomorphic(b3.truncate(), truncated_boolean(3, 1))
    empty = b3.rank_selected({9})
    assert empty.n == 0 and empty.chain_polynomial() == ExactPoly((1,))


def test_flag_f_vector_gives_every_rank_selection():
    """Graded, quasi-rank uniform and non-graded posets (the pentagon and
    random ones): each selection's sum against its built subposet, and the
    whole sum against the brute-force chain walker."""
    for p in small_corpus() + bounded_corpus():
        assert_flags_give_rank_selections(p)


def test_flag_f_vector_examples():
    # B_2: the empty chain, 1 bottom, 2 atoms, 1 top, then chains by rank set
    assert boolean_lattice(2).flag_f_vector() == {
        0b000: 1, 0b001: 1, 0b010: 2, 0b100: 1, 0b011: 2, 0b101: 1, 0b110: 2, 0b111: 2
    }
    # pentagon: the long side's middle elements have quasi-ranks 1 and 2
    assert pentagon().flag_f_vector() == {
        0b0000: 1, 0b0001: 1, 0b0010: 2, 0b0100: 1, 0b1000: 1,
        0b0011: 2, 0b0101: 1, 0b1001: 1, 0b0110: 1, 0b1010: 2, 0b1100: 1,
        0b0111: 1, 0b1011: 2, 0b1101: 1, 0b1110: 1, 0b1111: 1,
    }
    assert Poset(0).flag_f_vector() == {0: 1}


def test_dual():
    for p in small_corpus():
        assert p.chain_polynomial() == p.dual().chain_polynomial()
    assert is_isomorphic(boolean_lattice(2).dual(), boolean_lattice(2))
    d3 = chain_poset(3).dual()
    assert is_isomorphic(d3, chain_poset(3))
    p = quasi_uniform_13()
    assert is_isomorphic(p.dual().dual(), p)


def test_ordinal_sum():
    assert is_isomorphic(chain_poset(1).ordinal_sum(chain_poset(1)), chain_poset(2))
    rng = random.Random(5)
    for _ in range(6):
        a, b = random_poset(rng, 6), random_poset(rng, 6)
        s = a.ordinal_sum(b)
        assert tuple(s.chain_polynomial().coeffs) == brute_force_oracle(s)
        assert s.n == a.n + b.n


def test_direct_product():
    b1 = boolean_lattice(1)
    assert is_isomorphic(b1.direct_product(b1), boolean_lattice(2))
    rng = random.Random(6)
    for _ in range(4):
        a, b = random_poset(rng, 4), random_poset(rng, 3)
        prod = a.direct_product(b)
        assert prod.n == a.n * b.n
        assert tuple(prod.chain_polynomial().coeffs) == brute_force_oracle(prod)


def test_mobius():
    b3 = boolean_lattice(3)
    for x in range(b3.n):
        assert mobius(b3, x, x) == 1
    for n in range(1, 5):
        bn = boolean_lattice(n)
        assert mobius(bn, 0, bn.n - 1) == (-1) ** n
    assert mobius(chain_poset(3), 0, 2) == 0
    with pytest.raises(ValueError):
        mobius(boolean_lattice(2), 1, 2)


def test_mobius_zeta_inverse():
    for p in small_corpus():
        if p.n > 10:
            continue
        for x in range(p.n):
            for y in range(p.n):
                if p.leq(x, y):
                    total = sum(mobius(p, x, z) for z in p.up_set(x) if p.leq(z, y))
                    assert total == (1 if x == y else 0)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 25), st.booleans())
def test_mobius_is_philip_halls_alternating_chain_count(rng, n, bounded):
    """mu(x, y) = sum_j (-1)^j c_j, with c_j the chains x = z_0 < ... < z_j = y."""
    p = with_bounds(random_poset(rng, n - 2)) if bounded and n >= 2 else random_poset(rng, n)
    assume(not p.is_lattice)
    for y in range(p.n):
        for x in p.down_set(y):
            counts = chain_counts_by_walk(p, x, y)
            assert mobius(p, x, y) == sum((-1) ** j * c for j, c in enumerate(counts))


def test_zeta_polynomial_counts_multichains():
    for p in bounded_corpus() + [chain_poset(1)]:
        z = zeta_polynomial(p)
        for n in range(5):
            assert z(n) == multichains_by_walk(p, n)


def test_zeta_polynomial():
    assert zeta_polynomial(chain_poset(2)) == ExactPoly((0, 1))
    # 1 + 2 * C(n, 2) + n ... the square lattice counts n^2 multichains
    assert zeta_polynomial(boolean_lattice(2)) == ExactPoly((0, 0, 1))
    for p in bounded_corpus():
        assert zeta_polynomial(p)(1) == 1


def test_zeta_multiplicative_on_products():
    rng = random.Random(7)
    pairs = [(boolean_lattice(2), chain_poset(3))]
    from helpers import random_bounded

    pairs += [(random_bounded(rng, rng.randint(0, 4)), random_bounded(rng, rng.randint(0, 4))) for _ in range(6)]
    for a, b in pairs:
        assert zeta_polynomial(a.direct_product(b)) == zeta_polynomial(a) * zeta_polynomial(b)


def test_p_polynomial():
    assert chain_poset(2).p_polynomial() == ExactPoly((0, 1))
    assert boolean_lattice(2).p_polynomial() == ExactPoly((0, 1, 2))
    with pytest.raises(ValueError):
        chain_poset(1).p_polynomial()
    # t * c = (1 + t)^2 * p on every bounded corpus poset
    for p in bounded_corpus():
        if p.n < 2:
            continue
        assert p.chain_polynomial().shift(1) == ONE_PLUS_T**2 * p.p_polynomial()


def _with_least(rng: random.Random, n: int, top: bool) -> Poset:
    """A random poset under a new least element, and a new greatest one
    with ``top``, its elements renamed so that index order is seldom a
    linear extension; random posets are seldom graded."""
    base = random_poset(rng, n)
    rels = list(base.covers) + [(n, x) for x in range(n)]
    if top:
        rels += [(x, n + 1) for x in range(n + 1)]
    size = n + 1 + top
    name = rng.sample(range(size), size)
    return Poset(size, [(name[x], name[y]) for x, y in rels])


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 12), st.booleans(), st.booleans())
def test_bounded_chain_polynomial_against_the_interval_subposet(rng, n, top, dual):
    """The element program on the open interval's mask against the chain
    polynomial of that interval built as a subposet, at every x, the least
    element included: on renamed front-door posets, which have descending
    pairs, and on the duals of bounded ones, walked in reversed order."""
    p = _with_least(rng, n, top or dual)
    if dual:
        p = p.dual()
    for x in range(p.n):
        assert p.bounded_chain_polynomial(x) == bounded_chain_polynomial_by_interval(p, x)


def test_bounded_chain_polynomial_on_the_corpus_and_uniform_lattices():
    """Uniform lattices lose the level shortcut on intervals; their counts must not change."""
    corpus = bounded_corpus() + [boolean_lattice(4), truncated_boolean(5, 1), build_instance("partition:4")]
    corpus += [q.dual() for q in corpus]
    for q in corpus:
        for x in range(q.n):
            assert q.bounded_chain_polynomial(x) == bounded_chain_polynomial_by_interval(q, x)
    with pytest.raises(ValueError, match="out of range"):
        boolean_lattice(2).bounded_chain_polynomial(4)
    with pytest.raises(ValueError, match="out of range"):
        boolean_lattice(2).bounded_chain_polynomial(-1)
    with pytest.raises(ValueError, match="no least element"):
        antichain(2).bounded_chain_polynomial(0)


def test_diamond_check_builds_no_subposet():
    """The diamond suite counts bottom-to-top chains on masks: it passes
    with subposet extraction switched off."""
    with mock.patch.object(Poset, "induced", side_effect=AssertionError("a subposet was built")):
        for i in range(50):
            assert suites._check_diamond(f"product-pair:seed=1:i={i:02d}", 1, {})


def test_diamond_product_matches_products():
    rng = random.Random(8)
    from helpers import random_bounded

    for _ in range(10):
        a, b = random_bounded(rng, rng.randint(0, 4)), random_bounded(rng, rng.randint(0, 4))
        assert a.direct_product(b).p_polynomial() == diamond_product(a.p_polynomial(), b.p_polynomial())


def test_level_split_identity():
    """Chains either avoid the top level or pass through exactly one element of it."""
    for q in small_corpus():
        if q.least is None or q.n < 2:
            continue
        n = q.quasi_rank
        if n == 0:
            continue
        lower = q.rank_selected(set(range(n)))
        acc = lower.chain_polynomial()
        for h in range(q.n):
            if q.rho(h) == n:
                acc = acc + strict_down_poset(q, h).chain_polynomial().shift(1)
        assert acc == q.chain_polynomial()


def test_transitive_reduction_of_redundant_input():
    p = Poset(3, [(0, 1), (1, 2), (0, 2)])
    assert p.covers == ((0, 1), (1, 2))


def test_cycle_rejection_and_bad_index():
    with pytest.raises(ValueError, match="cycle"):
        Poset(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        Poset(2, [(0, 5)])
    with pytest.raises(ValueError):
        Poset(2, [(1, 1)])


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda p: p.induced([5]), 5),
        (lambda p: p.induced([0, -1, 2]), -1),
        (lambda p: p.induced(range(4)), 3),
        (lambda p: p.interval(0, 3), 3),
        (lambda p: p.interval(-1, 2), -1),
        (lambda p: p.open_interval(7, 1), 7),
        (lambda p: p.open_interval(0, -2), -2),
        (lambda p: p.join(-1, 1), -1),
        (lambda p: p.join(1, 3), 3),
        (lambda p: p.meet(-1, 2), -1),
        (lambda p: p.meet(3, 0), 3),
    ],
)
def test_subposet_operations_name_a_bad_index(call, bad):
    with pytest.raises(ValueError, match=f"^element index {bad} out of range for 3 elements$"):
        call(chain_poset(3))


_FIELDS = ("covers", "_down", "_up", "_rho", "_cover_down", "_cover_up", "least", "greatest")


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _fields(p: Poset) -> dict:
    return {name: getattr(p, name) for name in _FIELDS}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_constructor_matches_the_pair_filter_oracle(data):
    """Every field against the old constructor, on relations with repeated and
    redundant pairs in shuffled order; elements outside every pair stay isolated.
    Half the examples name the elements by index, so every pair goes up in
    index order; the rest by a random permutation, so most pairs do not."""
    n = data.draw(st.integers(0, 14))
    by_index = data.draw(st.booleans())
    name = range(n) if by_index else data.draw(st.permutations(range(n)))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = {(name[i], name[j]) for i, j in data.draw(st.lists(pairs, max_size=3 * n)) if i < j}
    above = poset_by_pair_filter(n, edges)["_up"]
    closure = sorted((x, y) for x in range(n) for y in _bits(above[x]) if y != x)
    redundant = data.draw(st.lists(st.sampled_from(closure), max_size=2 * n)) if closure else []
    repeated = data.draw(st.lists(st.sampled_from(sorted(edges)), max_size=n)) if edges else []
    relations = data.draw(st.permutations(sorted(edges) + redundant + repeated))
    assert _fields(Poset(n, relations)) == poset_by_pair_filter(n, relations)


@pytest.mark.parametrize(
    "build",
    [lambda: truncated_boolean(5, 1), lambda: boolean_lattice(4).dual()],
    ids=["builder", "dual"],
)
def test_constructor_paths_match_the_pair_filter_oracle(build):
    """A builder passes its covers up in index order and dual() passes them
    down, so the two take different walks to the same fields."""
    p = build()
    assert _fields(Poset(p.n, p.covers)) == _fields(p) == poset_by_pair_filter(p.n, p.covers)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_constructor_errors_match_the_pair_filter_oracle(data):
    """Out-of-range, reflexive and cyclic input in any order: the same error."""
    n = data.draw(st.integers(-1, 6))
    index = st.integers(-1, max(n, 0))
    relations = data.draw(st.lists(st.tuples(index, index), max_size=12))

    def fields(n, relations):
        return _fields(Poset(n, relations))

    assert _outcome(fields, n, relations) == _outcome(poset_by_pair_filter, n, relations)


@pytest.mark.parametrize(
    "relations, message",
    [
        # the first bad pair in input order wins, out of range or reflexive
        ([(0, 1), (0, 5), (1, 1)], r"^relation index out of range: \(0, 5\)$"),
        ([(0, 1), (1, 1), (0, 5)], r"^reflexive relation pair \(1, 1\)$"),
        ([(-1, 0), (2, 2)], r"^relation index out of range: \(-1, 0\)$"),
        # a cycle is reported only once every pair has passed
        ([(0, 1), (1, 0), (2, 2)], r"^reflexive relation pair \(2, 2\)$"),
        ([(0, 1), (1, 0), (0, 3)], r"^relation index out of range: \(0, 3\)$"),
        ([(0, 1), (1, 2), (2, 0), (0, 2), (0, 1)], r"^relation contains a cycle$"),
    ],
)
def test_constructor_error_precedence(relations, message):
    with pytest.raises(ValueError, match=message):
        Poset(3, relations)
    with pytest.raises(ValueError, match=message):
        poset_by_pair_filter(3, relations)


def _assert_induced_by_pairs(p: Poset, q: Poset, keep) -> None:
    """q is p restricted to keep: the poset of every comparable kept pair."""
    keep = sorted(keep)
    index = {x: i for i, x in enumerate(keep)}
    pairs = [(index[x], index[y]) for x in keep for y in keep if x != y and p.leq(x, y)]
    expected = Poset(len(keep), pairs, [p.labels[x] for x in keep])
    assert _fields(q) == _fields(expected) and q.labels == expected.labels


def _labelled_random_poset(rng: random.Random, n: int) -> Poset:
    """A random poset, rarely graded, so a kept cover can lie two quasi-ranks up."""
    p = random_poset(rng, n)
    return Poset(n, p.covers, [f"e{x}" for x in range(n)])


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 24), st.data())
def test_induced_subposets_are_built_from_their_covers(rng, n, data):
    p = _labelled_random_poset(rng, n)
    keep = data.draw(st.sets(st.integers(0, n - 1)))
    x, y = data.draw(st.sampled_from([(x, y) for x in range(n) for y in p.up_set(x)]))
    ranks = data.draw(st.sets(st.integers(0, p.quasi_rank), min_size=1))
    top = p.quasi_rank
    truncated = {*range(top - 1), top}  # every rank but top - 1
    cases = [
        (lambda: p.induced(keep), keep),
        (p.truncate, [z for z in range(n) if p.rho(z) in truncated]),
        (lambda: p.interval(x, y), [z for z in range(n) if p.leq(x, z) and p.leq(z, y)]),
        (lambda: p.rank_selected(ranks), [z for z in range(n) if p.rho(z) in ranks]),
    ]
    for build, kept in cases:
        with relations_passed() as passed:
            q = build()
        assert sorted(passed[-1]) == list(q.covers)
        _assert_induced_by_pairs(p, q, kept)


def _assert_core_matches_both_oracles(q: Poset, relations) -> None:
    """q came from the core: its fields are those the pair-filter oracle finds
    from ``relations``, and the front door rebuilds them from q's covers,
    labels included."""
    front = Poset(q.n, q.covers, q.labels)
    assert _fields(q) == poset_by_pair_filter(q.n, relations) == _fields(front)
    assert front.labels == q.labels


_BUILT_FROM_COVERS = (
    [f"boolean:{n}" for n in range(9)]
    + [f"partition:{n}" for n in range(1, 7)]
    + ["chain:0", "chain:1", "chain:5", "trunc-boolean:5:0", "trunc-boolean:6:2"]
    + ["subspace:2:2", "subspace:3:2", "subspace:2:3", "affine:2:2", "affine:3:2", "affine:2:3"]
    + ["vamos", "fano-lattice", "fano-design", "uniform-design:5:3"]
    + ["see:boolean:4:cut=1,2", "see:trunc-boolean:4:1:cut=1", "see:see:boolean:3:cut=none:cut=0"]
)


@pytest.mark.parametrize("dsl", _BUILT_FROM_COVERS)
def test_builders_hand_the_core_what_the_front_door_derives(dsl):
    q = build_instance(dsl)
    _assert_core_matches_both_oracles(q, q.covers)


def _renamed_random_poset(rng: random.Random, n: int) -> Poset:
    """A random labelled poset under a random renaming of its elements, so
    its index order is seldom a linear extension."""
    p = random_poset(rng, n)
    name = rng.sample(range(n), n)
    return Poset(n, [(name[x], name[y]) for x, y in p.covers], [f"e{x}" for x in range(n)])


def _comparable_pairs(p: Poset):
    return [(x, y) for y in range(p.n) for x in _bits(p.down_mask(y)) if x != y]


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 9), st.integers(0, 6), st.data())
def test_structural_operations_hand_the_core_what_the_front_door_derives(rng, n, m, data):
    """Each operation against the oracle fed its defining pairs, on random
    posets, their duals, and products and sums of duals: a dual's index
    order is not a linear extension, so neither is a product's."""
    p, r = _renamed_random_poset(rng, n), _renamed_random_poset(rng, m)
    for a in (p, p.dual()):
        _assert_core_matches_both_oracles(a.dual(), [(y, x) for x, y in a.covers])
        keep = sorted(data.draw(st.sets(st.integers(0, n), max_size=n)) - {n})
        index = {x: i for i, x in enumerate(keep)}
        kept = [(index[x], index[y]) for x, y in _comparable_pairs(a) if x in index and y in index]
        _assert_core_matches_both_oracles(a.induced(keep), kept)
        for b in (r, r.dual()):
            product = [
                (x * m + y, x2 * m + y2)
                for x in range(n)
                for x2 in a.up_set(x)
                for y in range(m)
                for y2 in b.up_set(y)
                if (x, y) != (x2, y2)
            ]
            _assert_core_matches_both_oracles(a.direct_product(b), product)
            stacked = list(a.covers) + [(x + n, y + n) for x, y in b.covers]
            stacked += [(x, y + n) for x in range(n) for y in range(m)]
            _assert_core_matches_both_oracles(a.ordinal_sum(b), stacked)


def test_operations_refuse_results_over_the_element_cap():
    with pytest.raises(ValueError, match="^element count out of range: 8192$"):
        boolean_lattice(7).direct_product(boolean_lattice(6))
    with pytest.raises(ValueError, match="^element count out of range: 5120$"):
        boolean_lattice(12).ordinal_sum(boolean_lattice(10))


def test_text_format_gives_labels_back_as_strings():
    q = poset_from_text(poset_to_text(boolean_lattice(2)))
    assert q.labels == ("frozenset()", "frozenset({1})", "frozenset({2})", "frozenset({1, 2})")
    assert poset_from_text("poset 3\ncover 0 1\nlabel 1 a b\n").labels == ("0", "a b", "2")
    assert poset_from_text("poset 2\ncover 0 1\n").labels is None


def test_label_count_must_match_the_element_count():
    with pytest.raises(ValueError, match="^expected 3 labels, got 1$"):
        Poset(3, [(0, 1)], labels=["a"])
    # a generator is counted after it is read
    assert Poset(2, [(0, 1)], labels=(c for c in "ab")).labels == ("a", "b")


def test_text_format_round_trip(tmp_path):
    p = boolean_lattice(2)
    text = poset_to_text(p)
    assert text.splitlines()[0] == "poset 4"
    q = poset_from_text(text)
    assert q.covers == p.covers
    with pytest.raises(ValueError, match="cycle"):
        poset_from_text("poset 2\ncover 0 1\ncover 1 0\n")
    with pytest.raises(ValueError):
        poset_from_text("poset 2\ncover 0 7\n")
    # indices are checked after the loop, so the header may follow the covers
    assert poset_from_text("cover 0 1\nposet 2\n").covers == ((0, 1),)


@pytest.mark.parametrize(
    "text, message",
    [
        ("poset\n", "line 1: poset needs a value"),
        ("poset 2\nlabel\n", "line 2: label needs a value"),
        ("poset 2\n\nposet 2\n", "line 3: duplicate poset header"),
        ("poset 2 7\ncover 0 1\n", "line 1: poset takes one value"),
        ("poset 3\ncover 0 1 2\n", "line 2: cover needs two indices"),
        ("poset 3\ncover 0\n", "line 2: cover needs two indices"),
        ("poset x\n", "line 1: not an integer: 'x'"),
        ("poset 2\ncover 0 q\n", "line 2: not an integer: 'q'"),
        ("poset 2\n# note\nlabel z a\n", "line 3: not an integer: 'z'"),
        # int() takes other digits and underscores; the integer grammar does not
        ("poset ٣\n", "line 1: not an integer: '٣'"),
        ("poset 2\ncover 0 1_0\n", "line 2: not an integer: '1_0'"),
        ("poset -1\n", "line 1: element count out of range: -1"),
        ("poset 5001\n", "line 1: element count out of range: 5001"),
        ("poset 2\ncover 0 7\n", "line 2: relation index out of range: (0, 7)"),
        ("cover 0 1\ncover -1 0\nposet 2\n", "line 2: relation index out of range: (-1, 0)"),
        ("poset 2\ncover 0 1\n\ncover 1 1\n", "line 4: reflexive relation pair (1, 1)"),
        ("poset 2\nlabel 0 a\nlabel 5 a\n", "line 3: label index out of range: 5"),
        ("poset 2\nlabel 0 a\nlabel 0 b\n", "line 3: duplicate label 0"),
        # past Python's 4300-digit limit: the limit is named, the token not echoed
        pytest.param("poset " + "9" * 5000 + "\n", "line 1: number over the limit of 4300 digits", id="5000-digits"),
        pytest.param("poset 2\ncover 0 " + "x" * 5000 + "\n", "line 2: not an integer: '" + "x" * 199, id="5000-letters"),
    ],
)
def test_poset_text_errors_name_the_line(text, message):
    with pytest.raises(ValueError) as err:
        poset_from_text(text)
    assert str(err.value) == message


def test_isomorphism_negative_cases():
    assert not is_isomorphic(boolean_lattice(2), chain_poset(4))
    a = Poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    b = Poset(4, [(0, 1), (1, 2), (1, 3)])
    assert not is_isomorphic(a, b)


def _relabelled(p: Poset, seed: int) -> Poset:
    """A copy of p built through the front door under a seeded random permutation."""
    perm = list(range(p.n))
    random.Random(seed).shuffle(perm)
    return Poset(p.n, [(perm[x], perm[y]) for x, y in p.covers])


def _disjoint_union(*parts: Poset) -> Poset:
    pairs, offset = [], 0
    for part in parts:
        pairs += [(offset + x, offset + y) for x, y in part.covers]
        offset += part.n
    return Poset(offset, pairs)


def _cycle_incidence(k: int) -> Poset:
    """The height-1 incidence poset of the k-cycle: each vertex below its two edges."""
    return Poset(2 * k, [(v, k + e) for e in range(k) for v in (e, (e + 1) % k)])


def _cycles(*lengths: int) -> Poset:
    return _disjoint_union(*map(_cycle_incidence, lengths))


def _with_relabelled(p: Poset, seed: int = 1):
    return p, _relabelled(p, seed)


_FANO_LINES = ({1, 2, 3}, {1, 4, 5}, {1, 6, 7}, {2, 4, 6}, {2, 5, 7}, {3, 4, 7}, {3, 5, 6})


def _fano_paving_lattice() -> Poset:
    """The rank-4 paving lattice on {1..7} whose hyperplanes, a 3-partition,
    are the 7 Fano lines and their 7 complements: 1 + 7 + 21 + 14 + 1 = 44 flats."""
    ground = frozenset(range(1, 8))
    blocks = [frozenset(line) for line in _FANO_LINES] + [ground - line for line in _FANO_LINES]
    return paving_lattice_from_dpartition(DPartition(tuple(sorted(ground)), tuple(blocks), 3))


@pytest.mark.parametrize(
    "pair, expected",
    [
        pytest.param(lambda: _with_relabelled(boolean_lattice(5)), True, id="B5-relabelled"),
        pytest.param(lambda: _with_relabelled(build_instance("partition:5")), True, id="partition5-relabelled"),
        pytest.param(lambda: _with_relabelled(build_instance("subspace:3:3")), True, id="subspace33-relabelled"),
        pytest.param(lambda: _with_relabelled(build_instance("affine:3:3")), True, id="affine33-relabelled"),
        # symmetric planes and spaces, where splitting a small colour class fails deep and often
        pytest.param(lambda: _with_relabelled(build_instance("subspace:3:7")), True, id="PG27-relabelled"),
        pytest.param(lambda: _with_relabelled(build_instance("affine:2:7")), True, id="AG27-relabelled"),
        pytest.param(lambda: _with_relabelled(build_instance("affine:3:5")), True, id="AG35-relabelled"),
        pytest.param(lambda: _with_relabelled(build_instance("affine:3:7")), True, id="AG37-relabelled"),
        pytest.param(lambda: _with_relabelled(_fano_paving_lattice()), True, id="fano-paving-relabelled"),
        pytest.param(lambda: (_fano_paving_lattice(), _fano_paving_lattice().dual()), False, id="fano-paving-vs-dual"),
        pytest.param(lambda: (_cycles(12), _cycles(6, 6)), False, id="C12-vs-C6+C6"),
        pytest.param(lambda: _with_relabelled(_cycles(6, 6), 2), True, id="C6+C6-relabelled"),
        pytest.param(lambda: (boolean_lattice(10), boolean_lattice(10)), True, id="B10-self"),
        pytest.param(lambda: (antichain(1500), antichain(1500)), True, id="antichain1500-self"),
        # the first candidate for p's vertex 0, on the 12-cycle, lies on a 6-cycle of q
        pytest.param(lambda: (_cycles(12, 6, 6), _cycles(6, 6, 12)), True, id="C12+C6+C6-vs-C6+C6+C12"),
        # the colour multisets differ at once, though B8 alone would branch 8! ways
        pytest.param(
            lambda: (
                _disjoint_union(boolean_lattice(8), chain_poset(3)),
                _disjoint_union(boolean_lattice(8), Poset(3, [(0, 1), (0, 2)])),
            ),
            False,
            id="B8+chain-vs-B8+vee",
        ),
    ],
)
def test_isomorphism_verdict_within_budget(pair, expected):
    p, q = pair()
    result = []
    worker = threading.Thread(target=lambda: result.append(is_isomorphic(p, q)), daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "is_isomorphic still searching after 10 s"
    assert result == [expected]


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 9), st.integers(0, 2**32 - 1))
def test_isomorphism_matches_the_backtracking_oracle(rng, n, seed):
    """Against the old search: a relabelled copy, a relabelled dual, and an
    independent draw of the same size."""
    p = random_poset(rng, n)
    for q in (_relabelled(p, seed), _relabelled(p.dual(), seed), random_poset(rng, n)):
        assert is_isomorphic(p, q) == isomorphic_by_backtracking(p, q)


# -- chain counts on the levels of a uniform poset ------------------------------------


def _counts_by_pairs(p: Poset):
    """The chain polynomial and the flag f-vector by one addition per comparable pair."""
    top = p.quasi_rank
    return (
        ExactPoly(chain_fields_by_pairs(p, [1] * (top + 1))),
        dict(enumerate(chain_fields_by_pairs(p, [1 << r for r in range(top + 1)]))),
    )


def _uniform_ways(p: Poset):
    """Whether p is uniform by level from below and from above."""
    return tuple(p._level_counts(below) is not None for below in (True, False))


def _equal_sizes_other_profiles() -> Poset:
    """Levels 0 and 1 uniform from below (each of b0, b1, b2 covers one of
    a0, a1, a2), and at the top x over b0 and a2, y over b1 and b2: both
    down-sets have four elements, but x's holds two of level 0, y's two of
    level 1."""
    return Poset(8, [(0, 3), (1, 4), (1, 5), (3, 6), (2, 6), (4, 7), (5, 7)])


def _graded_equal_sizes_other_profiles() -> Poset:
    """A graded near miss: b0, b1, b2 each over a0, a1, a2, and b3, b4 over
    a3, a4, a5 and a4, a5, a6; x over b0, b1, b2 has three elements of each
    level below it, y over b3, b4 four of level 0 and two of level 1. Its
    dual has equal up-set sizes per level and different up-set profiles."""
    covers = [(a, b) for b in (7, 8, 9) for a in (0, 1, 2)]
    covers += [(a, 10) for a in (3, 4, 5)] + [(a, 11) for a in (4, 5, 6)]
    return Poset(14, covers + [(7, 12), (8, 12), (9, 12), (10, 13), (11, 13)])


def _uniform_but_the_top() -> Poset:
    """B3 without its top, under two tops: one over all three coatoms, one over two."""
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (1, 5), (3, 5), (2, 6), (3, 6)]
    return Poset(9, covers + [(4, 7), (5, 7), (6, 7), (4, 8), (5, 8)])


def _uniform_from_below_only() -> Poset:
    """Three atoms over a bottom and two rank-2 elements, over atoms 1, 2 and
    over atoms 2, 3: every down-set alike by level, but atom 2 lies under both."""
    return Poset(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5)])


_UNIFORMITY_CASES = [
    pytest.param(_equal_sizes_other_profiles, (False, False), id="equal-sizes-other-profiles"),
    pytest.param(_graded_equal_sizes_other_profiles, (False, False), id="graded-equal-sizes"),
    pytest.param(lambda: _graded_equal_sizes_other_profiles().dual(), (False, False), id="graded-equal-sizes-dual"),
    pytest.param(lambda: with_bounds(_equal_sizes_other_profiles()), (False, False), id="equal-sizes-bounded"),
    pytest.param(_uniform_but_the_top, (False, False), id="uniform-but-the-top"),
    pytest.param(_uniform_from_below_only, (True, False), id="from-below-only"),
    pytest.param(lambda: _uniform_from_below_only().dual(), (False, True), id="from-above-only"),
    pytest.param(lambda: build_instance("partition:4"), (False, True), id="partition4"),
    pytest.param(lambda: build_instance("vamos"), (False, False), id="vamos"),
    pytest.param(lambda: boolean_lattice(3), (True, True), id="B3"),
    # the empty poset's one level holds no element
    pytest.param(lambda: Poset(0), (True, True), id="empty"),
    pytest.param(lambda: Poset(1), (True, True), id="one"),
    pytest.param(lambda: antichain(5), (True, True), id="antichain5"),
    pytest.param(lambda: chain_poset(6), (True, True), id="chain6"),
]


@pytest.mark.parametrize("make, ways", _UNIFORMITY_CASES)
def test_uniformity_cases_count_every_chain(make, ways):
    p = make()
    assert _uniform_ways(p) == ways
    assert (p.chain_polynomial(), p.flag_f_vector()) == _counts_by_pairs(p)
    if p.n <= 12:
        assert tuple(p.chain_polynomial().coeffs) == brute_force_oracle(p)
    if p.least is not None:
        ok, rows = is_quasi_rank_uniform(p)
        assert ok == ways[0]
        assert (tuple(tuple(row.coeffs) for row in rows.rows) if ok else None) == quasi_rank_rows_by_walk(p)


_FAMILIES = (
    "boolean:0", "boolean:1", "boolean:3", "boolean:5", "partition:3", "partition:5",
    "trunc-boolean:5:1", "trunc-boolean:6:2", "subspace:2:2", "subspace:3:2", "affine:2:3",
    "vamos", "fano-lattice", "fano-design", "uniform-design:5:2", "chain:4",
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chain_counts_match_the_pair_program_on_families(data):
    """The family builders in range, their duals, products, ordinal sums,
    proper parts and rank selections."""
    p = build_instance(data.draw(st.sampled_from(_FAMILIES)))
    other = build_instance(data.draw(st.sampled_from(("chain:2", "boolean:2", "partition:3"))))
    shape = data.draw(st.sampled_from(("self", "dual", "product", "ordinal", "ordinal-under", "proper", "selected")))
    if shape == "dual":
        p = p.dual()
    elif shape == "product":
        p = p.direct_product(other)
    elif shape == "ordinal":
        p = p.ordinal_sum(other)
    elif shape == "ordinal-under":
        p = other.ordinal_sum(p)
    elif shape == "proper" and p.n >= 2:
        p = p.proper_part()
    elif shape == "selected":
        ranks = data.draw(st.sets(st.integers(0, p.quasi_rank), min_size=1))
        p = p.rank_selected(ranks)
    assert (p.chain_polynomial(), p.flag_f_vector()) == _counts_by_pairs(p)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 14), st.booleans(), st.booleans())
def test_chain_counts_match_the_pair_program_on_random_posets(rng, n, bounded, dual):
    p = random_bounded(rng, max(n - 2, 0)) if bounded else random_poset(rng, n)
    p = p.dual() if dual else p
    assert (p.chain_polynomial(), p.flag_f_vector()) == _counts_by_pairs(p)


@pytest.mark.parametrize(
    "make, by_levels",
    [
        (lambda: boolean_lattice(8), True),
        (lambda: build_instance("partition:6"), True),
        (lambda: build_instance("vamos"), False),
        (lambda: chain_poset(300), False),
    ],
    ids=["B8", "partition6", "vamos", "chain300"],
)
def test_uniform_posets_count_chains_on_their_levels(make, by_levels, monkeypatch):
    """Only the element program walks a linear extension: B8 (uniform from
    below) and partition:6 (from above) never do; the Vamos lattice (neither)
    and a chain (too few comparable pairs for the levels to pay) always do."""
    p = make()
    walks = []
    extension = Poset._extension
    monkeypatch.setattr(Poset, "_extension", lambda self, mask=-1: walks.append(self) or extension(self, mask))
    p.chain_polynomial()
    if p.quasi_rank <= 12:  # a chain's flag f-vector has 2^300 entries
        p.flag_f_vector()
    assert (not walks) == by_levels


# -- the stored quasi-rank levels ------------------------------------------------------


def _shape(q: Poset):
    return (q.n, q.covers, q.labels)


def _or_error(compute):
    try:
        return compute()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _uniform_rows(p: Poset):
    ok, rows = is_quasi_rank_uniform(p)
    return ok, rows and tuple(row.coeffs for row in rows.rows)


def _edge_facts(p: Poset) -> dict:
    return {
        "quasi_rank": p.quasi_rank,
        "chain_polynomial": p.chain_polynomial().coeffs,
        "flag_f_vector": p.flag_f_vector(),
        "dual": _shape(p.dual()),
        "direct_product": _shape(p.direct_product(chain_poset(2))),
        "ordinal_sum": _shape(p.ordinal_sum(chain_poset(1))),
        "rank_selected": [_shape(p.rank_selected(ranks)) for ranks in ({0}, {1}, {0, 1}, {-1, 2})],
        "truncate": _shape(p.truncate()),
        "quasi_rank_generating_polynomial": _or_error(lambda: p.quasi_rank_generating_polynomial().coeffs),
        "is_quasi_rank_uniform": _or_error(lambda: _uniform_rows(p)),
        "is_triangular": _or_error(lambda: is_triangular(p)),
    }


_NO_LEAST = {
    "quasi_rank_generating_polynomial": "ValueError: poset has no least element",
    "is_quasi_rank_uniform": "ValueError: quasi-rank uniformity requires a least element",
    "is_triangular": "ValueError: triangularity requires a least element",
}

_EDGE_FACTS = [
    pytest.param(lambda: Poset(0), {
        "quasi_rank": 0,
        "chain_polynomial": (1,),
        "flag_f_vector": {0: 1},
        "dual": (0, (), None),
        "direct_product": (0, (), ()),
        "ordinal_sum": (1, (), None),
        "rank_selected": [(0, (), None)] * 4,
        "truncate": (0, (), None),
        **_NO_LEAST,
    }, id="empty"),
    pytest.param(lambda: Poset(1), {
        "quasi_rank": 0,
        "chain_polynomial": (1, 1),
        "flag_f_vector": {0: 1, 1: 1},
        "dual": (1, (), None),
        "direct_product": (2, ((0, 1),), ((0, 0), (0, 1))),
        "ordinal_sum": (2, ((0, 1),), None),
        "rank_selected": [(1, (), None), (0, (), None), (1, (), None), (0, (), None)],
        "truncate": (1, (), None),
        "quasi_rank_generating_polynomial": (1,),
        "is_quasi_rank_uniform": (True, ((1,),)),
        "is_triangular": True,
    }, id="one"),
    pytest.param(lambda: antichain(3), {
        "quasi_rank": 0,
        "chain_polynomial": (1, 3),
        "flag_f_vector": {0: 1, 1: 3},
        "dual": (3, (), None),
        "direct_product": (6, ((0, 1), (2, 3), (4, 5)), ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))),
        "ordinal_sum": (4, ((0, 3), (1, 3), (2, 3)), None),
        "rank_selected": [(3, (), None), (0, (), None), (3, (), None), (0, (), None)],
        "truncate": (3, (), None),
        **_NO_LEAST,
    }, id="antichain3"),
    pytest.param(lambda: chain_poset(2), {
        "quasi_rank": 1,
        "chain_polynomial": (1, 2, 1),
        "flag_f_vector": {0: 1, 1: 1, 2: 1, 3: 1},
        "dual": (2, ((1, 0),), None),
        "direct_product": (4, ((0, 1), (0, 2), (1, 3), (2, 3)), ((0, 0), (0, 1), (1, 0), (1, 1))),
        "ordinal_sum": (3, ((0, 1), (1, 2)), None),
        "rank_selected": [(1, (), None), (1, (), None), (2, ((0, 1),), None), (0, (), None)],
        "truncate": (1, (), None),
        "quasi_rank_generating_polynomial": (1, 1),
        "is_quasi_rank_uniform": (True, ((1,), (1, 1))),
        "is_triangular": True,
    }, id="chain2"),
]


@pytest.mark.parametrize("make, facts", _EDGE_FACTS)
def test_level_readers_on_edge_posets(make, facts):
    """Every reader of the stored levels on the empty, one-element,
    3-antichain and 2-chain posets, at the values the per-call level scans
    gave; the empty poset's one level is empty."""
    assert _edge_facts(make()) == facts


def _scrambled(rng: random.Random, n: int, tag: str) -> Poset:
    """A random poset whose index order is seldom a linear extension, each
    element labelled by its index after ``tag``."""
    base = random_poset(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    return Poset(n, [(perm[x], perm[y]) for x, y in base.covers], [f"{tag}{i}" for i in range(n)])


def _certified_ranks(p: Poset) -> int:
    """The union of the rank selections that the sweep certifies: every rank
    but its factor ranks, or none when every rank is one."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "_check_unit_interval_roots", lambda poly, what: seen.append(what))
        suites._certify_rank_selections(p, p.flag_f_vector())
    return sum({1 << r for what in seen for r in ast.literal_eval(what[len("rank selection "):])})


def _rank3_by_levels(p: Poset, levels) -> ExactPoly:
    e = sum(1 for x, y in p.covers if x in levels[1] and y in levels[2])
    return ExactPoly((1, len(levels[1]) + len(levels[2]), e)) * ExactPoly((1, 1)) ** 2


def _assert_levels_by_rho(p: Poset, ranks) -> None:
    """The stored levels, and what reads them, against ``levels_by_rho``."""
    levels = levels_by_rho(p)
    assert [list(_bits(level)) for level in p._levels] == levels
    assert all(p.rho(x) == r for r, level in enumerate(levels) for x in level)
    assert p.quasi_rank == len(levels) - 1
    assert p._extension() == [x for level in levels for x in level]
    kept = sorted(x for r, level in enumerate(levels) if r in ranks for x in level)
    assert p.rank_selected(ranks).labels == tuple(p.labels[x] for x in kept)
    if p.n and p.quasi_rank <= 6:
        factors = {
            r for r, level in enumerate(levels)
            if len(level) == 1 and all(p.leq(x, level[0]) or p.leq(level[0], x) for x in range(p.n))
        }
        everything = (1 << len(levels)) - 1
        assert _certified_ranks(p) == everything - sum(1 << r for r in factors)
    if p.quasi_rank == 3 and p.least is not None and p.greatest is not None:
        assert rank3_formula(p) == _rank3_by_levels(p, levels)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 9), st.integers(0, 4), st.data())
def test_stored_levels_match_levels_by_rho(rng, n, m, data):
    """Random posets, their duals, products, ordinal sums and induced
    subposets, numbered so that the index order is seldom a linear
    extension; the rank sets run one past each end."""
    p, other = _scrambled(rng, n, "a"), _scrambled(rng, m, "b")
    if data.draw(st.booleans()):
        p = with_bounds(p)
        p = Poset(p.n, p.covers, [f"a{i}" for i in range(p.n)])
    shapes = ("self", "dual", "dual-dual", "product", "ordinal", "ordinal-under", "induced")
    shape = data.draw(st.sampled_from(shapes))
    if shape == "dual":
        p = p.dual()
    elif shape == "dual-dual":
        p = p.dual().dual()
    elif shape == "product":
        p = p.dual().direct_product(other)
    elif shape == "ordinal":
        p = p.dual().ordinal_sum(other)
    elif shape == "ordinal-under":
        p = other.ordinal_sum(p)
    elif shape == "induced":
        p = p.induced(x for x in range(p.n) if rng.random() < 0.6)
    ranks = data.draw(st.sets(st.integers(-1, len(levels_by_rho(p))), min_size=1))
    _assert_levels_by_rho(p, ranks)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stored_levels_match_levels_by_rho_on_the_rank3_corpus(seed):
    l = suites.random_rank3_geometric(random.Random(seed))
    l = Poset(l.n, l.covers, range(l.n))
    _assert_levels_by_rho(l, {0, 2})
    _assert_levels_by_rho(l.dual(), {1})


def test_operations_refuse_posets_they_are_not_defined_on():
    antichain = Poset(3)
    for op in (antichain.interval, antichain.open_interval):
        with pytest.raises(ValueError, match="^not an interval: elements are incomparable$"):
            op(0, 1)
    with pytest.raises(ValueError, match="^empty rank set$"):
        boolean_lattice(3).rank_selected(())
    for op, message in [
        (antichain.atoms, "poset has no least element"),
        (antichain.coatoms, "poset has no greatest element"),
        (antichain.p_polynomial, "p polynomial requires a bounded poset"),
        (antichain.proper_part, "poset is not bounded"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            op()


def test_repeated_lattice_queries_derive_each_fact_once():
    """is_lattice, is_geometric, join and meet asked again of one poset read
    its memo: the lattice test, the covering test and each index build run once."""
    b3 = boolean_lattice(3)
    lattice_test, covering = Poset._lattice_test, tn._has_covering_property
    runs = []
    with derivations() as derived, \
            mock.patch.object(Poset, "_lattice_test", lambda p: runs.append("lattice") or lattice_test(p)), \
            mock.patch.object(tn, "_has_covering_property", lambda p: runs.append("covering") or covering(p)):
        for _ in range(3):
            assert b3.is_lattice and is_geometric(b3)
            assert (b3.join(1, 2), b3.meet(3, 6)) == (3, 2)
    assert runs == ["lattice", "covering"]
    assert [key for _, key in derived] == ["lattice", "up index", "geometric", "down index"]


def test_level_counts_are_derived_once_per_direction():
    """rank_matrix after chain_polynomial reuses the level counts from below,
    and the counts from above are derived at the first of two asks."""
    b6 = boolean_lattice(6)
    count = Poset._count_levels
    derived = []
    with mock.patch.object(Poset, "_count_levels", lambda p, below: derived.append(below) or count(p, below)):
        c = b6.chain_polynomial()
        rows = rank_matrix(b6)
        assert b6._level_counts(False) == b6._level_counts(False)
    assert derived == [True, False]
    assert c == chain_polynomial_by_dp(b6)
    assert rows.rows == tuple(ExactPoly((1, 1)) ** n for n in range(7))
