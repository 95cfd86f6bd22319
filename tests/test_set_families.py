"""The set-family builder against the all-pairs inclusion scan it replaced.

Every family that is listed as sets (truncated Boolean algebras, subspace
and affine lattices, linear spaces, designs, single-element extensions and
paving lattices of d-partitions) must give the same covers and labels as
``poset_from_sets_by_pairs`` on an independently listed, shuffled family.
The d-partition route is also checked, by isomorphism, against the paving
construction on the Boolean algebra of the ground set. The flats of the
subspace and affine lattices are checked against the echelon sums and
coset translation they replaced, and, at every size in range, against
their defining properties.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from latchain import (
    DPartition,
    affine_lattice,
    boolean_lattice,
    build_instance,
    is_geometric,
    is_isomorphic,
    linear_space_lattice,
    paving_lattice_from_dpartition,
    subspace_lattice,
    truncated_boolean,
)
from latchain.families import (
    FANO_BLOCKS,
    _check_flat_count,
    _flats,
    _poset_from_sets,
    read_dpartition,
    uniform_design,
    vamos_dpartition,
)
from latchain.suites import _designs_corpus, _see_corpus
from helpers import (
    cosets_by_translation,
    paving_construction,
    paving_poset_by_sets,
    poset_from_sets_by_pairs,
    relations_passed,
    subspaces_by_sums,
)

PG_2_3 = Path(__file__).parent / "data" / "pg-2-3.dpartition"


def _assert_matches_pairs_oracle(p, family, seed=0):
    family = list(family)
    random.Random(seed).shuffle(family)
    q = poset_from_sets_by_pairs(family)
    assert p.covers == q.covers
    assert p.labels == q.labels


def _small_sets(ground, d):
    return [frozenset(c) for size in range(d) for c in combinations(sorted(ground), size)]


def _random_dpartition(rng: random.Random, n: int, d: int):
    """Blocks on 1..n, each a proper subset, with every d-subset in exactly one."""
    covered, blocks = set(), []
    subsets = list(combinations(range(1, n + 1), d))
    rng.shuffle(subsets)
    for sub in subsets:
        if sub in covered:
            continue
        block = set(sub)
        for c in rng.sample(range(1, n + 1), n):
            fresh = all(
                tuple(sorted(t + (c,))) not in covered for t in combinations(sorted(block), d - 1)
            )
            if c not in block and len(block) < n - 1 and rng.random() < 0.4 and fresh:
                block.add(c)
        blocks.append(frozenset(block))
        covered.update(combinations(sorted(block), d))
    return blocks


def _boolean_host_route(dp: DPartition):
    """The paving construction on the Boolean algebra of the ground set."""
    ground = sorted(set(dp.ground))
    pos = {g: i for i, g in enumerate(ground)}
    masks = [sum(1 << pos[g] for g in b) for b in dp.blocks]
    return paving_construction(boolean_lattice(len(ground)), masks, (1 << len(ground)) - 1, dp.d)


@pytest.mark.parametrize("n", range(1, 9))
def test_truncated_boolean_matches_pairs_oracle(n):
    ground = range(1, n + 1)
    for k in range(n):
        family = _small_sets(ground, n - k) + [frozenset(ground)]
        _assert_matches_pairs_oracle(truncated_boolean(n, k), family, seed=k)


@pytest.mark.parametrize("n, q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 5), (3, 5), (2, 7)])
def test_subspace_lattice_matches_pairs_oracle(n, q):
    p = subspace_lattice(n, q)
    _assert_matches_pairs_oracle(p, p.labels)


@pytest.mark.parametrize("n, q", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 5), (2, 7)])
def test_affine_lattice_matches_pairs_oracle(n, q):
    p = affine_lattice(n, q)
    _assert_matches_pairs_oracle(p, p.labels)


def test_family_over_the_element_cap_is_refused():
    """A family of more sets than the poset cap, as a see: form over B_12 can
    reach, is refused with the constructor's message."""
    with pytest.raises(ValueError, match="^element count out of range: 5001$"):
        _poset_from_sets([frozenset({i}) for i in range(5001)])


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_family_with_skipped_sizes_is_built_from_its_covers(rng):
    """Sets of sizes 0, 3 and 7 only, so a cover can lie two sizes up."""
    ground = range(1, 10)
    family = [frozenset()]
    family += [frozenset(rng.sample(ground, 3)) for _ in range(rng.randint(0, 8))]
    family += [frozenset(rng.sample(ground, 7)) for _ in range(rng.randint(0, 5))]
    family = list(dict.fromkeys(family))
    with relations_passed() as passed:
        p = _poset_from_sets(family)
    assert sorted(passed[-1]) == list(p.covers)
    _assert_matches_pairs_oracle(p, family)


@pytest.mark.parametrize("dsl", ["trunc-boolean:7:2", "subspace:3:3", "affine:3:2", "fano-design", "vamos"])
def test_set_families_are_built_from_their_covers(dsl):
    with relations_passed() as passed:
        p = build_instance(dsl)
    assert sorted(passed[0]) == list(p.covers)


def _assert_same_poset(p, q):
    assert (p.n, p.covers, p.labels) == (q.n, q.covers, q.labels)
    assert (p._up, p._down, p._rho, p._levels) == (q._up, q._down, q._rho, q._levels)


def _paving_arguments(dsl):
    """The ground, blocks and d that the builder of a paving-style DSL string hands ``_paving_poset``."""
    head, *fields = dsl.split(":")
    if head == "trunc-boolean":
        n, k = map(int, fields)
        return range(1, n + 1), (), n - k
    if head == "uniform-design":
        design = uniform_design(*map(int, fields))
        return design.points, design.blocks, design.s
    if head in ("fano-design", "fano-lattice"):
        return range(1, 8), FANO_BLOCKS, 2
    dp = vamos_dpartition() if head == "vamos" else read_dpartition(str(PG_2_3))
    return dp.ground, dp.blocks, dp.d


@pytest.mark.parametrize(
    "dsl",
    [
        "uniform-design:4:1",  # d = 0: no small sets, the singletons under the ground
        "uniform-design:3:3",  # the one block is the ground
        "uniform-design:1:1",  # the one block is the ground, and d = 0: one element
        "trunc-boolean:1:0",  # the empty set under the ground
        "trunc-boolean:2:1",
        "trunc-boolean:12:1",  # points 10, 11 and 12 print before 2
        "trunc-boolean:11:4",
        "uniform-design:6:4",
        "uniform-design:5:1",
        "fano-design",
        "fano-lattice",
        "vamos",
        f"paving:file={PG_2_3}",
    ],
)
def test_paving_posets_from_covers_match_the_set_listing(dsl):
    """Every stored field, element order and labels included, as when the
    paving lattice was listed as sets and ordered by the set-family builder."""
    _assert_same_poset(build_instance(dsl), paving_poset_by_sets(*_paving_arguments(dsl)))


def test_random_linear_spaces_match_pairs_oracle():
    rng = random.Random(20261018)
    for i in range(40):
        n = rng.randint(3, 10)
        lines = _random_dpartition(rng, n, 2)
        points = frozenset(range(1, n + 1))
        family = _small_sets(points, 2) + lines + [points]
        p = linear_space_lattice(n, lines)
        _assert_matches_pairs_oracle(p, family, seed=i)
        _assert_same_poset(p, paving_poset_by_sets(points, lines, 2))


@pytest.mark.parametrize("dsl", _designs_corpus(0))
def test_design_posets_match_pairs_oracle(dsl):
    if dsl == "fano-design":
        points, blocks, s = range(1, 8), list(FANO_BLOCKS), 2
    else:
        n, k = map(int, dsl.split(":")[1:])
        points, blocks, s = range(1, n + 1), [frozenset(c) for c in combinations(range(1, n + 1), k)], k - 1
    family = set(_small_sets(points, s)) | set(blocks) | {frozenset(points)}
    _assert_matches_pairs_oracle(build_instance(dsl), family)


def test_see_corpus_matches_pairs_oracle():
    for i, dsl in enumerate(_see_corpus(0)):
        p = build_instance(dsl)
        _assert_matches_pairs_oracle(p, p.labels, seed=i)


def _dpartition_corpus():
    rng = random.Random(7)
    ground = tuple(range(1, 7))
    out = [
        vamos_dpartition(),
        DPartition(tuple(range(1, 8)), FANO_BLOCKS, 2),
        DPartition(ground, tuple(frozenset(c) for c in combinations(ground, 3)), 3),
        DPartition((1, 2, 3), tuple(frozenset(b) for b in ((1, 2), (1, 3), (2, 3))), 2),
        DPartition((1, 2, 3), tuple(frozenset({i}) for i in (1, 2, 3)), 1),
        # a 1-partition may leave ground points outside every block
        DPartition((1, 2, 3, 4, 5), (frozenset({1, 2}), frozenset({3})), 1),
        # ground names other than 1..n label the flats
        DPartition((10, 20, 30, 40), tuple(frozenset(c) for c in combinations((10, 20, 30, 40), 2)), 2),
    ]
    for d, sizes in ((1, (3, 5, 8)), (2, (4, 6, 8, 9)), (3, (5, 6, 7, 8))):
        for n in sizes:
            ground = tuple(range(1, n + 1))
            out.append(DPartition(ground, tuple(_random_dpartition(rng, n, d)), d))
    return out


DPARTITIONS = _dpartition_corpus()


@pytest.mark.parametrize("index", range(len(DPARTITIONS)))
def test_dpartition_route_matches_oracle_and_boolean_host(index):
    dp = DPARTITIONS[index]
    p = paving_lattice_from_dpartition(dp)
    family = _small_sets(dp.ground, dp.d) + list(dp.blocks) + [frozenset(dp.ground)]
    _assert_matches_pairs_oracle(p, family, seed=index)
    _assert_same_poset(p, paving_poset_by_sets(dp.ground, dp.blocks, dp.d))
    assert is_isomorphic(p, _boolean_host_route(dp))


def test_dpartition_with_uncovered_point_is_refused_like_the_boolean_host():
    lines = tuple(frozenset(b) for b in ((1, 2), (1, 3), (1, 4), (2, 3, 4)))
    dp = DPartition((1, 2, 3, 4, 5), lines, 2)
    dp.validate()  # the blocks themselves form a 2-partition of their union
    with pytest.raises(ValueError, match=r"\(iv\)"):
        _boolean_host_route(dp)
    with pytest.raises(ValueError, match="no block"):
        paving_lattice_from_dpartition(dp)


def test_projective_plane_of_order_three_from_its_file():
    """13 points exceed the Boolean host's cap; the paving lattice has 28 flats."""
    p = build_instance(f"paving:file={PG_2_3}")
    assert p.n == 28 and is_geometric(p)
    lines = read_dpartition(str(PG_2_3)).blocks
    assert {p.labels[x] for x in p.coatoms()} == set(lines)
    assert is_isomorphic(p, linear_space_lattice(13, lines))


# -- subspace and affine flats -------------------------------------------------------


def _in_range(affine):
    sizes = []
    for n in range(1, 5):
        for q in (2, 3, 5, 7):
            try:
                _check_flat_count(n, q, affine)
            except ValueError:
                continue
            sizes.append((n, q))
    return sizes


def _q_binomial(n, k, q):
    """[n choose k]_q by the q-Pascal rule [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return _q_binomial(n - 1, k - 1, q) + q**k * _q_binomial(n - 1, k, q)


def _own_span(flat, q):
    """The span of a flat's own vectors, grown greedily, with its dimension.

    Every vector taken lies outside the span so far, so the span of k of
    them has q^k vectors; it equals the flat iff the flat is closed under
    addition and scaling.
    """
    span, dim = {(0,) * len(next(iter(flat)))}, 0
    for v in sorted(flat):
        if v not in span:
            span = {tuple((a + c * b) % q for a, b in zip(w, v)) for w in span for c in range(q)}
            dim += 1
    return span, dim


# L_4(7) and AG(3, 7) take seconds on the oracle; the structural checks cover them
_ORACLE_SKIP = {(4, 7, False), (3, 7, True)}


@pytest.mark.parametrize(
    "n, q, affine",
    [(n, q, a) for a in (False, True) for n, q in _in_range(a) if (n, q, a) not in _ORACLE_SKIP],
)
def test_flats_match_echelon_sums_and_coset_oracle(n, q, affine):
    flats = _flats(n, q, affine)
    if affine:
        assert set(flats) == cosets_by_translation(n, q)
    else:
        # same subspaces in the same order, down to the repr of each label
        assert list(map(repr, flats)) == list(map(repr, subspaces_by_sums(n, q)))


@pytest.mark.parametrize("n, q", _in_range(False))
def test_subspaces_are_closed_and_counted(n, q):
    spaces = _flats(n, q, affine=False)
    assert len(set(spaces)) == len(spaces)
    dims = Counter()
    for space in spaces:
        span, dim = _own_span(space, q)
        assert span == space
        dims[dim] += 1
    assert dims == {k: _q_binomial(n, k, q) for k in range(n + 1)}


@pytest.mark.parametrize("n, q", _in_range(True))
def test_affine_flats_are_translates_and_counted(n, q):
    spaces = set(_flats(n, q, affine=False))
    flats = _flats(n, q, affine=True)
    assert len(set(flats)) == len(flats)
    sizes = Counter(map(len, flats))
    assert sizes == {0: 1, **{q**k: _q_binomial(n, k, q) * q ** (n - k) for k in range(n + 1)}}
    for flat in flats:
        if flat:
            a = min(flat)
            assert frozenset(tuple((x - y) % q for x, y in zip(v, a)) for v in flat) in spaces
