"""Differential test of the lattice layer against the all-pairs tables.

The library finds joins and meets by mask lookup, decides latticehood by the
join-irreducible test and semimodularity, modularity and atomisticity by
local criteria. Here every verdict and every join and meet is compared with
the tables of ``lattice_tables_oracle`` and the pairwise rank definitions,
and the climb sum that decides interval gradedness is compared with the
cover-path search of ``interval_length_spread`` and with the comparison of
each cover (``graded_by_covers``). Stored verdicts are compared with those
of a fresh twin.
"""

from __future__ import annotations

import inspect
import random

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings, strategies as st

from latchain import tn
from latchain import (
    Poset,
    boolean_lattice,
    chain_poset,
    is_atomistic,
    is_geometric,
    partition_lattice,
    truncated_boolean,
)
from latchain.families import _poset_from_sets
from latchain.tn import _is_graded
from helpers import (
    antichain,
    graded_by_covers,
    interval_length_spread,
    is_modular,
    is_semimodular,
    is_triangular,
    lattice_tables_oracle,
    m3,
    pentagon,
    random_poset,
    with_bounds,
)


def _intersection_closed(rng: random.Random, points: int) -> Poset:
    """Inclusion order on a random intersection-closed family over 1..points
    that holds the empty set, every singleton and the ground set: an
    atomistic lattice, often graded, rarely semimodular."""
    ground = frozenset(range(1, points + 1))
    family = {frozenset(), ground, *(frozenset({i}) for i in ground)}
    for _ in range(rng.randint(1, 2 * points)):
        family.add(frozenset(rng.sample(sorted(ground), rng.randint(2, points - 1))))
    while True:
        meets = {a & b for a in family for b in family} - family
        if not meets:
            return _poset_from_sets(list(family))
        family |= meets


def _corpus():
    named = [
        Poset(0),
        antichain(3),
        chain_poset(1),
        pentagon(),
        m3(),
        chain_poset(2).direct_product(pentagon()),  # a lattice that is not graded
        partition_lattice(5).dual(),
        partition_lattice(5).truncate(),
        truncated_boolean(5, 1),
        boolean_lattice(3),
    ]
    rng = random.Random(20261017)
    drawn = []
    for _ in range(300):
        p = random_poset(rng, rng.randint(1, 12))
        drawn += [p, with_bounds(p)]
    drawn += [_intersection_closed(rng, rng.randint(3, 5)) for _ in range(40)]
    return named + drawn


CORPUS = _corpus()


def _oracle_predicates(p: Poset, join, meet):
    """(semimodular, modular, atomistic, geometric) from the pairwise rank
    definitions on the tables."""
    rho = [p.rho(x) for x in range(p.n)]
    graded = graded_by_covers(p)
    pairs = [(x, y) for x in range(p.n) for y in range(x + 1, p.n)]
    excess = [rho[x] + rho[y] - rho[meet[x][y]] - rho[join[x][y]] for x, y in pairs]
    semimodular = graded and all(e >= 0 for e in excess)
    modular = graded and all(e == 0 for e in excess)
    atomistic = True
    for x in range(p.n):
        acc = p.least
        for a in p.atoms():
            if p.leq(a, x):
                acc = join[acc][a]
        atomistic &= acc == x
    return semimodular, modular, atomistic, graded and semimodular and atomistic


def test_corpus_covers_every_verdict():
    """Lattices and non-lattices abound, and among the lattices each
    predicate is both true and false. Some graded atomistic lattice is not
    geometric, so the covering property itself must say False."""
    lattices, seen, covering_fails = 0, set(), False
    for p in CORPUS:
        ok, join, meet = lattice_tables_oracle(p)
        if ok:
            lattices += 1
            verdicts = _oracle_predicates(p, join, meet)
            seen.update(enumerate(verdicts))
            _, _, atomistic, geometric = verdicts
            covering_fails |= _is_graded(p) and atomistic and not geometric
    assert lattices >= 100 and len(CORPUS) - lattices >= 100
    assert seen == {(i, v) for i in range(4) for v in (True, False)}
    assert covering_fails


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_lattice_layer_matches_all_pairs_tables(index):
    p = CORPUS[index]
    ok, join, meet = lattice_tables_oracle(p)
    assert p.is_lattice == ok
    for x in range(p.n):
        for y in range(p.n):
            for op, table in ((p.join, join), (p.meet, meet)):
                if table[x][y] < 0:
                    with pytest.raises(ValueError):
                        op(x, y)
                else:
                    assert op(x, y) == table[x][y]
    predicates = (is_semimodular, is_modular, is_atomistic, is_geometric)
    if not ok:
        for predicate in predicates:
            with pytest.raises(ValueError, match="lattice"):
                predicate(p)
        return
    assert p.is_lattice
    assert tuple(f(p) for f in predicates) == _oracle_predicates(p, join, meet)



def test_cover_scan_decides_interval_gradedness():
    """With a least element, every interval is graded (all its cover paths
    have one length) iff every cover raises rho by one; is_triangular
    refuses exactly the posets that fail."""
    seen = set()
    for p in CORPUS:
        if p.least is None:
            continue
        graded = all(short == long_ for _, _, short, long_ in interval_length_spread(p))
        seen.add(graded)
        assert _is_graded(p) == graded
        if not graded:
            with pytest.raises(ValueError, match="ungraded"):
                is_triangular(p)
        else:
            is_triangular(p)
    assert seen == {True, False}


def test_stored_verdicts_match_a_fresh_twin():
    """is_lattice and is_geometric store their verdicts on the poset; asked
    again, and asked of a twin built afresh from the same covers, they agree."""
    seen = set()
    for p in CORPUS:
        twin = Poset(p.n, p.covers, p.labels)
        assert p.is_lattice == p.is_lattice == twin.is_lattice
        if p.is_lattice:
            verdict = is_geometric(p)
            assert p._memo["geometric"] == verdict == is_geometric(p) == is_geometric(twin)
            seen.add(verdict)
        else:
            with pytest.raises(ValueError, match="lattice"):
                is_geometric(p)
            assert "geometric" not in p._memo
    assert seen == {True, False}


@st.composite
def _leveled_posets(draw):
    """Front-door posets built level by level: each element above level 0
    has lower covers on the level below, and a few extra relations may skip
    levels, which leaves the poset graded only when each is implied. Half
    get a new least element below everything."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    level = [r for r, size in enumerate(sizes) for _ in range(size)]
    n = len(level)
    first = [level.index(r) for r in range(len(sizes))]
    rels = []
    for y in range(n):
        if level[y]:
            below = range(first[level[y] - 1], first[level[y]])
            rels += [(x, y) for x in draw(st.lists(st.sampled_from(below), min_size=1, unique=True))]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    rels += [(x, y) for x, y in extra if level[x] < level[y]]
    if draw(st.booleans()):
        rels += [(n, x) for x in range(n)]
        n += 1
    return Poset(n, rels)


@settings(max_examples=300, deadline=None)
@given(_leveled_posets())
def test_climb_sum_matches_the_cover_comparison(p):
    assert _is_graded(p) == graded_by_covers(p)


@pytest.mark.parametrize(
    "old, new",
    [
        ("climbs == len(p.covers)", "climbs <= len(p.covers) + 1"),  # one cover may climb two
        ("climbs == len(p.covers)", "climbs == len(p.covers) + 1"),
    ],
    ids=["tolerates-one-extra-climb", "expects-one-extra-climb"],
)
def test_cover_comparison_catches_an_off_by_one_climb_sum(old, new):
    source = inspect.getsource(tn._is_graded)
    assert source.count(old) == 1, old
    namespace = dict(vars(tn))
    exec(source.replace(old, new), namespace)
    mutant = namespace["_is_graded"]
    # the first poset found is enough, so no shrinking; derandomized, so no flakes
    settle = settings(
        max_examples=1000,
        database=None,
        derandomize=True,
        phases=[Phase.generate],
        suppress_health_check=list(HealthCheck),
    )
    p = find(_leveled_posets(), lambda p: mutant(p) != graded_by_covers(p), settings=settle)
    assert mutant(p) != _is_graded(p)
