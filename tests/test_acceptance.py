"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every check is an exact algebraic assertion (integer or rational
arithmetic); the only tolerances are the stated wall-clock budgets.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

from latchain import (
    ExactPoly,
    affine_lattice,
    boolean_lattice,
    brute_force_oracle,
    chain_polys_from_rmatrix,
    chain_poset,
    design_poset,
    fano_design,
    interlaces,
    is_geometric,
    is_quasi_rank_uniform,
    is_real_rooted,
    partition_lattice,
    resolve,
    roots_in_interval,
    single_element_extension,
    subspace_lattice,
    suite_run,
    truncated_boolean,
    vamos_lattice,
)
from latchain.families import element_with_atoms
from latchain.posets import is_isomorphic
from helpers import (
    bounded_corpus,
    check_cover_recursion,
    collapsed_tower_9,
    incidence_R_table,
    is_semimodular,
    paving_construction,
    quasi_uniform_13,
    random_poset,
    rank_uniform_tower_13,
)


def _verdict(number: int, ok: bool, description: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion-{number:02d}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_oracle_equivalence():
    """Chain-count dynamic program equals the naive chain walker, under 10 s."""
    rng = random.Random(424242)
    corpus = [boolean_lattice(2), boolean_lattice(3), chain_poset(5),
              quasi_uniform_13(), collapsed_tower_9(), truncated_boolean(3, 1)]
    while len(corpus) < 220:
        corpus.append(random_poset(rng, rng.randint(1, 14)))
    start = time.monotonic()
    mismatches = 0
    for p in corpus:
        if tuple(p.chain_polynomial().coeffs) != brute_force_oracle(p):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and len(corpus) >= 200 and elapsed < 10.0
    _verdict(1, ok, f"{len(corpus)} posets, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_02_reference_diagrams():
    """The three hand-drawn reference diagrams are reproduced exactly."""
    ranks_ok = quasi_uniform_13().quasi_rank_generating_polynomial() == ExactPoly((1, 6, 4, 2))

    tower = rank_uniform_tower_13()
    collapse_ok = is_isomorphic(
        paving_construction(tower, [7, 8, 9], 11, 2), collapsed_tower_9()
    )

    b3 = boolean_lattice(3)
    ext1 = single_element_extension(b3, b3.up_mask(1), 4)
    ext12 = single_element_extension(b3, b3.up_mask(3), 4)
    lists_ok = set(ext1.labels) == {
        frozenset(), frozenset({2}), frozenset({3}), frozenset({2, 3}),
        frozenset({1, 4}), frozenset({1, 2, 4}), frozenset({1, 3, 4}),
        frozenset({1, 2, 3, 4}),
    } and set(ext12.labels) == {
        frozenset(), frozenset({1}), frozenset({2}), frozenset({3}),
        frozenset({4}), frozenset({1, 3}), frozenset({2, 3}),
        frozenset({3, 4}), frozenset({1, 2, 4}), frozenset({1, 2, 3, 4}),
    }
    ok = ranks_ok and collapse_ok and lists_ok
    _verdict(2, ok, f"rank poly {ranks_ok}, collapse {collapse_ok}, extension lists {lists_ok}")


def test_criterion_03_rank3_theorem():
    """200 seeded rank-3 geometric lattices: real-rooted, closed form matches."""
    reports = suite_run("rank3", seed=20240817)
    failures = [r for r in reports if not r.ok]
    ok = len(reports) >= 200 and not failures
    _verdict(3, ok, f"{len(reports)} lattices, {len(failures)} failures")


def test_criterion_04_paving_families():
    """Paving lattices and rank selections: all zeros in [-1, 0], under 60 s."""
    start = time.monotonic()
    reports = suite_run("paving", seed=0)
    elapsed = time.monotonic() - start
    failures = [r for r in reports if not r.ok]
    selections = sum(r.witness.get("rank_selections_checked", 0) for r in reports)
    ok = not failures and elapsed < 60.0
    _verdict(4, ok, f"{len(reports)} instances, {selections} rank selections, {elapsed:.1f}s")


def test_criterion_05_triangular_semimodular():
    """Rank rows of the uniform corpus resolve; row chain polynomials interlace."""
    instances = []
    for n in range(1, 9):
        instances.append((f"boolean:{n}", boolean_lattice(n)))
    for n in range(3, 9):
        for k in range(1, n - 1):
            instances.append((f"trunc-boolean:{n}:{k}", truncated_boolean(n, k)))
    for n in range(1, 5):
        instances.append((f"subspace:{n}:2", subspace_lattice(n, 2)))
    instances.append(("affine:2:3", affine_lattice(2, 3)))
    for n in range(2, 7):
        instances.append((f"partition:{n}:dual", partition_lattice(n).dual()))

    bad = []
    for tag, p in instances:
        ok_uniform, rows = is_quasi_rank_uniform(p)
        if not ok_uniform:
            bad.append((tag, "not rank uniform"))
            continue
        outcome = resolve(rows)
        if not outcome.ok or not outcome.witness.verify(rows):
            bad.append((tag, outcome.describe()))
            continue
        ps = chain_polys_from_rmatrix(rows)
        for pn in ps:
            if not (is_real_rooted(pn) and roots_in_interval(pn, -1, 0)):
                bad.append((tag, f"{pn.to_string()} outside [-1,0]"))
                break
        else:
            for a, b in zip(ps, ps[1:]):
                if not interlaces(a, b):
                    bad.append((tag, "interlacing gap"))
                    break
    _verdict(5, not bad, f"{len(instances)} uniform instances, failures: {bad[:3]}")


def test_criterion_06_dowling():
    reports = suite_run("dowling", seed=0)
    failures = [r for r in reports if not r.ok]
    _verdict(6, not failures, f"{len(reports)} row families, {len(failures)} failures")


def test_criterion_07_ordinal_sum():
    reports = suite_run("ordinal-sum", seed=7)
    stacked_rows = [r for r in reports if r.instance.startswith("stacked-rows")]
    stacked_posets = [r for r in reports if r.instance.startswith("stacked-posets")]
    failures = [r for r in reports if not r.ok]
    ok = len(stacked_rows) >= 20 and len(stacked_posets) >= 1 and not failures
    _verdict(
        7,
        ok,
        f"{len(stacked_rows)} row pairs, {len(stacked_posets)} poset pairs, {len(failures)} failures",
    )


def test_criterion_08_diamond_product():
    reports = suite_run("diamond", seed=13)
    failures = [r for r in reports if not r.ok]
    identity_bad = 0
    for p in bounded_corpus():
        if p.n < 2:
            continue
        if p.chain_polynomial().shift(1) != ExactPoly((1, 2, 1)) * p.p_polynomial():
            identity_bad += 1
    ok = len(reports) >= 50 and not failures and identity_bad == 0
    _verdict(8, ok, f"{len(reports)} product pairs, {identity_bad} corpus identity failures")


def test_criterion_09_single_element_extensions():
    product_bad = []
    for ground in (3, 4, 5):
        host = boolean_lattice(ground)
        for size in range(2, ground):
            x = element_with_atoms(host, range(1, size + 1))
            ext = single_element_extension(host, host.up_mask(x), 0)
            product = truncated_boolean(size + 1, 1).direct_product(
                boolean_lattice(ground - size)
            )
            if not is_isomorphic(ext, product):
                product_bad.append((ground, size))

    root_bad = []
    for ground in (3, 4, 5):
        for host_tag, host in (
            (f"boolean:{ground}", boolean_lattice(ground)),
            (f"trunc-boolean:{ground}:1", truncated_boolean(ground, 1)),
        ):
            cuts = [0, *map(host.up_mask, range(host.n))]
            for idx, cut in enumerate(cuts):
                ext = single_element_extension(host, cut, 0)
                c = ext.chain_polynomial()
                if not (is_real_rooted(c) and roots_in_interval(c, -1, 0)):
                    root_bad.append((host_tag, idx))
    ok = not product_bad and not root_bad
    _verdict(9, ok, f"product failures {product_bad}, root failures {root_bad[:3]}")


def test_criterion_10_counterexample():
    reports = suite_run("counterexample", seed=0)
    failures = [r for r in reports if not r.ok]
    found = {r.witness["n"]: r.witness["first_failing_q"] for r in reports}
    ok = not failures and all(found.get(n) is not None for n in (3, 4))
    _verdict(10, ok, f"first failing q by size (computed, not quoted): {found}")


def test_criterion_11_incidence_identities():
    corpus = [
        ("boolean:5", boolean_lattice(5)),
        ("boolean:6", boolean_lattice(6)),
        ("boolean:7", boolean_lattice(7)),
        ("boolean:8", boolean_lattice(8)),
        ("trunc-boolean:5:1", truncated_boolean(5, 1)),
        ("trunc-boolean:6:2", truncated_boolean(6, 2)),
        ("subspace:3:2", subspace_lattice(3, 2)),
        ("subspace:4:2", subspace_lattice(4, 2)),
        ("affine:2:3", affine_lattice(2, 3)),
        ("partition:4", partition_lattice(4)),
        ("partition:5", partition_lattice(5)),
        ("partition:6", partition_lattice(6)),
        ("fano-design", design_poset(fano_design())),
        ("vamos", vamos_lattice()),
    ]
    bad = []
    for tag, p in corpus:
        if p.n > 500 or not is_semimodular(p):
            bad.append((tag, "corpus precondition"))
            continue
        table = incidence_R_table(p)
        bottom = p.least
        geometric = is_geometric(p)
        for (x, y), poly in table.items():
            gap = p.rho(y) - p.rho(x)
            if x == bottom and poly != ExactPoly.monomial(p.rho(y)):
                bad.append((tag, f"bottom identity at {y}"))
                break
            if any(poly.coefficient(i) != 0 for i in range(gap)):
                bad.append((tag, f"divisibility at ({x}, {y})"))
                break
            if geometric and poly.coefficient(gap) == 0:
                bad.append((tag, f"tight divisibility at ({x}, {y})"))
                break
        else:
            report = check_cover_recursion(p)
            if not report.ok:
                bad.append((tag, "cover recursion"))
    _verdict(11, not bad, f"{len(corpus)} lattices, failures: {bad[:3]}")
