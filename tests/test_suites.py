import json
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from graphlib import TopologicalSorter
from itertools import combinations
from math import comb, factorial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from latchain import (
    SUITE_NAMES,
    ExactPoly,
    Poset,
    RMatrix,
    boolean_lattice,
    brute_force_oracle,
    build_instance,
    chain_poset,
    counterexample_search,
    eulerian,
    fano_lattice,
    is_geometric,
    q_eulerian,
    rank3_formula,
    suite_run,
    truncated_boolean,
    write_csv,
    write_jsonl,
)
from latchain import families, suites, tn
from latchain.cli import main
from latchain.posets import is_isomorphic
from latchain.suites import (
    _SUITES,
    CheckFailure,
    _check_unit_interval_roots,
    _ordinal_sum_corpus,
    random_bounded_poset,
    random_rank3_geometric,
)
from latchain.permstats import MAX_PERMUTATION_SIZE
from helpers import (
    assert_flags_give_rank_selections,
    perm_stats_oracle,
    quasi_uniform_13,
    random_poset,
    random_rank3_lines_by_pairs,
    rank_selection_sweep,
    rank_selection_sweep_by_all_masks,
    run_cli,
)


def test_eulerian_small():
    assert eulerian(1) == ExactPoly((1,))
    assert eulerian(2) == ExactPoly((1, 1))
    assert eulerian(3) == ExactPoly((1, 4, 1))
    assert eulerian(4) == ExactPoly((1, 11, 11, 1))
    for n in (0, 31):
        with pytest.raises(ValueError):
            eulerian(n)


def test_q_eulerian_small():
    assert q_eulerian(3, 1) == eulerian(3)
    # the six permutations of three letters: descents/inversions (0,0),(1,1),(1,1),(1,2),(1,2),(2,3)
    assert q_eulerian(3, 2) == ExactPoly((1, 2 * 2 + 2 * 4, 8))
    assert sorted(perm_stats_oracle(3)) == [(0, 0), (1, 1), (1, 1), (1, 2), (1, 2), (2, 3)]


def test_permstat_ranges():
    for n in (2, 3, 4, 5):
        table = perm_stats_oracle(n)
        assert len(table) == factorial(n)
        assert all(0 <= d <= n - 1 for d, _ in table)
        assert all(0 <= i <= n * (n - 1) // 2 for _, i in table)


def test_q_eulerian_matches_enumeration():
    qs = (0, 1, 2, 3, -1, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3), Fraction(13, 7))
    for n in range(1, 9):
        stats = Counter(perm_stats_oracle(n))
        assert eulerian(n) == ExactPoly(
            sum(count for (d, _), count in stats.items() if d == k) for k in range(n)
        )
        for q in qs:
            coeffs = [0] * n
            for (d, inv), count in stats.items():
                coeffs[d] += count * Fraction(q) ** inv
            assert q_eulerian(n, q) == ExactPoly(coeffs), (n, q)


def test_q_eulerian_30_within_budget():
    result = []

    def compute():
        result.append((q_eulerian(30, Fraction(17, 7)), eulerian(30)))

    worker = threading.Thread(target=compute, daemon=True)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive(), "q_eulerian(30, 17/7) and eulerian(30) still running after 5 s"
    [(weighted, plain)] = result
    assert MAX_PERMUTATION_SIZE == 30
    assert weighted.degree == 29 and sum(plain.coeffs) == factorial(30)


def test_eulerian_recurrence_up_to_the_cap():
    """A(n, k) = (k + 1) A(n - 1, k) + (n - k) A(n - 1, k - 1)."""
    row = [1]
    for n in range(2, MAX_PERMUTATION_SIZE + 1):
        row = [
            (k + 1) * (row[k] if k < n - 1 else 0) + (n - k) * (row[k - 1] if k else 0)
            for k in range(n)
        ]
        assert eulerian(n) == ExactPoly(row), n


def test_q_eulerian_mahonian_and_extreme_coefficients_up_to_the_cap():
    """The coefficients sum to [n]_q!; the identity alone gives t^0, and the
    reversal alone gives t^(n-1) with q^C(n, 2)."""
    for q in (2, Fraction(1, 2), Fraction(17, 7)):
        q_factorial = 1
        for n in range(1, MAX_PERMUTATION_SIZE + 1):
            q_factorial *= sum(q**i for i in range(n))
            poly = q_eulerian(n, q)
            assert sum(poly.coeffs) == q_factorial, (n, q)
            assert poly.coefficient(0) == 1
            assert poly.degree == n - 1 and poly.coefficient(n - 1) == q ** comb(n, 2)


def test_brute_force_oracle():
    assert brute_force_oracle(boolean_lattice(2)) == (1, 4, 5, 2)
    assert brute_force_oracle(chain_poset(3)) == (1, 3, 3, 1)
    with pytest.raises(ValueError):
        brute_force_oracle(boolean_lattice(5))


def test_rank3_formula_fano():
    f = fano_lattice()
    expected = ExactPoly((1, 14, 21)) * ExactPoly((1, 1)) ** 2
    assert rank3_formula(f) == expected
    assert f.chain_polynomial() == expected


def test_rank3_formula_near_pencil():
    from latchain import linear_space_lattice

    # one long line plus all pairs through the remaining point
    pencil = linear_space_lattice(4, [(1, 2, 3), (1, 4), (2, 4), (3, 4)])
    expected = ExactPoly((1, 8, 9)) * ExactPoly((1, 1)) ** 2
    assert rank3_formula(pencil) == expected
    assert pencil.chain_polynomial() == expected


def test_rank3_formula_discriminant_sanity():
    rng = random.Random(3)
    for _ in range(20):
        l = random_rank3_geometric(rng)
        m1 = sum(1 for x in range(l.n) if l.rho(x) == 1)
        m2 = sum(1 for x in range(l.n) if l.rho(x) == 2)
        e = sum(1 for x, y in l.covers if l.rho(x) == 1 and l.rho(y) == 2)
        assert e <= m1 * m2
        assert (m1 - m2) ** 2 + 4 * (m1 * m2 - e) >= 0


def test_random_rank3_lattices_are_geometric():
    rng = random.Random(11)
    for _ in range(20):
        assert is_geometric(random_rank3_geometric(rng))


@pytest.mark.parametrize("seed", range(20))
def test_rank3_draws_match_the_covered_pair_set(seed):
    """One bitmask per point draws the lines that the set of covered pairs
    drew, with the same calls on the generator: ten draws in a row agree."""
    mine, theirs = random.Random(seed), random.Random(seed)
    with mock.patch.object(suites, "linear_space_lattice", lambda n, lines: (n, lines)):
        for _ in range(10):
            assert random_rank3_geometric(mine) == random_rank3_lines_by_pairs(theirs)
    assert mine.random() == theirs.random()


def test_random_bounded_poset_is_bounded():
    rng = random.Random(12)
    for _ in range(20):
        p = random_bounded_poset(rng)
        assert p.least is not None and p.greatest is not None and p.n >= 2


def test_counterexample_search_finds_failures():
    res3 = counterexample_search(3, 64)
    assert res3["first_failing_q"] is not None
    assert res3["first_failing_q"] > 1  # self-interlacing at q = 1
    assert res3["h_polynomial_checks"] == {2: True, 3: True}
    res4 = counterexample_search(4, 64)
    assert res4["first_failing_q"] is not None


def test_counterexample_q_one_check_compares_independent_computations(monkeypatch):
    import latchain.suites as suites

    def off_at_one(n, q):
        return q_eulerian(n, q) + (ExactPoly.monomial(1) if q == 1 else ExactPoly())

    monkeypatch.setattr(suites, "q_eulerian", off_at_one)
    with pytest.raises(CheckFailure) as err:
        counterexample_search(3, 4)
    assert err.value.witness == {"reason": "q = 1 specialization failed"}


def test_counterexample_subspace_check_names_the_mismatch(monkeypatch):
    def off_at_three(n, q):
        return q_eulerian(n, q) + (ExactPoly.monomial(1) if q == 3 else ExactPoly())

    monkeypatch.setattr(suites, "q_eulerian", off_at_three)
    with pytest.raises(CheckFailure) as err:
        counterexample_search(3, 2)
    # A_3(t; 3) = 1 + (2*3 + 2*9) t + 27 t^2 is the subspace lattice's h-polynomial
    assert list(err.value.witness.items()) == [
        ("reason", "subspace h-polynomial mismatch"),
        ("q", 3),
        ("h", "1 24 27"),
        ("expected", "1 25 27"),
    ]


def test_counterexample_q_normalization():
    """q^{-3} A_3(t; q) approaches t^2: top coefficient has q-degree 3, others lag."""
    # A_3(t;q) = 1 + (2q + 2q^2) t + q^3 t^2
    for q in (2, 3, 5):
        poly = q_eulerian(3, q)
        assert poly.coefficient(2) == q**3
        assert poly.coefficient(1) == 2 * q + 2 * q**2
        assert poly.coefficient(0) == 1


def test_q_eulerian_rational_weight():
    q = Fraction(1, 2)
    assert q_eulerian(3, q) == ExactPoly((1, 2 * q + 2 * q**2, q**3))


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        suite_run("nonsense")


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_no_instances_check_nothing(name):
    """An empty instance list is not the default corpus."""
    assert suite_run(name, instances=[]) == []


def test_suite_reports_have_witnesses_and_sorted_instances(tmp_path):
    reports = suite_run("dowling", seed=3)
    assert [r.instance for r in reports] == sorted(r.instance for r in reports)
    assert all(r.ok for r in reports)
    json_path = tmp_path / "out.jsonl"
    csv_path = tmp_path / "out.csv"
    write_jsonl(reports, str(json_path))
    write_csv(reports, str(csv_path))
    lines = json_path.read_text().splitlines()
    assert len(lines) == len(reports)
    payload = json.loads(lines[0])
    assert payload["suite"] == "dowling" and payload["verdict"] == "pass"
    assert csv_path.read_text().splitlines()[0] == "suite,instance,verdict,runtime_ms"


def test_suite_failure_reporting():
    """A non-resolvable instance yields a fail verdict with an obstruction witness."""
    reports = suite_run("triangular", instances=["partition:4"], seed=0)
    assert len(reports) == 1 and reports[0].ok
    # the 13-element reference poset is uniform but not resolvable: drive it through
    # the dowling suite's row checks by hand instead
    from latchain import is_quasi_rank_uniform, resolve

    ok, rows = is_quasi_rank_uniform(quasi_uniform_13())
    assert ok
    outcome = resolve(rows)
    assert not outcome.ok and "divisibility" in outcome.describe()


@pytest.mark.parametrize("tag", suites._triangular_corpus(0))
def test_triangular_chain_polynomial_from_rank_rows_matches_chain_counts(tag):
    """The uniform side has a least element, so every chain is C or C plus
    the least element for one chain C above it: the empty chain, counted by
    p_0 = 1, or one with maximum x of quasi-rank n >= 1, counted by p_n.
    So (1 + t) * sum_n #(rank n) p_n, read off the rank rows, is the chain
    polynomial the triangular suite reports, on either side."""
    witness = suites._check_triangular(tag, 0, {})
    p = build_instance(tag)
    rows, _, uniform = suites._rows_for_poset(p)
    sizes = uniform.quasi_rank_generating_polynomial().coeffs
    ps = tn.chain_polys_from_rmatrix(rows)
    by_rows = ExactPoly((1, 1)) * sum((k * pn for k, pn in zip(sizes, ps)), ExactPoly())
    assert witness["chain"] == by_rows.to_string() == p.chain_polynomial().to_string()


def test_triangular_suite_derives_the_level_counts_once_per_side_tested():
    """The uniformity test derives the level counts of each side it tests and
    keeps them, so counting the uniform side's chains derives none again:
    19 derivations for the 17 instances at seed 1, two of which test both sides."""
    with mock.patch.object(Poset, "_count_levels", autospec=True, side_effect=Poset._count_levels) as derived:
        reports = suite_run("triangular", seed=1)
    assert reports and all(r.verdict == "pass" for r in reports)
    assert derived.call_count == 19


def test_suite_seeds_are_reproducible():
    a = suite_run("diamond", seed=7)
    b = suite_run("diamond", seed=7)
    assert [(r.instance, r.verdict) for r in a] == [(r.instance, r.verdict) for r in b]


def test_import_does_not_load_the_thread_pool():
    # suites run serially; importing concurrent.futures would only cost resident memory
    code = "import sys, latchain, latchain.cli, latchain.suites; print('concurrent.futures' in sys.modules)"
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _records_of(argv, timeout, tmp_path):
    """Run ``latchain *argv --json`` in a killable child; its JSON records."""
    out = tmp_path / "records.jsonl"
    done = run_cli([*argv, "--json", str(out)], timeout=timeout)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in out.read_text().splitlines()]


def test_dowling_rows_at_n_24_within_budget(tmp_path):
    instances = ["dowling-rows:m=2:N=24", "dowling-rows:m=4:N=24"]
    (tmp_path / "instances.txt").write_text("\n".join(instances) + "\n")
    records = _records_of(["suite", "dowling", "--instances", str(tmp_path / "instances.txt")], 10, tmp_path)
    assert [(r["instance"], r["verdict"]) for r in records] == [(tag, "pass") for tag in instances]
    assert all(r["witness"]["rows"] == 24 for r in records)


DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "suites-seed0.jsonl"


def _records(path):
    """JSON lines without runtime_ms, the one field that varies between runs."""
    out = []
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        record.pop("runtime_ms")
        out.append(json.dumps(record, sort_keys=True))
    return out


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_suite_all_matches_golden_records(seed, tmp_path, capsys):
    out = tmp_path / "all.jsonl"
    assert main(["suite", "all", "--seed", str(seed), "--json", str(out)]) == 0
    assert "433/433 passed" in capsys.readouterr().out
    assert "\n".join(_records(out)) + "\n" == (DATA / f"suites-seed{seed}.jsonl").read_text()


def test_designs_skips_rank_selections_of_a_long_chain(tmp_path):
    # a rank-39 chain has 2^40 rank selections; the sweep must not try them
    (tmp_path / "instances.txt").write_text("chain:40\n")
    [record] = _records_of(["suite", "designs", "--instances", str(tmp_path / "instances.txt")], 10, tmp_path)
    assert record["verdict"] == "pass" and record["witness"]["rank_selections_checked"] == 0


@pytest.mark.parametrize(
    "p, witness",
    [
        # a two-element chain beside a point: 1 + 3t + t^2 has roots (-3 +- sqrt 5) / 2
        (
            Poset(3, [(0, 1)]),
            {
                "reason": "rank selection [0, 1] has a root outside [-1, 0]",
                "poly": "1 3 1",
                "root_intervals": [["-4", "-2"], ["-2", "0"]],
            },
        ),
        # chains 0 < 1 < 2 and 0 < 3 beside the point 4; ranks 0 and 1 give 1 + 4t + 2t^2
        (
            Poset(5, [(0, 1), (1, 2), (0, 3)]),
            {
                "reason": "rank selection [0, 1] has a root outside [-1, 0]",
                "poly": "1 4 2",
                "root_intervals": [["-3", "-3/2"], ["-3/2", "0"]],
            },
        ),
    ],
)
def test_rank_selection_sweep_failure_witnesses(p, witness):
    with pytest.raises(CheckFailure) as err:
        rank_selection_sweep(p)
    assert err.value.witness == witness


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (0, 1, 1, 1)])
def test_unit_interval_check_names_a_polynomial_that_is_not_real_rooted(coeffs):
    # 1 + t + t^2 has no real root; the chain polynomials of rank rows carry a factor t
    c = ExactPoly(coeffs)
    with pytest.raises(CheckFailure) as err:
        _check_unit_interval_roots(c, "p_2")
    assert err.value.witness == {"reason": "p_2 is not real-rooted", "poly": c.to_string()}


def test_rank_selection_sweep_counts():
    assert rank_selection_sweep(Poset(0)) == 0
    assert rank_selection_sweep(chain_poset(1)) == 1
    assert rank_selection_sweep(boolean_lattice(3)) == 15
    assert rank_selection_sweep(chain_poset(7)) == 127  # quasi-rank 6, the cap
    assert rank_selection_sweep(chain_poset(8)) == 0


@pytest.mark.parametrize(
    "p, count, certified",
    [
        (boolean_lattice(3), 15, 3),  # bottom and top are factor ranks
        (chain_poset(7), 127, 0),  # every rank is a factor
        (truncated_boolean(7, 1), 127, 31),
        (Poset(4, [(0, 2), (1, 2), (2, 3)]), 7, 1),  # ranks 1 and 2 are factors, rank 0 is not
        (Poset(2), 1, 1),
    ],
)
def test_rank_selection_sweep_certifies_only_factor_free_selections(monkeypatch, p, count, certified):
    calls = []
    check = suites._check_unit_interval_roots
    monkeypatch.setattr(suites, "_check_unit_interval_roots", lambda c, tag: calls.append(tag) or check(c, tag))
    assert rank_selection_sweep(p) == count
    assert len(calls) == certified


_SWEEP_SHAPES = ("no-least", "bottom-only", "top-only", "bounded", "middle-factor")


def _sweep_shape(rng: random.Random, shape: str, n: int) -> Poset:
    """A random poset of at most n + 2 elements in the given shape: beside
    an isolated point (no least element), over a new bottom, under a new
    top, between both, or stacked around one middle element that every
    element is comparable to."""
    point = Poset(1)
    if shape == "middle-factor":
        split = rng.randint(1, n - 1)
        return random_poset(rng, split).ordinal_sum(point).ordinal_sum(random_poset(rng, n - split))
    q = random_poset(rng, n)
    if shape == "bounded":
        return point.ordinal_sum(q).ordinal_sum(point)
    loose = Poset(n + 1, q.covers)  # the isolated point n makes two minimal elements
    if shape == "bottom-only":
        return point.ordinal_sum(loose)
    if shape == "top-only":
        return loose.ordinal_sum(point)
    return loose


def _sweep_outcome(sweep, p: Poset):
    """The count a sweep returns, or the witness of its first failure."""
    try:
        return sweep(p)
    except CheckFailure as err:
        return err.witness


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(_SWEEP_SHAPES), st.integers(2, 10))
def test_rank_selection_sweep_matches_the_all_masks_oracle(rng, shape, n):
    p = _sweep_shape(rng, shape, n)
    assert p.n <= 12
    assert _sweep_outcome(rank_selection_sweep, p) == _sweep_outcome(rank_selection_sweep_by_all_masks, p)


def test_every_sweep_shape_draws_passing_and_failing_posets():
    rng = random.Random(23)
    drawn = Counter()
    for shape in _SWEEP_SHAPES:
        for _ in range(40):
            p = _sweep_shape(rng, shape, rng.randint(2, 10))
            drawn[shape, isinstance(_sweep_outcome(rank_selection_sweep_by_all_masks, p), dict)] += 1
    assert all(drawn[shape, failed] for shape in _SWEEP_SHAPES for failed in (False, True)), drawn


@pytest.mark.parametrize("name", ["paving", "designs"])
def test_flag_f_vector_gives_the_rank_selections_of_the_corpus(name):
    corpus, _ = _SUITES[name]
    for tag in corpus(0):
        assert_flags_give_rank_selections(build_instance(tag))


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_reported_instances_reproduce_their_records(name, tmp_path):
    expected = [line for line in GOLDEN.read_text().splitlines() if json.loads(line)["suite"] == name][:3]
    tags = [json.loads(record)["instance"] for record in expected]
    instances = tmp_path / "instances.txt"
    instances.write_text("\n".join(tags) + "\n")
    again = tmp_path / "again.jsonl"
    rc = main(["suite", name, "--instances", str(instances), "--seed", "0", "--json", str(again)])
    replayed = [json.loads(line) for line in _records(again)]
    assert [r["instance"] for r in replayed] == tags
    assert rc == 0
    assert _records(again) == expected


def test_rank3_tags_draw_their_lattice_again():
    tags = ["rank3-random:seed=0:i=000", "rank3-random:seed=0:i=005", "rank3-random:seed=0:i=199"]
    golden = {json.loads(line)["instance"]: json.loads(line) for line in GOLDEN.read_text().splitlines()}
    for report in suite_run("rank3", instances=tags, seed=0):
        assert (report.verdict, report.witness) == (golden[report.instance]["verdict"], golden[report.instance]["witness"])
    for report in suite_run("rank3", instances=["rank3-random:seed=0:i=-1", "rank3-random:seed=0:i=200"]):
        assert report.verdict == "error" and "draw index out of range 0..199" in report.witness["exception"]


def test_rank3_replay_builds_one_lattice():
    """A replayed tag draws the lines of the draws before it and builds only
    its own lattice, the same one the corpus built."""
    built = []
    build = suites.linear_space_lattice
    with mock.patch.object(suites, "linear_space_lattice", lambda n, lines: built.append(n) or build(n, lines)):
        [report] = suite_run("rank3", instances=["rank3-random:seed=1:i=199"], seed=1)
    assert len(built) == 1
    corpus = {r.instance: r.witness for r in suite_run("rank3", seed=1)}
    assert report.verdict == "pass"
    assert report.witness == corpus["rank3-random:seed=1:i=199"]


def test_rank3_replay_draws_each_seed_once():
    """The tags of one run share their seed's draws; a later run draws again."""
    tags = [f"rank3-random:seed=1:i={i:03d}" for i in reversed(range(200))]
    drawn = []
    draw = suites._rank3_lines
    with mock.patch.object(suites, "_rank3_lines", lambda rng: drawn.append(1) or draw(rng)):
        reports = suite_run("rank3", instances=tags, seed=1)
        assert len(drawn) == 200
        [again] = suite_run("rank3", instances=tags[:1], seed=1)
        assert len(drawn) == 400
    assert {r.verdict for r in reports} == {"pass"}
    corpus = {r.instance: r.witness for r in suite_run("rank3", seed=1)}
    assert {r.instance: r.witness for r in reports} == corpus and again.witness == corpus[tags[0]]


def _records_by_instance(reports):
    return [(r.instance, r.verdict, r.witness) for r in reports]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", ["rank3", "ordinal-sum", "see"])
def test_corpus_run_and_the_replay_of_its_tags_give_equal_records(name, seed):
    """The suites whose checks share builds give each tag of the corpus the
    record its replay gives, forwards and backwards."""
    corpus = suite_run(name, seed=seed)
    tags = [r.instance for r in corpus]
    assert {r.verdict for r in corpus} == {"pass"}
    for order in (tags, tags[::-1]):
        assert _records_by_instance(suite_run(name, instances=order, seed=seed)) == _records_by_instance(corpus)


_READERS = {"stacked-rows": "build_rows", "stacked-posets": "build_instance"}


def _summand_builds(tags):
    """The reader and name of each summand that ordinal-sum tags name, in first-use order."""
    names = ((tag.split(":")[0], name) for tag in tags for name in tag.split(":", 3)[3].split("+"))
    return [(_READERS[kind], name) for kind, name in dict.fromkeys(names)]


@contextmanager
def _counted_builds():
    """The calls to the suites' builders of summands, hosts and products, in
    order, as (builder, argument) pairs; a product's argument is (n, k)."""
    built = []

    def counting(name, build):
        def counted(*args):
            built.append((name, args[0] if len(args) == 1 else args))
            return build(*args)

        return counted

    with ExitStack() as stack:
        for name in ("build_rows", "build_instance", "_see_product"):
            stack.enter_context(mock.patch.object(suites, name, counting(name, getattr(suites, name))))
        yield built


def test_ordinal_sum_suite_builds_each_pool_entry_once():
    """Each summand is built once per run, in first-use order."""
    with _counted_builds() as built:
        reports = suite_run("ordinal-sum", seed=0)
    assert len(reports) == 32 and {r.verdict for r in reports} == {"pass"}
    assert built == _summand_builds(_ordinal_sum_corpus(0))
    assert sorted(name for _, name in built) == sorted([*suites._ROW_POOL, *suites._BOUNDED_POOL])


def test_see_suite_builds_each_host_once():
    """Each host is built once per run, in first-use order."""
    with _counted_builds() as built:
        reports = suite_run("see", seed=0)
    assert len(reports) == 100 and {r.verdict for r in reports} == {"pass"}
    hosts = [f"{host}:{n}{cut}" for n in (3, 4, 5) for host, cut in (("boolean", ""), ("trunc-boolean", ":1"))]
    assert [dsl for reader, dsl in built if reader == "build_instance"] == hosts


def test_see_suite_builds_each_product_once():
    """Each product is built once per run, in first-use order."""
    with _counted_builds() as built:
        reports = suite_run("see", seed=0)
    assert sum("product_isomorphic" in r.witness for r in reports) == 38
    assert [nk for reader, nk in built if reader == "_see_product"] == [(n, k) for n in (3, 4, 5) for k in range(2, n)]


def test_replays_build_each_shared_value_once():
    """A replay of the corpus tags shares its builds as the corpus run does:
    6 hosts and 6 products for see, 15 summands for ordinal-sum, at seed 1."""
    see_tags = [r.instance for r in suite_run("see", seed=1)]
    with _counted_builds() as built:
        reports = suite_run("see", instances=see_tags, seed=1)
    assert {r.verdict for r in reports} == {"pass"}
    assert Counter(reader for reader, _ in built) == {"build_instance": 6, "_see_product": 6}
    assert len(set(built)) == 12
    sum_tags = [r.instance for r in suite_run("ordinal-sum", seed=1)]
    with _counted_builds() as built:
        reports = suite_run("ordinal-sum", instances=sum_tags, seed=1)
    assert {r.verdict for r in reports} == {"pass"}
    assert built == _summand_builds(sum_tags) and len(built) == 15


_ROWS_TAG = "stacked-rows:seed=0:i=00:dowling-rows:m=1:N=4+boolean-rows:3"
_POSETS_TAG = "stacked-posets:seed=0:i=00:dowling-rows:m=1:N=4+boolean:2"


@pytest.mark.parametrize("order", [(_ROWS_TAG, _POSETS_TAG), (_POSETS_TAG, _ROWS_TAG)])
def test_shared_summands_are_keyed_by_their_reader(order):
    """A summand name read as rank rows is never handed to a stacked-posets
    tag, whichever tag comes first; a build that raises is not stored."""
    alone = {tag: _records_by_instance(suite_run("ordinal-sum", instances=[tag])) for tag in order}
    assert _records_by_instance(suite_run("ordinal-sum", instances=list(order))) == sorted(sum(alone.values(), []))
    [(_, verdict, witness)] = alone[_POSETS_TAG]
    assert verdict == "error"
    assert witness == {"exception": "ValueError: dowling-rows builds rank rows, not a poset"}
    again = "stacked-posets:seed=0:i=01:boolean:2+dowling-rows:m=1:N=4"
    with _counted_builds() as built:
        reports = suite_run("ordinal-sum", instances=[*order, again])
    assert [r.witness for r in reports if r.instance.startswith("stacked-posets")] == [witness, witness]
    assert built.count(("build_rows", "dowling-rows:m=1:N=4")) == 1
    assert built.count(("build_instance", "dowling-rows:m=1:N=4")) == 2


def test_see_suite_derives_the_atom_names_twice_per_cut():
    """_extend_by_cuts derives a host's atom names once per layer and
    single_element_extension once more; _named_isomorphism reads the new atom
    off the extension's top label. The 100 instances at seed 1 have one layer each."""
    counted = mock.Mock(wraps=families._atom_names)
    with mock.patch.object(families, "_atom_names", counted):
        reports = suite_run("see", seed=1)
    assert {r.verdict for r in reports} == {"pass"}
    assert counted.call_count == 200


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_see_suite_decides_every_product_by_its_named_isomorphism(seed):
    reports = suite_run("see", seed=seed)
    assert {r.verdict for r in reports} == {"pass"}
    assert sum(r.witness.get("product_isomorphic", False) for r in reports) == 38


def _boolean_cut(n, members):
    """The extension of B_n along the cut of the atoms ``members``, and its product."""
    ext = build_instance(f"see:boolean:{n}:cut={','.join(map(str, members))}")
    return ext, suites._see_product(n, len(members))


def test_named_isomorphism_holds_on_every_boolean_cut():
    for n in range(3, 7):
        for k in range(2, n):
            for members in combinations(range(1, n + 1), k):
                ext, product = _boolean_cut(n, members)
                assert suites._named_isomorphism(ext, product, members)
                assert is_isomorphic(ext, product)


def _wrong_split(ext, product, n, members):
    k = len(members)
    return ext, truncated_boolean(k + 2, 1).direct_product(boolean_lattice(n - k - 1)), False


def _one_cover_dropped(ext, product, n, members):
    covers = list(ext.covers)
    del covers[len(covers) // 2]
    return Poset(ext.n, covers, ext.labels), product, False


def _two_labels_swapped(ext, product, n, members):
    labels = list(ext.labels)
    labels[1], labels[2] = labels[2], labels[1]  # two atoms, one of them the new atom
    return Poset(ext.n, ext.covers, labels), product, True


@pytest.mark.parametrize("mutate", [_wrong_split, _one_cover_dropped, _two_labels_swapped])
@pytest.mark.parametrize("n, members", [(4, (1, 2)), (5, (2, 4, 5)), (6, (1, 3))])
def test_named_isomorphism_refuses_mutants_and_the_search_decides(mutate, n, members):
    ext, product, isomorphic = mutate(*_boolean_cut(n, members), n, members)
    assert not suites._named_isomorphism(ext, product, members)
    assert is_isomorphic(ext, product) == isomorphic


def _cover_moved(product, i):
    """The product with its i-th cover (a, b) moved to (a, c), c the first
    element that is neither a, nor above a by one cover, nor below a: same
    labels, as many covers, and (a, c) the i-th cover, as the covers are
    listed by their lower end and in each list's order."""
    a, b = product.covers[i]
    up, down = product._cover_up[a], product.down_mask(a)
    c = next(c for c in range(product.n) if c not in up and not down >> c & 1)
    cover_up = [list(ys) for ys in product._cover_up]
    cover_up[a][up.index(b)] = c
    below = {y: [x for x, ys in enumerate(cover_up) if y in ys] for y in range(product.n)}
    order = list(TopologicalSorter(below).static_order())
    return Poset._from_covers(product.n, cover_up, order, product.labels), (a, c)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("n, members", [(4, (1, 2)), (5, (2, 4, 5)), (6, (1, 3))])
def test_named_isomorphism_refuses_a_moved_product_cover(where, n, members):
    ext, product = _boolean_cut(n, members)
    i = {"first": 0, "middle": len(product.covers) // 2, "last": len(product.covers) - 1}[where]
    moved, pair = _cover_moved(product, i)
    assert moved.labels == product.labels and len(moved.covers) == len(product.covers)
    assert moved.covers[i] == pair and pair not in product.covers
    assert not suites._named_isomorphism(ext, moved, members)


def test_see_suite_tests_each_lattice_for_geometricity_once():
    """The six hosts and the 100 extensions, each once, though every cut
    validates its host."""
    tested = []
    covering = tn._has_covering_property
    with mock.patch.object(tn, "_has_covering_property", lambda p: tested.append(p) or covering(p)):
        reports = suite_run("see", seed=0)
    assert {r.verdict for r in reports} == {"pass"}
    assert len(tested) == len(set(map(id, tested))) == 106


@pytest.mark.parametrize("cut", ["1,1", "1,2,2"])
def test_see_repeated_cut_member_is_an_error_verdict(cut):
    # the cut is a set; counting the repeated member twice once gave a false product mismatch
    [report] = suite_run("see", instances=[f"see:boolean:4:cut={cut}"])
    assert report.verdict == "error"
    assert "repeated cut member" in report.witness["exception"]


def test_see_nested_deeper_than_the_recursion_limit_is_checked():
    depth = sys.getrecursionlimit() + 200
    [report] = suite_run("see", instances=["see:" * depth + "boolean:3" + ":cut=1" * depth])
    assert report.verdict == "pass"


def test_paving_d_below_one_is_an_error_verdict_naming_d(tmp_path):
    path = tmp_path / "negative-d.txt"
    path.write_text("dpartition -1\nground 1 2 3\nblock 1 2\nblock 2 3\n")
    [report] = suite_run("paving", instances=[f"paving:file={path}"])
    assert report.verdict == "error"
    assert report.witness == {"exception": "ValueError: a d-partition needs d >= 1, got d=-1"}


@pytest.mark.parametrize(
    "name, instance, fields",
    [
        ("counterexample", "counterexample:n=3:qmax=10:n=4", "n=...:qmax=..."),
        ("counterexample", "counterexample:n=3", "n=...:qmax=..."),
        ("diamond", "product-pair:seed=1:i=2:junk=3", "seed=...:i=..."),
        ("ordinal-sum", "stacked-rows:garbage:more:boolean-rows:3+chain-rows:4", "seed=...:i=..."),
    ],
)
def test_repeated_unknown_or_missing_fields_are_error_verdicts(name, instance, fields):
    [report] = suite_run(name, instances=[instance])
    assert report.verdict == "error"
    assert f"takes the fields {fields}, got " in report.witness["exception"]


@pytest.mark.parametrize(
    "instance, suite, message",
    [
        ("counterexample:n=٣:qmax=+8", "counterexample", "invalid literal for int() with base 10: '٣'"),
        ("product-pair:seed=1_0:i=00", "diamond", "invalid literal for int() with base 10: '1_0'"),
        ("stacked-rows:seed=1:i=00:boolean-rows:3", "ordinal-sum",
         "stacked-rows takes two instances joined by one '+', got 'boolean-rows:3'"),
        ("stacked-posets:seed=1:i=00:chain:2+chain:2+chain:2", "ordinal-sum",
         "stacked-posets takes two instances joined by one '+', got 'chain:2+chain:2+chain:2'"),
        ("stacked-rows:seed=1:i=00:foo-rows:3+chain-rows:2", "ordinal-sum",
         "unknown row family 'foo-rows'; known: boolean-rows, chain-rows, trunc-rows, dowling-rows"),
        ("stacked-posets:seed=1:i=00:dowling-rows:m=1:N=2+chain:2", "ordinal-sum",
         "dowling-rows builds rank rows, not a poset"),
        ("dowling-rows:m=1:N=2", "rank3", "dowling-rows builds rank rows, not a poset"),
        ("dowling-rows:m=1:N=2", "paving", "dowling-rows builds rank rows, not a poset"),
        ("dowling-rows:m=1:N=2", "designs", "dowling-rows builds rank rows, not a poset"),
        ("dowling-rows:m=1:N=2", "triangular", "dowling-rows builds rank rows, not a poset"),
        ("dowling-rows:m=1:N=2", "see", "dowling-rows builds rank rows, not a poset"),
        ("boolean:3", "dowling", "expected a dowling-rows:... instance, got 'boolean:3'"),
    ],
)
def test_malformed_tags_get_an_error_verdict_naming_the_rule(instance, suite, message):
    [report] = suite_run(suite, instances=[instance])
    assert report.verdict == "error"
    assert report.witness == {"exception": f"ValueError: {message}"}


def test_a_signed_summand_integer_is_not_a_summand_boundary():
    plain, signed = suite_run("ordinal-sum", instances=[
        "stacked-rows:seed=1:i=00:boolean-rows:2+chain-rows:3",
        "stacked-rows:seed=1:i=00:boolean-rows:+2+chain-rows:+3",
    ])
    assert plain.verdict == signed.verdict == "pass"
    assert plain.witness == signed.witness == {"order": 5}


def _mutated_dowling_rows(m, N):
    """dowling_rows with the weight 1 + m*i of W(n-1, i) replaced by 1 + m*i + i*(i - 1):
    right in rows 0 to 2, wrong from W(3, 2) on."""
    rows = [(1,)]
    for n in range(1, N + 1):
        prev = (0, *rows[-1], 0)
        rows.append(tuple(prev[i] + (1 + m * i + i * (i - 1)) * prev[i + 1] for i in range(n + 1)))
    return RMatrix.from_int_rows(rows)


def test_dowling_check_fails_on_mutated_rows(monkeypatch):
    monkeypatch.setattr(suites, "dowling_rows", _mutated_dowling_rows)
    [report] = suite_run("dowling", instances=["dowling-rows:m=1:N=4"])
    assert report.verdict == "fail"
    # W(3, k) for the trivial group are the Stirling numbers S(4, k + 1)
    assert report.witness == {
        "reason": "rows disagree with the closed form of the Whitney numbers",
        "row": 3,
        "expected": ExactPoly((1, 7, 6, 1)).to_string(),
        "got": ExactPoly((1, 7, 8, 1)).to_string(),
    }


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_unknown_instance_is_an_error_verdict(name, tmp_path, capsys):
    instances = tmp_path / "instances.txt"
    instances.write_text("no-such-family:3\n")
    assert main(["suite", name, "--instances", str(instances)]) == 1
    captured = capsys.readouterr()
    assert f"ERROR {name} no-such-family:3" in captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: q_eulerian(31, 2), "permutation size out of range: 31"),
        (lambda: counterexample_search(2), "need n >= 3"),
        (lambda: rank3_formula(boolean_lattice(4)), "expected a bounded rank-3 lattice"),
    ],
)
def test_checks_refuse_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
