"""Tests of the benchmark itself: small runs of every workload, planted faults,
and the oracles against the library on inputs where both are cheap.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import latchain as lc  # noqa: E402
from latchain import polynomial, suites, tn  # noqa: E402

import harness  # noqa: E402
import oracles as O  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _small_run(workload: str, trace: bool = False) -> dict:
    return harness.run(workload, seed=5, seconds=0, trace=trace, small=True, setup_samples=1)["result"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_run_prints_every_metric(workload):
    result = _small_run(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _ in harness.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = _small_run(workload, trace=True)
    assert traced["correct"]
    assert list(traced["metrics"]) == [name for name, _ in harness.per_layer_metrics()]
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_traced_run_attributes_the_dominant_layer():
    metrics = _small_run("rows-interlace", trace=True)["metrics"]
    assert metrics["polynomial.interlaces.calls"]["value"] > 0
    assert metrics["tn.resolve.max_order"]["value"] == 4
    assert metrics["polynomial.self_s"]["value"] > metrics["tn.self_s"]["value"]
    assert metrics["permstats.eulerian.calls"]["value"] == 0


def test_tracing_leaves_the_library_as_it_was():
    before = (lc.interlaces, suites.interlaces, tn.resolve, lc.Poset.chain_polynomial, lc.Poset.is_lattice)
    with tracing.Tracer().installed():
        assert suites.interlaces is not before[1]
    after = (lc.interlaces, suites.interlaces, tn.resolve, lc.Poset.chain_polynomial, lc.Poset.is_lattice)
    assert all(a is b for a, b in zip(before, after))


def _always_true(original):
    return lambda *args, **kwargs: True


@pytest.mark.parametrize("workload", ["rows-interlace", "q-scan", "suite-corpus"])
def test_planted_interlacing_fault_is_caught(workload):
    with tracing.patched(polynomial, "interlaces", _always_true):
        result = _small_run(workload)
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_planted_geometric_fault_is_caught():
    with tracing.patched(tn, "is_geometric", _always_true):
        result = _small_run("lattice-verify")
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_benchmark_json_names_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == harness.per_layer_metrics()


# -- the oracles ---------------------------------------------------------------------


def _random_real_rooted(rng: random.Random, degree: int, pool) -> tuple:
    p = (1,)
    for _ in range(degree):
        p = O.mul(p, (rng.choice(pool), 1))
    return p


def test_cauchy_index_interlacing_matches_root_isolation():
    rng = random.Random(7)
    for _ in range(300):
        pool = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)]
        m = rng.randint(0, 5)
        g = _random_real_rooted(rng, m, pool)
        f = _random_real_rooted(rng, m + rng.choice([0, 1, 1, 2]), pool)
        if rng.random() < 0.3:  # shared irrational pair
            quad = (-rng.choice([2, 3, 5]), 0, 1)
            g, f = O.mul(g, quad), O.mul(f, quad)
        assert O.interlaces(g, f) == lc.interlaces(lc.ExactPoly(g), lc.ExactPoly(f)), (g, f)


def test_real_rootedness_and_unit_interval_oracles():
    assert not O.real_rooted((1, 1, 1))
    assert not O.real_rooted(O.mul((1, 1, 1), (1, 1, 1)))  # repeated complex pair
    assert O.real_rooted((-2, 0, 1)) and not O.roots_in_minus_one_zero((-2, 0, 1))
    assert O.roots_in_minus_one_zero((0, 1, 2, 1)) and not O.roots_in_minus_one_zero((2, 3, 1))
    for n in (5, 7):
        p = lc.chain_polys_from_rmatrix(lc.dowling_rows(2, n))[n].coeffs
        assert O.real_rooted(p) and O.roots_in_minus_one_zero(p)


def test_flag_counts_match_the_brute_force_walk():
    cases = [
        (lc.boolean_lattice(4), O.flag_chain_counts(4, O.boolean_up(4))),
        (lc.partition_lattice(4), O.flag_chain_counts(3, O.partition_up(4))),
        (lc.subspace_lattice(3, 2), O.flag_chain_counts(3, O.subspace_up(3, 2))),
        (lc.affine_lattice(2, 2), O.flag_chain_counts(3, O.affine_up(2, 2))),
        (lc.truncated_boolean(5, 2), O.flag_chain_counts(3, O.truncated_up(O.boolean_up(5), 2))),
    ]
    for lattice, counts in cases:
        assert counts == O.trim(suites.brute_force_oracle(lattice))


def test_permutation_identities():
    assert O.eulerian_numbers(4) == (1, 11, 11, 1)
    q = Fraction(5, 3)
    assert sum(lc.q_eulerian(5, q).coeffs) == O.q_factorial(5, q)
