"""The verification-suite machinery itself: determinism and falsifiability."""

import json

import numpy as np
import pytest

from entanglekit import verify
from entanglekit.cli import main
from entanglekit.linalg import Tolerance
from entanglekit.quantum import DensityOperator
from entanglekit.separability import product_pure
from entanglekit.verify import (
    DEFAULT_SEED,
    SuiteResult,
    _exact_rank,
    _float_row_reduction_rank,
    bell_vector,
    rand_unitary,
    run_all,
)


def test_all_suites_pass():
    results = run_all(instances=25)
    assert len(results) == 14
    for r in results:
        assert isinstance(r, SuiteResult)
        assert r.passed, (r.name, r.counterexample)
        assert r.counterexample is None


def test_fixed_seed_is_deterministic():
    a = run_all(seed=99, instances=10)
    b = run_all(seed=99, instances=10)
    assert [(r.name, r.passed, r.instances) for r in a] == [
        (r.name, r.passed, r.instances) for r in b
    ]


def test_suite_names_are_unique():
    names = [r.name for r in run_all(instances=5)]
    assert len(names) == len(set(names))


def test_tight_tolerance_produces_failures_with_counterexamples():
    # with an absurdly tight eps the floating-point suites must fail and
    # report a reproducing instance: the machinery is falsifiable
    results = run_all(instances=10, tol=Tolerance(1e-300))
    failed = [r for r in results if not r.passed]
    assert failed
    assert all(isinstance(r.counterexample, dict) for r in failed)


def test_rank_oracles_agree_with_each_other():
    rng = np.random.default_rng(123)
    for _ in range(100):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        m = rng.integers(-3, 4, (rows, cols))
        assert _exact_rank(m) == _float_row_reduction_rank(m.astype(complex), 1e-9)


def test_bell_vector_is_unit_norm():
    assert abs(bell_vector().norm - 1.0) <= 1e-12


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(124)
    u = rand_unitary(rng, 5)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-10)


def test_default_seed_is_stable_constant():
    assert DEFAULT_SEED == 1729


def test_product_projector_suite_checks_product_pure(monkeypatch):
    # a product_pure that drifts 1e-8 from the joint projector is still a
    # density; the suite must catch it by comparing the matrices
    def drifted(x, y):
        rho = product_pure(x, y)
        return DensityOperator((1 - 1e-8) * rho.mat + 1e-8 * np.eye(rho.dim) / rho.dim)

    monkeypatch.setattr(verify, "product_pure", drifted)
    results = {r.name: r for r in run_all(instances=5)}
    suite = results["product-projector-identity"]
    assert not suite.passed
    assert 1e-10 < suite.counterexample["max_abs_difference"] <= 1e-8


@pytest.mark.parametrize("seed, instances", [(1729, 25), (5, 50), (5, 100)])
def test_every_suite_passes_at_coarse_tolerance(seed, instances):
    # (1729, 25) and (5, 50) draw valid decompositions with a term of weight
    # just above eps; (5, 100) draws a 6 x 6 integer matrix of rank 6 whose
    # smallest singular value, 0.0096, lies under the cut 1e-3 * 9.69
    for r in run_all(seed=seed, instances=instances, tol=Tolerance(1e-3)):
        assert r.passed, (r.name, r.counterexample)


def _fake_suite(name, outcome):
    def fn(rng, n, tol):
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    fn.suite_name, fn.suite_description = name, f"{name} suite"
    return fn


@pytest.fixture
def three_outcomes(monkeypatch):
    # one suite per outcome run_all knows: a pass, a counterexample, a blow-up
    monkeypatch.setattr(verify, "_SUITES", [
        _fake_suite("passes", 7),
        _fake_suite("counterexample", verify._Counterexample({"k": 1})),
        _fake_suite("blows-up", RuntimeError("boom")),
    ])


def test_run_all_reports_each_outcome(three_outcomes):
    results = run_all(instances=3)
    assert [(r.name, r.description, r.passed, r.instances, r.counterexample) for r in results] == [
        ("passes", "passes suite", True, 7, None),
        ("counterexample", "counterexample suite", False, 3, {"k": 1}),
        ("blows-up", "blows-up suite", False, 3, {"error": "RuntimeError: boom"}),
    ]


def test_cli_report_carries_the_suite_fields_in_order(three_outcomes, capsys):
    assert main(["verify", "--json", "--instances", "3"]) == 1
    suites = json.loads(capsys.readouterr().out)["result"]["suites"]  # json keeps the key order
    keys = ["name", "description", "passed", "instances"]
    assert [list(s) for s in suites] == [keys, keys + ["counterexample"], keys + ["counterexample"]]
    assert [s.get("counterexample") for s in suites] == [
        None, {"k": 1}, {"error": "RuntimeError: boom"}
    ]
