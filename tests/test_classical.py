"""Classical densities: purity, decomposition, products, marginals."""

import numpy as np
import pytest

from entanglekit.classical import (
    ClassicalSeparableCert,
    ClassicalState,
    CompositeClassicalState,
    PhaseSpace,
    classical_pure,
    classical_tensor,
    classify_classical,
    is_product_composite,
    marginal,
)
from entanglekit.linalg import Tolerance
from entanglekit.verify import _suite_classical_decomposition

AB = PhaseSpace(("a", "b"))
CD = PhaseSpace(("c", "d"))


def _rand_state(rng, space):
    probs = rng.dirichlet(np.ones(len(space)))
    return ClassicalState(space, {lab: float(p) for lab, p in zip(space.labels, probs)})


def _point_masses(f):
    """f split into weighted point masses, as the classical-convex-decomposition suite splits it."""
    return [(p, classical_pure(f.space, x)) for x, p in f.probs.items()]


def _point(sx, sy, x, y):
    return CompositeClassicalState(sx, sy, {(x, y): 1.0})


def _rand_composite(rng, sx, sy):
    probs = rng.dirichlet(np.ones(len(sx) * len(sy)))
    points = [(x, y) for x in sx.labels for y in sy.labels]
    return CompositeClassicalState(sx, sy, {pt: float(p) for pt, p in zip(points, probs)})


class TestPhaseSpace:
    def test_labels_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            PhaseSpace(("a", "a"))

    def test_labels_must_be_nonempty(self):
        with pytest.raises(ValueError):
            PhaseSpace(())
        with pytest.raises(ValueError):
            PhaseSpace(("a", ""))


class TestClassicalState:
    def test_pure_state(self):
        f = classical_pure(AB, "a")
        assert f.probs == {"a": 1.0}
        assert f.is_pure

    def test_singleton_space(self):
        space = PhaseSpace(("a",))
        assert classical_pure(space, "a").probs == {"a": 1.0}

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="not in phase space"):
            classical_pure(AB, "z")

    def test_zero_entries_dropped(self):
        f = ClassicalState(AB, {"a": 1.0, "b": 0.0})
        assert f.support == ("a",)

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ClassicalState(AB, {"a": 0.5, "b": 0.4})

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            ClassicalState(AB, {"a": 1.1, "b": -0.1})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown label"):
            ClassicalState(AB, {"a": 1.0, "z": 0.0})


class TestDecomposePure:
    def test_pure_state_is_single_term(self):
        assert _point_masses(classical_pure(AB, "a")) == [(1.0, classical_pure(AB, "a"))]

    def test_two_point_state(self):
        f = ClassicalState(AB, {"a": 0.3, "b": 0.7})
        assert _point_masses(f) == [
            (0.3, classical_pure(AB, "a")),
            (0.7, classical_pure(AB, "b")),
        ]

    def test_recombination_is_exact(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            space = PhaseSpace(tuple(f"x{k}" for k in range(int(rng.integers(2, 7)))))
            f = _rand_state(rng, space)
            recombined = {}
            for w, fx in _point_masses(f):
                assert fx.is_pure
                recombined[fx.support[0]] = recombined.get(fx.support[0], 0.0) + w
            assert recombined == f.probs
        assert _suite_classical_decomposition(rng, 50, Tolerance()) == 50


class TestClassicalTensor:
    def test_pure_tensor_pure_is_composite_pure(self):
        left = classical_tensor(classical_pure(AB, "a"), classical_pure(CD, "c"))
        assert left.probs == _point(AB, CD, "a", "c").probs

    def test_all_pairs_bit_equal(self):
        sx = PhaseSpace(tuple(f"x{k}" for k in range(4)))
        sy = PhaseSpace(tuple(f"y{k}" for k in range(4)))
        for x in sx.labels:
            for y in sy.labels:
                left = classical_tensor(classical_pure(sx, x), classical_pure(sy, y))
                assert left.probs == _point(sx, sy, x, y).probs

    def test_uniform_times_pure(self):
        f = ClassicalState(AB, {"a": 0.5, "b": 0.5})
        h = classical_tensor(f, classical_pure(CD, "c"))
        assert h.probs == {("a", "c"): 0.5, ("b", "c"): 0.5}

    def test_marginals_recover_factors(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            f, g = _rand_state(rng, AB), _rand_state(rng, CD)
            h = classical_tensor(f, g)
            mf, mg = marginal(h, "first"), marginal(h, "second")
            for x in AB.labels:
                assert abs(mf.prob(x) - f.prob(x)) <= 1e-12
            for y in CD.labels:
                assert abs(mg.prob(y) - g.prob(y)) <= 1e-12


class TestMarginal:
    def test_composite_pure_reduces_to_pure(self):
        h = _point(AB, CD, "a", "c")
        assert marginal(h, "second").probs == {"c": 1.0}
        assert marginal(h, "first").probs == {"a": 1.0}

    def test_correlated_state(self):
        h = CompositeClassicalState(AB, CD, {("a", "c"): 0.5, ("b", "d"): 0.5})
        assert marginal(h, "first").probs == {"a": 0.5, "b": 0.5}

    def test_bad_side_rejected(self):
        h = _point(AB, CD, "a", "c")
        with pytest.raises(ValueError, match="side"):
            marginal(h, "third")


class TestClassifyClassical:
    def test_composite_pure_gives_single_product_term(self):
        cert = classify_classical(_point(AB, CD, "a", "c"))
        assert cert.terms == ((1.0, classical_pure(AB, "a"), classical_pure(CD, "c")),)

    def test_correlated_state_is_separable_with_two_terms(self):
        h = CompositeClassicalState(AB, CD, {("a", "c"): 0.5, ("b", "d"): 0.5})
        cert = classify_classical(h)
        assert len(cert.terms) == 2
        assert cert.recombine().probs == h.probs

    def test_every_random_composite_gets_a_certificate(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            sx = PhaseSpace(tuple(f"x{k}" for k in range(int(rng.integers(2, 6)))))
            sy = PhaseSpace(tuple(f"y{k}" for k in range(int(rng.integers(2, 6)))))
            h = _rand_composite(rng, sx, sy)
            cert = classify_classical(h)
            assert len(cert.terms) == len(h.probs)
            # independent recombination
            acc = {}
            for w, fx, gy in cert.terms:
                for x, px in fx.probs.items():
                    for y, py in gy.probs.items():
                        acc[(x, y)] = acc.get((x, y), 0.0) + w * px * py
            assert set(acc) == set(h.probs)
            assert max(abs(acc[pt] - h.probs[pt]) for pt in acc) <= 1e-9

    def test_certificate_rejects_mixed_factors(self):
        f = ClassicalState(AB, {"a": 0.5, "b": 0.5})
        with pytest.raises(ValueError, match="pure"):
            ClassicalSeparableCert(((1.0, f, classical_pure(CD, "c")),))


class TestIsProductComposite:
    def test_recovers_random_product_factors(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            f, g = _rand_state(rng, AB), _rand_state(rng, CD)
            h = classical_tensor(f, g)
            recovered = is_product_composite(h)
            assert recovered is not None
            rf, rg = recovered
            rebuilt = classical_tensor(rf, rg)
            assert max(
                abs(rebuilt.prob(x, y) - h.prob(x, y))
                for x in AB.labels
                for y in CD.labels
            ) <= 1e-9

    def test_correlated_state_is_not_a_product(self):
        h = CompositeClassicalState(AB, CD, {("a", "c"): 0.5, ("b", "d"): 0.5})
        assert is_product_composite(h) is None

    def test_composite_pure_is_a_product_of_pures(self):
        recovered = is_product_composite(_point(AB, CD, "a", "c"))
        assert recovered is not None
        rf, rg = recovered
        assert rf.probs == {"a": 1.0}
        assert rg.probs == {"c": 1.0}


# constructor refusals no other test reaches: (case, build, message)
REFUSALS = [
    ("unknown-x", lambda: CompositeClassicalState(AB, CD, {("z", "c"): 1.0}),
     "probability assigned to unknown point ('z', 'c')"),
    ("unknown-y", lambda: CompositeClassicalState(AB, CD, {("a", "c"): 0.5, ("b", "z"): 0.5}),
     "probability assigned to unknown point ('b', 'z')"),
    ("cert-without-terms", lambda: ClassicalSeparableCert(()),
     "certificate needs at least one term"),
]


@pytest.mark.parametrize("build, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusal_names_its_cause(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
