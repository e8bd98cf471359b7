"""Acceptance suite: every headline guarantee at its stated tolerance.

Each test prints one line on success; pytest's own report provides the
per-test pass/fail lines.  Tolerances and instance counts here are fixed
contracts, not tunables.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from entanglekit.bipartite import (
    BipartiteDims,
    BipartiteVector,
    kron_op,
    kron_vec,
    partial_trace,
    schmidt,
)
from entanglekit.classical import (
    CompositeClassicalState,
    PhaseSpace,
    classical_pure,
    classical_tensor,
    classify_classical,
)
from entanglekit.cli import main
from entanglekit.linalg import Tolerance, is_hermitian, is_positive
from entanglekit.quantum import MixedEnsemble, PureState, is_density, mix, projector
from entanglekit.separability import (
    SeparableDecomposition,
    Verdict,
    check_range_criterion,
    classify,
)
from entanglekit.verify import _factor_positive, _mixture_vs_superposition

SAMPLES = Path(__file__).resolve().parent.parent / "sample_states"


def _pass(label):
    print(f"[acceptance] {label}: PASS")


def _rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rand_unit(rng, d):
    v = _rand_complex(rng, d)
    return v / np.linalg.norm(v)


def _rand_independent_pair(rng, d):
    while True:
        a, b = _rand_complex(rng, d), _rand_complex(rng, d)
        s = np.linalg.svd(np.column_stack([a, b]), compute_uv=False)
        if s[-1] > 0.2 * s[0]:
            return a, b


def test_classical_certificates_recombine():
    rng = np.random.default_rng(1001)
    for _ in range(200):
        sx = PhaseSpace(tuple(f"x{k}" for k in range(int(rng.integers(2, 6)))))
        sy = PhaseSpace(tuple(f"y{k}" for k in range(int(rng.integers(2, 6)))))
        points = [(x, y) for x in sx.labels for y in sy.labels]
        weights = rng.dirichlet(np.ones(len(points)))
        h = CompositeClassicalState(sx, sy, {pt: float(p) for pt, p in zip(points, weights)})
        cert = classify_classical(h)
        acc = {}
        for w, fx, gy in cert.terms:
            for x, px in fx.probs.items():
                for y, py in gy.probs.items():
                    acc[(x, y)] = acc.get((x, y), 0.0) + w * px * py
        err = max(abs(acc.get(pt, 0.0) - h.probs.get(pt, 0.0)) for pt in set(acc) | set(h.probs))
        assert err <= 1e-9
    _pass("classical composite states always certify separable (max err <= 1e-9, 200 states)")


def test_classical_point_mass_tensor_identity():
    sx = PhaseSpace(tuple(f"x{k}" for k in range(4)))
    sy = PhaseSpace(tuple(f"y{k}" for k in range(4)))
    for x in sx.labels:
        for y in sy.labels:
            left = classical_tensor(classical_pure(sx, x), classical_pure(sy, y))
            assert left.probs == CompositeClassicalState(sx, sy, {(x, y): 1.0}).probs
    _pass("point-mass tensor equals the composite point mass bit-for-bit (4x4, all pairs)")


def test_self_adjointness_and_complex_witnesses():
    rng = np.random.default_rng(1003)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        a = _rand_complex(rng, d, d)
        m = (a + a.conj().T) / 2
        assert is_hermitian(m)
        for _ in range(50):
            x = _rand_unit(rng, d)
            assert abs(complex(np.vdot(x, m @ x)).imag) <= 1e-9
    for _ in range(100):
        d = int(rng.integers(2, 7))
        while True:
            m = _rand_complex(rng, d, d)
            if np.abs(m - m.conj().T).max() > 0.5:
                break
        assert not is_hermitian(m)
        assert any(
            abs(complex(np.vdot(x, m @ x)).imag) > 1e-9
            for x in (_rand_unit(rng, d) for _ in range(100))
        )
    upper = np.array([[1.0, 2.0], [0.0, 1.0]])
    for _ in range(1000):
        x = rng.standard_normal(2)
        assert complex(np.vdot(x, upper @ x)).imag == 0.0
    assert not is_hermitian(upper)
    _pass("self-adjointness decided by complex witnesses, not real ones (100+100 matrices)")


def test_positive_factorization_and_rejection():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        b = _rand_complex(rng, d, d)
        t = b.conj().T @ b
        b2 = _factor_positive(t, Tolerance())
        err = float(np.abs(b2.conj().T @ b2 - t).max())
        assert err <= 1e-8 * max(1.0, float(np.abs(t).max()))
    for _ in range(100):
        d = int(rng.integers(2, 9))
        q, r = np.linalg.qr(_rand_complex(rng, d, d))
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        values = rng.uniform(0.1, 2.0, d)
        values[int(rng.integers(0, d))] = -float(rng.uniform(0.1, 2.0))
        assert not is_positive((q * values) @ q.conj().T)
    _pass("positive operators factor as B*B at 1e-8; negatives rejected (100+100 matrices)")


def test_projector_laws_and_ensemble_densities():
    rng = np.random.default_rng(1005)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        p = projector(PureState(_rand_unit(rng, d))).mat
        assert float(np.abs(p - p.conj().T).max()) <= 1e-12
        assert float(np.abs(p @ p - p).max()) <= 1e-9
        assert np.linalg.matrix_rank(p, tol=1e-9) == 1
        assert abs(np.trace(p) - 1.0) <= 1e-12
    for _ in range(200):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        ens = MixedEnsemble(
            tuple((float(w), PureState(_rand_unit(rng, d))) for w in rng.dirichlet(np.ones(k)))
        )
        assert is_density(mix(ens).mat)
    _pass("projector laws (200 states) and ensemble densities (200 ensembles)")


def test_projector_expectation_identity():
    rng = np.random.default_rng(1006)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        x = _rand_unit(rng, d)
        a = _rand_complex(rng, d, d)
        a = (a + a.conj().T) / 2
        p = np.outer(x, x.conj())
        assert abs(complex(np.trace(a @ p)) - complex(np.vdot(x, a @ x))) <= 1e-9
    _pass("trace against a projector equals the quadratic form (200 pairs, <= 1e-9)")


def test_mixture_is_not_a_superposition():
    e1 = PureState(np.array([1.0, 0.0], dtype=complex))
    e2 = PureState(np.array([0.0, 1.0], dtype=complex))
    a = np.diag([1.0, 0.0]).astype(complex)
    mixture, raw = _mixture_vs_superposition(a, e1, e2, 0.5, normalize=False)
    assert abs(mixture - 0.5) <= 1e-12
    assert abs(raw - 0.25) <= 1e-12
    rng = np.random.default_rng(1007)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        q, _ = np.linalg.qr(_rand_complex(rng, d, d))
        x1, x2 = PureState(q[:, 0]), PureState(q[:, 1])
        p1 = float(rng.uniform(0.1, 0.9))
        found = False
        for _ in range(20):
            h = _rand_complex(rng, d, d)
            h = (h + h.conj().T) / 2
            m, naive = _mixture_vs_superposition(h, x1, x2, p1)
            if abs(m - naive) > 1e-9:
                found = True
                break
        assert found
    _pass("mixture value 0.5 vs raw quadratic form 0.25 exactly; discrepancy over batches")


def test_schmidt_rank_dichotomy():
    rng = np.random.default_rng(1008)
    for _ in range(200):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        u1, u2 = _rand_independent_pair(rng, d1)
        v1, v2 = _rand_independent_pair(rng, d2)
        t = BipartiteVector(kron_vec(u1, v1).vec + kron_vec(u2, v2).vec, BipartiteDims(d1, d2))
        dec = schmidt(t)
        assert dec.rank >= 2
        assert float(np.linalg.norm(dec.reconstruct().vec - t.vec)) <= 1e-9
        assert abs(float(np.sum(dec.coeffs**2)) - t.norm**2) <= 1e-9
    for _ in range(200):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        while True:
            x = _rand_complex(rng, d1)
            alpha, beta = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            y1, y2 = _rand_complex(rng, d2), _rand_complex(rng, d2)
            t = BipartiteVector(
                kron_vec(alpha * x, y1).vec + kron_vec(beta * x, y2).vec, BipartiteDims(d1, d2)
            )
            if t.norm > 0.1:
                break
        dec = schmidt(t)
        assert dec.rank == 1
        assert float(np.linalg.norm(dec.reconstruct().vec - t.vec)) <= 1e-9
        assert abs(float(np.sum(dec.coeffs**2)) - t.norm**2) <= 1e-9
    _pass("independent pairs rank >= 2, dependent pairs rank 1 (200+200 tensors)")


def test_product_projector_identity():
    rng = np.random.default_rng(1009)
    for _ in range(200):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        x, y = PureState(_rand_unit(rng, d1)), PureState(_rand_unit(rng, d2))
        t = kron_vec(x.vec, y.vec).vec
        joint = np.outer(t, t.conj())
        split = kron_op(projector(x).mat, projector(y).mat)
        assert float(np.abs(joint - split).max()) <= 1e-10
    _pass("product projector equals product of projectors (200 pairs, <= 1e-10)")


def test_range_criterion_certificates():
    rng = np.random.default_rng(1010)
    for k in range(200):
        dims = BipartiteDims(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        if k % 4 == 0:
            # forced parallel product vectors: one-dimensional range
            p = float(rng.uniform(0.2, 0.8))
            x, y = PureState(_rand_unit(rng, dims.d1)), PureState(_rand_unit(rng, dims.d2))
            dec = SeparableDecomposition(
                dims,
                (
                    (p, x, y),
                    (
                        1 - p,
                        PureState(np.exp(1j * rng.uniform(0, 2 * np.pi)) * x.vec),
                        PureState(np.exp(1j * rng.uniform(0, 2 * np.pi)) * y.vec),
                    ),
                ),
            )
        elif k % 4 == 1:
            # forced independent product vectors
            p = float(rng.uniform(0.2, 0.8))
            u1, u2 = _rand_independent_pair(rng, dims.d1)
            dec = SeparableDecomposition(
                dims,
                (
                    (p, PureState(u1 / np.linalg.norm(u1)), PureState(_rand_unit(rng, dims.d2))),
                    (1 - p, PureState(u2 / np.linalg.norm(u2)), PureState(_rand_unit(rng, dims.d2))),
                ),
            )
        else:
            m = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(m))
            dec = SeparableDecomposition(
                dims,
                tuple(
                    (float(w), PureState(_rand_unit(rng, dims.d1)), PureState(_rand_unit(rng, dims.d2)))
                    for w in weights
                ),
            )
        assert check_range_criterion(dec)
    _pass("range criterion holds on 200 decompositions incl. forced parallel/independent")


def test_entangled_pure_and_mixed_reductions():
    bell = BipartiteVector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2), BipartiteDims(2, 2))
    result = classify(bell)
    assert result.verdict is Verdict.QUANTUM_ENTANGLED_PURE
    rho = projector(PureState(bell.vec))
    for keep in ("first", "second"):
        reduced = partial_trace(rho, bell.dims, keep)
        assert float(np.abs(reduced.mat - np.eye(2) / 2).max()) <= 1e-10
        assert np.linalg.matrix_rank(reduced.mat, tol=1e-9) == 2
    rng = np.random.default_rng(1011)
    for _ in range(50):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        dims = BipartiteDims(d1, d2)
        t = kron_vec(_rand_unit(rng, d1), _rand_unit(rng, d2))
        assert classify(t).verdict is Verdict.QUANTUM_PRODUCT_PURE
        rho = projector(PureState(t.vec))
        for keep in ("first", "second"):
            assert np.linalg.matrix_rank(partial_trace(rho, dims, keep).mat, tol=1e-9) == 1
    _pass("bell state entangled with maximally mixed reductions; product reductions pure")


def test_commutator_trace_and_basis_independence():
    rng = np.random.default_rng(1012)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        xm, pm = _rand_complex(rng, d, d), _rand_complex(rng, d, d)
        assert abs(np.trace(xm @ pm - pm @ xm)) <= 1e-9
    for _ in range(200):
        d = int(rng.integers(2, 7))
        m = _rand_complex(rng, d, d)
        q, _ = np.linalg.qr(_rand_complex(rng, d, d))
        basis_sum = sum(complex(np.vdot(q[:, i], m @ q[:, i])) for i in range(d))
        assert abs(basis_sum - complex(np.trace(m))) <= 1e-9
    _pass("commutator traces vanish and the trace is basis independent (200+200)")


class TestCliAcceptance:
    def _json(self, capsys, *argv):
        code = main(list(argv) + ["--json"])
        out = capsys.readouterr().out
        return code, json.loads(out)

    def test_cli_golden_files(self, capsys):
        cases = [
            ("bell.json", ["classify"], "QuantumEntangledPure"),
            ("product.json", ["classify"], "QuantumProductPure"),
            ("correlated_classical.json", ["classify"], "ClassicalSeparable"),
            ("classical_pure.json", ["classify"], "ClassicalPure"),
            ("separable_2term.json", ["classify"], "QuantumSeparableByConstruction"),
            ("maximally_mixed.json", ["classify", "--dims", "2", "2"], "Undetermined"),
        ]
        for name, argv, verdict in cases:
            code, report = self._json(capsys, argv[0], str(SAMPLES / name), *argv[1:])
            assert code == 0, name
            assert report["result"]["verdict"] == verdict, name

        code, report = self._json(capsys, "schmidt", str(SAMPLES / "bell.json"))
        assert code == 0
        np.testing.assert_allclose(report["result"]["coeffs"], [1 / np.sqrt(2)] * 2, atol=1e-12)

        code, report = self._json(capsys, "ptrace", str(SAMPLES / "bell.json"), "--keep", "1")
        assert code == 0
        diag = [row[i][0] for i, row in enumerate(report["result"]["mat"])]
        np.testing.assert_allclose(diag, [0.5, 0.5], atol=1e-10)

        code, report = self._json(
            capsys, "marginal", str(SAMPLES / "correlated_classical.json"), "--side", "2"
        )
        assert code == 0
        assert report["result"]["probs"] == {"c": 0.5, "d": 0.5}
        _pass("CLI verdicts and reductions on the six canonical inputs")

    def test_cli_verify_deterministic_and_green(self, capsys):
        code1 = main(["verify", "--instances", "25", "--seed", "11", "--json"])
        out1 = capsys.readouterr().out
        code2 = main(["verify", "--instances", "25", "--seed", "11", "--json"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        strip = lambda s: re.sub(r'"elapsed_s":[0-9.e+-]+', '"elapsed_s":T', s)
        assert strip(out1) == strip(out2)
        _pass("CLI verify exits 0 and is seed-deterministic")
