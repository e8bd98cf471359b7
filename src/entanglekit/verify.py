"""Randomized verification suites for the library's mathematical claims.

Every suite draws its instances from one shared seeded generator, checks
the claimed identities against independent inline computations, and
reports pass/fail together with the first counterexample found.  A check
that fails raises ``_Counterexample`` right there, with a payload built
only on that branch; it holds the suite's own arrays (a matrix as the list
of its rows), which the canonical writer writes.  ``run_all`` turns it into
the suite's result.  Running the suites twice with the same seed produces
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bipartite import BipartiteDims, BipartiteVector, kron_op, kron_vec, partial_trace, schmidt
from .classical import (
    ClassicalState,
    CompositeClassicalState,
    PhaseSpace,
    classical_pure,
    classical_tensor,
    classify_classical,
    is_product_composite,
    marginal,
)
from .linalg import Tolerance, _norm, as_matrix, is_hermitian, is_positive, rank
from .quantum import MixedEnsemble, PureState, is_density, mix, projector
from .separability import (
    SeparableDecomposition,
    Verdict,
    check_range_criterion,
    classify,
    product_pure,
    range_basis,
    separable_density,
)

DEFAULT_SEED = 1729
DEFAULT_INSTANCES = 200


@dataclass
class SuiteResult:  # the CLI reports these fields in this order, leaving out a None
    name: str
    description: str
    passed: bool
    instances: int
    counterexample: Optional[dict] = None


class _Counterexample(Exception):
    def __init__(self, payload: dict):
        super().__init__("counterexample found")
        self.payload = payload


# ---------------------------------------------------------------------------
# random instance generators (shared by the suites and the test suite)


def rand_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = rng.standard_normal((2, *shape))  # real parts first, as two calls draw them
    return z


def rand_unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rand_complex(rng, d)
    return v / _norm(v)


def rand_pure_state(rng: np.random.Generator, d: int) -> PureState:
    return PureState(rand_unit_vector(rng, d))


def rand_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rand_complex(rng, d, d)
    return (a + a.conj().T) / 2


def rand_nonhermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    while True:
        a = rand_complex(rng, d, d)
        if np.abs(a - a.conj().T).max() > 0.5:
            return a


def rand_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rand_complex(rng, d, d))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def rand_independent_pair(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Two vectors that are robustly linearly independent."""
    while True:
        a, b = rand_complex(rng, d), rand_complex(rng, d)
        s = np.linalg.svd(np.column_stack([a, b]), compute_uv=False)
        if s[-1] > 0.2 * s[0]:
            return a, b


def rand_phase_space(size: int, prefix: str) -> PhaseSpace:
    return PhaseSpace(tuple(f"{prefix}{k}" for k in range(size)))


def rand_classical_state(rng: np.random.Generator, space: PhaseSpace) -> ClassicalState:
    probs = rng.dirichlet(np.ones(len(space)))
    return ClassicalState(space, {lab: float(p) for lab, p in zip(space.labels, probs)})


def rand_composite_classical(
    rng: np.random.Generator, space_x: PhaseSpace, space_y: PhaseSpace
) -> CompositeClassicalState:
    probs = rng.dirichlet(np.ones(len(space_x) * len(space_y)))
    points = [(x, y) for x in space_x.labels for y in space_y.labels]
    return CompositeClassicalState(
        space_x, space_y, {pt: float(p) for pt, p in zip(points, probs)}
    )


def rand_separable_decomposition(
    rng: np.random.Generator, dims: BipartiteDims, terms: int
) -> SeparableDecomposition:
    weights = rng.dirichlet(np.ones(terms))
    return SeparableDecomposition(
        dims,
        tuple(
            (float(w), rand_pure_state(rng, dims.d1), rand_pure_state(rng, dims.d2))
            for w in weights
        ),
    )


def bell_vector() -> BipartiteVector:
    """(e1 (x) f1 + e2 (x) f2) / sqrt(2) on a 2 x 2 system."""
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    return BipartiteVector(vec, BipartiteDims(2, 2))


# ---------------------------------------------------------------------------
# independent rank oracles


def _exact_rank(int_matrix: np.ndarray) -> int:
    """Exact rank of an integer matrix by fraction-free (Bareiss) elimination.

    Every entry after step k is a (k + 1)-order minor of the input, so the
    division by the previous pivot is exact and no fraction ever appears.
    """
    a = [[int(v) for v in row] for row in int_matrix]
    rows, cols = len(a), len(a[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pivot, top = a[r][c], a[r]
        for i in range(r + 1, rows):
            f = a[i][c]
            a[i] = [(pivot * vi - f * vr) // prev for vi, vr in zip(a[i], top)]
        prev = pivot
        r += 1
        if r == rows:
            break
    return r


def _float_row_reduction_rank(m: np.ndarray, eps: float) -> int:
    """Rank of a complex matrix by row reduction with partial pivoting."""
    a = np.array(m, dtype=complex)
    rows, cols = a.shape
    scale = max(1.0, float(np.abs(a).max()))
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        piv = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[piv, c]) <= eps * scale:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] / a[r, c]
        for i in range(rows):
            if i != r:
                a[i] = a[i] - a[i, c] * a[r]
        r += 1
    return r


# ---------------------------------------------------------------------------
# suites

_SUITES: list = []


def _suite(name: str, description: str):
    def register(fn):
        fn.suite_name = name
        fn.suite_description = description
        _SUITES.append(fn)
        return fn

    return register


@_suite(
    "classical-convex-decomposition",
    "every classical density splits into point masses that recombine exactly",
)
def _suite_classical_decomposition(rng, n, tol):
    for k in range(n):
        space = rand_phase_space(int(rng.integers(2, 7)), "x")
        f = rand_classical_state(rng, space)
        terms = [(p, classical_pure(f.space, x)) for x, p in f.probs.items()]
        recombined: dict[str, float] = {}
        for w, fx in terms:
            if not fx.is_pure:
                raise _Counterexample({"instance": k, "reason": "non-pure term"})
            label = fx.support[0]
            if not w == f.probs[label]:
                raise _Counterexample({"instance": k, "label": label, "weight": w})
            recombined[label] = recombined.get(label, 0.0) + w * fx.prob(label)
        if not recombined == f.probs:
            raise _Counterexample({"instance": k, "probs": dict(f.probs)})
    return n


@_suite(
    "classical-point-mass-tensor",
    "tensor of subsystem point masses equals the composite point mass bit for bit",
)
def _suite_classical_point_mass_tensor(rng, n, tol):
    space_x = rand_phase_space(4, "x")
    space_y = rand_phase_space(4, "y")
    for x in space_x.labels:
        for y in space_y.labels:
            left = classical_tensor(classical_pure(space_x, x), classical_pure(space_y, y))
            right = CompositeClassicalState(space_x, space_y, {(x, y): 1.0})
            if not left.probs == right.probs:
                raise _Counterexample({"point": [x, y], "reason": "tensor != point mass"})
    for k in range(n):
        sx = rand_phase_space(int(rng.integers(2, 7)), "x")
        sy = rand_phase_space(int(rng.integers(2, 7)), "y")
        x = sx.labels[int(rng.integers(0, len(sx)))]
        y = sy.labels[int(rng.integers(0, len(sy)))]
        left = classical_tensor(classical_pure(sx, x), classical_pure(sy, y))
        if not left.probs == CompositeClassicalState(sx, sy, {(x, y): 1.0}).probs:
            raise _Counterexample({"instance": k, "point": [x, y]})
    return 16 + n


@_suite(
    "classical-separability",
    "every composite classical density gets a product certificate that recombines",
)
def _suite_classical_separability(rng, n, tol):
    for k in range(n):
        space_x = rand_phase_space(int(rng.integers(2, 6)), "x")
        space_y = rand_phase_space(int(rng.integers(2, 6)), "y")
        h = rand_composite_classical(rng, space_x, space_y)
        cert = classify_classical(h)
        if not len(cert.terms) == len(h.probs):
            raise _Counterexample({"instance": k, "reason": "term count != support size"})
        recombined: dict[tuple[str, str], float] = {}
        for w, fx, gy in cert.terms:
            for x, px in fx.probs.items():
                for y, py in gy.probs.items():
                    recombined[(x, y)] = recombined.get((x, y), 0.0) + w * px * py
        err = max(
            abs(recombined.get(pt, 0.0) - h.probs.get(pt, 0.0))
            for pt in set(recombined) | set(h.probs)
        )
        if not err <= 1e-9:
            raise _Counterexample({"instance": k, "recombination_error": err})
        # marginals of an explicit product recover the factors
        f = rand_classical_state(rng, space_x)
        g = rand_classical_state(rng, space_y)
        prod = classical_tensor(f, g)
        mf, mg = marginal(prod, "first"), marginal(prod, "second")
        err_m = max(
            max(abs(mf.prob(x) - f.prob(x)) for x in space_x.labels),
            max(abs(mg.prob(y) - g.prob(y)) for y in space_y.labels),
        )
        if not err_m <= 1e-9:
            raise _Counterexample({"instance": k, "marginal_error": err_m})
        if is_product_composite(prod, tol) is None:
            raise _Counterexample({"instance": k, "reason": "product not detected"})
    return n


@_suite(
    "self-adjoint-real-quadratic-forms",
    "self-adjointness is equivalent to real quadratic forms on a complex space",
)
def _suite_self_adjoint(rng, n, tol):
    for k in range(n // 2):
        d = int(rng.integers(2, 7))
        m = rand_hermitian(rng, d)
        if not is_hermitian(m, tol):
            raise _Counterexample(
                {"matrix": list(m), "reason": "is_hermitian refused a Hermitian matrix"}
            )
        for _ in range(50):
            x = rand_unit_vector(rng, d)
            im = complex(np.vdot(x, m @ x)).imag
            if not abs(im) <= tol.eps:
                raise _Counterexample({"matrix": list(m), "vector": x, "imag_part": im})
    for k in range(n - n // 2):
        d = int(rng.integers(2, 7))
        m = rand_nonhermitian(rng, d)
        if is_hermitian(m, tol):
            raise _Counterexample(
                {"matrix": list(m), "reason": "is_hermitian accepted a non-Hermitian matrix"}
            )
        found = any(
            abs(complex(np.vdot(x, m @ x)).imag) > tol.eps
            for x in (rand_unit_vector(rng, d) for _ in range(100))
        )
        if not found:
            raise _Counterexample({"matrix": list(m), "reason": "no complex witness in 100 draws"})
    # the classic real 2x2 counterexample: real realness does not imply self-adjoint
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    if is_hermitian(a, tol):
        raise _Counterexample({"reason": "triangular example passed is_hermitian"})
    for _ in range(1000):
        x = rng.standard_normal(2).astype(complex)
        if not complex(np.vdot(x, a @ x)).imag == 0.0:
            raise _Counterexample({"vector": x, "reason": "real witness unexpectedly complex"})
    witness = complex(np.vdot(np.array([1.0, 1j]), a @ np.array([1.0, 1j])))
    if not witness == 2 + 2j:
        raise _Counterexample({"witness_value": [witness.real, witness.imag]})
    # conjugate symmetry of the inner product
    for k in range(n):
        d = int(rng.integers(1, 7))
        u, v = rand_complex(rng, d), rand_complex(rng, d)
        if not abs(np.vdot(u, v) - np.conj(np.vdot(v, u))) <= 1e-12:
            raise _Counterexample({"u": u, "v": v})
    return n


def _factor_positive(t, tol: Tolerance) -> np.ndarray:
    """Factor a positive operator t as ``B* B``, refusing any other input.

    B is the Hermitian square root, built from one eigendecomposition:
    eigenvalues in ``is_positive``'s band ``[-eps * max(1, largest), 0]``
    are clamped to zero, anything more negative is rejected.
    """
    t = as_matrix(t)
    if t.shape[0] != t.shape[1] or not is_hermitian(t, tol):
        raise ValueError("factor_positive requires a positive operator")
    values, vectors = np.linalg.eigh(t)
    if values[0] < -tol.eps * max(1.0, float(values[-1])):
        raise ValueError("factor_positive requires a positive operator")
    values = np.where(values < 0.0, 0.0, values)
    return (vectors * np.sqrt(values)) @ vectors.conj().T


@_suite(
    "positive-factorization",
    "operators factor as adjoint(B) B exactly when their quadratic form is nonnegative",
)
def _suite_positive_factorization(rng, n, tol):
    for k in range(n // 2):
        d = int(rng.integers(2, 9))
        b = rand_complex(rng, d, d)
        t = b.conj().T @ b
        if not is_positive(t, tol):
            raise _Counterexample(
                {"matrix": list(t), "reason": "is_positive refused a positive matrix"}
            )
        b2 = _factor_positive(t, tol)
        err = float(np.abs(b2.conj().T.copy() @ b2 - t).max())
        if not err <= 1e-8 * max(1.0, float(np.abs(t).max())):
            raise _Counterexample({"matrix": list(t), "reconstruction_error": err})
    for k in range(n - n // 2):
        d = int(rng.integers(2, 9))
        u = rand_unitary(rng, d)
        values = rng.uniform(0.1, 2.0, d)
        values[int(rng.integers(0, d))] = -float(rng.uniform(0.1, 2.0))
        h = (u * values) @ u.conj().T
        if is_positive(h, tol):
            raise _Counterexample(
                {"matrix": list(h), "reason": "is_positive accepted a non-positive matrix"}
            )
        try:
            _factor_positive(h, tol)
        except ValueError:
            continue
        raise _Counterexample(
            {"matrix": list(h), "reason": "factor_positive accepted a non-positive input"}
        )
    return n


@_suite(
    "projector-laws",
    "rank-one projectors are self-adjoint, idempotent, positive, unit-trace",
)
def _suite_projector_laws(rng, n, tol):
    for k in range(n):
        d = int(rng.integers(2, 7))
        x = rand_pure_state(rng, d)
        p = projector(x)

        def fail(reason):
            return _Counterexample({"vector": x.vec, "reason": reason})

        if not is_hermitian(p.mat, tol):
            raise fail("not self-adjoint")
        if not float(np.abs(p.mat @ p.mat - p.mat).max()) <= 1e-9:
            raise fail("not idempotent")
        if not rank(p.mat, tol) == 1:
            raise fail("rank != 1")
        if not abs(complex(np.trace(p.mat)) - 1.0) <= 1e-12:
            raise fail("trace != 1")
        if not is_positive(p.mat, tol):
            raise fail("not positive")
        a = rand_hermitian(rng, d)
        gap = abs(complex(np.trace(a @ p.mat)) - complex(np.vdot(x.vec, a @ x.vec)))
        if not gap <= 1e-9:
            raise _Counterexample({"observable": list(a), "vector": x.vec, "gap": gap})
    return n


def _mixture_vs_superposition(a, x1: PureState, x2: PureState, p1: float, normalize=True):
    """Expectation of A in the mixture of x1 and x2 vs in their summed vector.

    The mixture value is ``p1 <x1, A x1> + (1 - p1) <x2, A x2>``.  The
    naive value evaluates A in z = p1 x1 + (1 - p1) x2: ``<z, A z> / <z, z>``,
    or the raw quadratic form ``<z, A z>`` when ``normalize`` is false.
    """
    p2 = 1.0 - p1
    mixture = p1 * complex(np.vdot(x1.vec, a @ x1.vec)).real + p2 * complex(
        np.vdot(x2.vec, a @ x2.vec)
    ).real
    z = p1 * x1.vec + p2 * x2.vec
    naive = complex(np.vdot(z, a @ z)).real
    if normalize:
        naive /= complex(np.vdot(z, z)).real
    return mixture, naive


@_suite(
    "mixture-density-laws",
    "mixtures are valid densities with linear expectations, and no single vector reproduces them",
)
def _suite_mixture_laws(rng, n, tol):
    for k in range(n):
        d = int(rng.integers(2, 6))
        terms = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(terms))
        states = [rand_pure_state(rng, d) for _ in range(terms)]
        ens = MixedEnsemble(tuple((float(w), x) for w, x in zip(weights, states)))
        rho = mix(ens)
        if not is_density(rho.mat, tol):
            raise _Counterexample({"instance": k, "reason": "mix not a density"})
        a = rand_hermitian(rng, d)
        direct = sum(
            float(w) * complex(np.vdot(x.vec, a @ x.vec)).real for w, x in zip(weights, states)
        )
        if not abs(complex(np.trace(a @ rho.mat)).real - direct) <= 1e-9:
            raise _Counterexample(
                {"instance": k, "reason": "expectation not linear over the ensemble"}
            )
        # flattening two ensembles through outer weights stays a valid density
        q = float(rng.uniform(0.2, 0.8))
        other = MixedEnsemble(
            tuple((float(w), rand_pure_state(rng, d)) for w in rng.dirichlet(np.ones(2)))
        )
        flat = MixedEnsemble(
            tuple((q * w, x) for w, x in ens.terms) + tuple(((1 - q) * w, x) for w, x in other.terms)
        )
        blend = q * rho.mat + (1 - q) * mix(other).mat
        if not float(np.abs(mix(flat).mat - blend).max()) <= 1e-12:
            raise _Counterexample(
                {"instance": k, "reason": "flattened ensemble disagrees with blend"}
            )
    # a two-state mixture is not the expectation in any single summed vector:
    # exact values first, then existence of a discrepancy over a random batch
    e1 = PureState(np.array([1.0, 0.0], dtype=complex))
    e2 = PureState(np.array([0.0, 1.0], dtype=complex))
    a0 = np.diag([1.0, 0.0]).astype(complex)
    mixture, raw = _mixture_vs_superposition(a0, e1, e2, 0.5, normalize=False)
    if not (abs(mixture - 0.5) <= 1e-12 and abs(raw - 0.25) <= 1e-12):
        raise _Counterexample({"mixture": mixture, "raw_quadratic_form": raw})
    for k in range(20):
        d = int(rng.integers(2, 6))
        u = rand_unitary(rng, d)
        x1, x2 = PureState(u[:, 0]), PureState(u[:, 1])
        p1 = float(rng.uniform(0.1, 0.9))
        found = False
        for _ in range(20):
            a = rand_hermitian(rng, d)
            m, naive = _mixture_vs_superposition(a, x1, x2, p1)
            if abs(m - naive) > tol.eps:
                found = True
                break
        if not found:
            raise _Counterexample(
                {
                    "instance": k,
                    "p1": p1,
                    "reason": "20 random observables all matched the naive vector value",
                }
            )
    return n


@_suite(
    "schmidt-rank-dichotomy",
    "independent tensor pairs give rank >= 2, dependent pairs reduce to rank 1",
)
def _suite_schmidt_dichotomy(rng, n, tol):
    for k in range(n // 2):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        u1, u2 = rand_independent_pair(rng, d1)
        v1, v2 = rand_independent_pair(rng, d2)
        t = BipartiteVector(kron_vec(u1, v1).vec + kron_vec(u2, v2).vec, BipartiteDims(d1, d2))
        dec = schmidt(t, tol)

        def fail(reason):
            return _Counterexample({"vector": t.vec, "reason": reason})

        if not dec.rank >= 2:
            raise fail("independent pair gave rank < 2")
        if not _norm(dec.reconstruct().vec - t.vec) <= 1e-9:
            raise fail("reconstruction residual too large")
        if not abs(float(np.sum(dec.coeffs**2)) - t.norm**2) <= 1e-9:
            raise fail("coefficient squares do not sum to the squared norm")
        if not _float_row_reduction_rank(t.vec.reshape(d1, d2), tol.eps) == dec.rank:
            raise fail("row-reduction oracle disagrees")
    for k in range(n - n // 2):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        x = rand_complex(rng, d1)
        alpha, beta = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        y1, y2 = rand_complex(rng, d2), rand_complex(rng, d2)
        t = BipartiteVector(
            kron_vec(alpha * x, y1).vec + kron_vec(beta * x, y2).vec, BipartiteDims(d1, d2)
        )
        if t.norm < 0.1:
            continue
        if not schmidt(t, tol).rank == 1:
            raise _Counterexample({"vector": t.vec, "reason": "dependent pair not elementary"})
    # bilinearity of the tensor product, including the null tensor
    for k in range(n):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        x1, x2, y = rand_complex(rng, d1), rand_complex(rng, d1), rand_complex(rng, d2)
        alpha = complex(*rng.standard_normal(2))
        lhs = kron_vec(x1 + x2, y).vec
        rhs = kron_vec(x1, y).vec + kron_vec(x2, y).vec
        if not float(np.abs(lhs - rhs).max()) <= 1e-12:
            raise _Counterexample({"instance": k, "identity": "additivity"})
        lhs = kron_vec(alpha * x1, y).vec
        if not (
            float(np.abs(lhs - alpha * kron_vec(x1, y).vec).max()) <= 1e-12
            and float(np.abs(lhs - kron_vec(x1, alpha * y).vec).max()) <= 1e-12
        ):
            raise _Counterexample({"instance": k, "identity": "scalar"})
        zero = kron_vec(np.zeros(d1), y).vec
        if not float(np.abs(zero).max()) == 0.0:
            raise _Counterexample({"instance": k, "identity": "null"})
    # SVD rank agrees with exact elimination over the rationals.  The product
    # of the r nonzero squared singular values of an integer matrix is a sum
    # of squared integer minors (Cauchy-Binet), so it is >= 1, and the
    # smallest is >= F**-(r - 1), F the Frobenius norm.  Where the cut may
    # lie above that floor, the SVD rank may only come out lower.
    for k in range(n):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        m = rng.integers(-3, 4, (rows, cols))
        exact = _exact_rank(m)
        found = rank(m.astype(complex), tol)
        frob = float(np.linalg.norm(m))
        resolved = tol.eps * max(1.0, frob) < frob ** -(exact - 1)
        if not (found == exact if resolved else found <= exact):
            raise _Counterexample({"matrix": [[int(v) for v in row] for row in m]})
    return n


@_suite(
    "product-projector-identity",
    "the projector of a product vector is the product of the factor projectors",
)
def _suite_product_projector(rng, n, tol):
    for k in range(n):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        x, y = rand_pure_state(rng, d1), rand_pure_state(rng, d2)
        t = kron_vec(x.vec, y.vec).vec
        joint = np.outer(t, t.conj())
        split = kron_op(projector(x).mat, projector(y).mat)
        built = product_pure(x, y).mat
        err = max(float(np.abs(joint - split).max()), float(np.abs(joint - built).max()))
        if not err <= 1e-10:
            raise _Counterexample({"x": x.vec, "y": y.vec, "max_abs_difference": err})
    return n


@_suite(
    "product-state-separability",
    "product pure states classify as products, with pure reductions on both sides",
)
def _suite_product_states(rng, n, tol):
    for k in range(n):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        x, y = rand_pure_state(rng, d1), rand_pure_state(rng, d2)
        t = kron_vec(x.vec, y.vec)
        result = classify(t, tol=tol)

        def fail(reason):
            return _Counterexample({"x": x.vec, "y": y.vec, "reason": reason})

        if result.verdict is not Verdict.QUANTUM_PRODUCT_PURE:
            raise fail("not product-pure")
        recovered = kron_vec(result.certificate.x, result.certificate.y)
        overlap = abs(complex(np.vdot(recovered.vec, t.vec)))
        if not abs(overlap - 1.0) <= 1e-9:
            raise fail("recovered factors lost overlap")
        rho = product_pure(x, y)
        dims = BipartiteDims(d1, d2)
        first = partial_trace(rho, dims, "first")
        second = partial_trace(rho, dims, "second")
        if not float(np.abs(first.mat - projector(x).mat).max()) <= 1e-9:
            raise fail("first reduction is not the factor projector")
        if not (rank(first.mat, tol) == 1 and rank(second.mat, tol) == 1):
            raise fail("reductions of a product state are not pure")
        single = SeparableDecomposition(dims, ((1.0, x, y),))
        if not float(np.abs(separable_density(single).mat - rho.mat).max()) <= 1e-12:
            raise fail("one-term decomposition differs from the product state")
    return n


@_suite(
    "range-criterion",
    "the range of a separable mixture is spanned by its product vectors",
)
def _suite_range_criterion(rng, n, tol):
    for k in range(n):
        dims = BipartiteDims(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        style = k % 4
        if style == 0:
            # parallel product vectors: one-dimensional range
            p = float(rng.uniform(0.2, 0.8))
            x, y = rand_pure_state(rng, dims.d1), rand_pure_state(rng, dims.d2)
            phase_x = np.exp(1j * rng.uniform(0, 2 * np.pi))
            phase_y = np.exp(1j * rng.uniform(0, 2 * np.pi))
            dec = SeparableDecomposition(
                dims,
                (
                    (p, x, y),
                    (1 - p, PureState(phase_x * x.vec), PureState(phase_y * y.vec)),
                ),
            )
        elif style == 1:
            # robustly independent product vectors: both lie in the range
            p = float(rng.uniform(0.2, 0.8))
            u1, u2 = rand_independent_pair(rng, dims.d1)
            dec = SeparableDecomposition(
                dims,
                (
                    (p, PureState(u1 / _norm(u1)), rand_pure_state(rng, dims.d2)),
                    (1 - p, PureState(u2 / _norm(u2)), rand_pure_state(rng, dims.d2)),
                ),
            )
        else:
            dec = rand_separable_decomposition(rng, dims, int(rng.integers(1, 5)))
        if not check_range_criterion(dec, tol):
            raise _Counterexample(
                {
                    "dims": [dec.dims.d1, dec.dims.d2],
                    "terms": [{"p": p, "x": x.vec, "y": y.vec} for p, x, y in dec.terms],
                }
            )
    return n


@_suite(
    "entangled-pure-states",
    "non-elementary pure states are entangled and both their reductions are mixed",
)
def _suite_entangled_pure(rng, n, tol):
    for k in range(n):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        dims = BipartiteDims(d1, d2)
        if k % 2 == 0:
            u1, u2 = rand_independent_pair(rng, d1)
            v1, v2 = rand_independent_pair(rng, d2)
            vec = kron_vec(u1, v1).vec + kron_vec(u2, v2).vec
            t = BipartiteVector(vec / _norm(vec), dims)
            expected_entangled = True
        else:
            t = kron_vec(rand_pure_state(rng, d1).vec, rand_pure_state(rng, d2).vec)
            expected_entangled = False
        result = classify(t, tol=tol)
        oracle_rank = _float_row_reduction_rank(t.vec.reshape(d1, d2), tol.eps)

        def fail(reason):
            return _Counterexample(
                {"dims": [t.dims.d1, t.dims.d2], "vector": t.vec, "reason": reason}
            )

        if not (result.verdict is Verdict.QUANTUM_ENTANGLED_PURE) == expected_entangled:
            raise fail("verdict disagrees with construction")
        if not (oracle_rank >= 2) == expected_entangled:
            raise fail("row-reduction oracle disagrees with construction")
        if not expected_entangled:
            continue
        dec = result.certificate.schmidt
        if not dec.rank >= 2:
            raise fail("entangled certificate has rank < 2")
        # re-check from the certificate alone: the projector's range is one
        # line spanned by a non-elementary tensor
        rebuilt = dec.reconstruct()
        basis = range_basis(projector(PureState(rebuilt.vec, tol)), tol)
        if not len(basis) == 1:
            raise fail("projector range is not one-dimensional")
        if not schmidt(BipartiteVector(basis[0], dims), tol).rank >= 2:
            raise fail("range vector is elementary")
        rho = projector(PureState(t.vec, tol))
        first = partial_trace(rho, dims, "first")
        second = partial_trace(rho, dims, "second")
        if not (rank(first.mat, tol) == dec.rank and rank(second.mat, tol) == dec.rank):
            raise fail("reduction rank differs from Schmidt rank")
        top = dec.rank
        spec_first = np.linalg.eigvalsh(first.mat)[::-1][:top]
        spec_second = np.linalg.eigvalsh(second.mat)[::-1][:top]
        squares = np.sort(dec.coeffs**2)[::-1][:top]
        if not (
            float(np.abs(spec_first - squares).max()) <= 1e-9
            and float(np.abs(spec_second - squares).max()) <= 1e-9
        ):
            raise fail("reduction spectra differ from squared coefficients")
    bell = bell_vector()
    result = classify(bell, tol=tol)
    if result.verdict is not Verdict.QUANTUM_ENTANGLED_PURE:
        raise _Counterexample({"reason": "bell state not classified as entangled"})
    if not float(np.abs(result.certificate.schmidt.coeffs - 1 / np.sqrt(2)).max()) <= 1e-12:
        raise _Counterexample({"reason": "bell coefficients are not 1/sqrt(2)"})
    rho = projector(PureState(bell.vec))
    for side in ("first", "second"):
        reduced = partial_trace(rho, bell.dims, side)
        if not float(np.abs(reduced.mat - np.eye(2) / 2).max()) <= 1e-10:
            raise _Counterexample({"reason": f"bell {side} reduction is not maximally mixed"})
    return n


@_suite(
    "traceless-commutators",
    "commutators are traceless, so the canonical commutation relation fails in finite dimension",
)
def _suite_traceless_commutators(rng, n, tol):
    for k in range(n):
        d = int(rng.integers(2, 7))
        xm, pm = rand_complex(rng, d, d), rand_complex(rng, d, d)
        val = complex(np.trace(xm @ pm - pm @ xm))
        if not abs(val) <= 1e-9:
            raise _Counterexample({"x": list(xm), "p": list(pm), "trace": [val.real, val.imag]})
    same = rand_complex(rng, 4, 4)
    if not np.trace(same @ same - same @ same) == 0:
        raise _Counterexample({"reason": "tr[X, X] not exactly zero"})
    return n


@_suite("trace-basis-independence", "the basis sum of diagonal expectations equals the trace")
def _suite_trace_basis_independence(rng, n, tol):
    for k in range(n):
        d = int(rng.integers(2, 7))
        m = rand_complex(rng, d, d)
        u = rand_unitary(rng, d)
        basis_sum = sum(complex(np.vdot(u[:, i], m @ u[:, i])) for i in range(d))
        if not abs(basis_sum - complex(np.trace(m))) <= 1e-9:
            raise _Counterexample({"matrix": list(m), "basis": list(u)})
    return n


def run_all(
    seed: int = DEFAULT_SEED,
    instances: int = DEFAULT_INSTANCES,
    tol: Tolerance = Tolerance(),
) -> list[SuiteResult]:
    """Run every suite off one seeded generator, in registration order."""
    rng = np.random.default_rng(seed)
    results = []
    for fn in _SUITES:
        try:
            passed, count, payload = True, fn(rng, instances, tol), None
        except _Counterexample as exc:
            passed, count, payload = False, instances, exc.payload
        except (ValueError, RuntimeError) as exc:
            # a suite blowing up is a failure, not a crash: the report must
            # come out falsifiable even for a badly broken build
            passed, count, payload = False, instances, {"error": f"{type(exc).__name__}: {exc}"}
        results.append(SuiteResult(fn.suite_name, fn.suite_description, passed, count, payload))
    return results
