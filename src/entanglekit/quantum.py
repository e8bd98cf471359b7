"""Quantum states: rank-one projectors, density operators, and mixtures.

Normalization policy: constructors REJECT non-normalized input instead of
silently renormalizing, so a bad upstream state can never masquerade as a
valid one.  Densities are validated when read, trusted when built: the
library functions that assemble a density from states it has already
validated (a projector, a product, a convex sum, a partial trace) wrap the
result with ``_built_density`` and run no second check.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .linalg import Tolerance, as_matrix, as_vector, check_weights, is_hermitian, is_positive, rank


def check_unit_norm(v: np.ndarray, tol: Tolerance) -> None:
    """Reject v unless ``|norm(v)**2 - 1| <= eps``.

    The bound is on the squared norm because that is the trace of v's
    projector: a vector accepted here has a projector of unit trace at the
    same tolerance.
    """
    nrm = float(np.linalg.norm(v))
    if abs(nrm * nrm - 1.0) > tol.eps:
        raise ValueError(f"pure state must have unit norm, got {nrm!r}")


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector representing a pure state."""

    vec: np.ndarray
    tol: InitVar[Tolerance] = Tolerance()

    def __post_init__(self, tol):
        v = as_vector(self.vec)
        check_unit_norm(v, tol)
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive operator of unit trace."""

    mat: np.ndarray
    tol: InitVar[Tolerance] = Tolerance()

    def __post_init__(self, tol):
        m = as_matrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density operator must be square, got shape {m.shape}")
        if not is_positive(m, tol):
            raise ValueError("density operator must be positive")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > tol.eps:
            raise ValueError(f"density operator must have unit trace, got {tr!r}")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _built_density(m: np.ndarray) -> DensityOperator:
    """A ``DensityOperator`` on m, a matrix the library assembled from validated states.

    No check runs: the operations that build m preserve positivity and unit
    trace, so m is made read-only and complex and set as it is.
    """
    m = np.asarray(m, dtype=complex)
    m.flags.writeable = False
    rho = object.__new__(DensityOperator)
    object.__setattr__(rho, "mat", m)
    return rho


@dataclass(frozen=True)
class MixedEnsemble:
    """Pure states with probabilities, before the density representation."""

    terms: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("ensemble needs at least one term")
        dims = {x.dim for _, x in terms}
        if len(dims) != 1:
            raise ValueError(f"ensemble states must share one dimension, got {sorted(dims)}")
        weights = check_weights([p for p, _ in terms], "ensemble weights")
        object.__setattr__(self, "terms", tuple((p, x) for p, (_, x) in zip(weights, terms)))

    @property
    def dim(self) -> int:
        return self.terms[0][1].dim


def projector(x: PureState) -> DensityOperator:
    """Rank-one projector onto x: the operator u -> <x, u> x."""
    v = x.vec
    return _built_density(np.outer(v, v.conj()))


def expectation(a, rho: DensityOperator, tol: Tolerance = Tolerance()) -> float:
    """Expectation value Tr(A rho) of a Hermitian observable; any imaginary part is rounding."""
    a = as_matrix(a)
    if not is_hermitian(a, tol):
        raise ValueError("observable must be Hermitian")
    if a.shape[0] != rho.dim:
        raise ValueError(f"dimension mismatch: observable {a.shape[0]}, state {rho.dim}")
    return complex(np.trace(a @ rho.mat)).real


def mix(ensemble: MixedEnsemble) -> DensityOperator:
    """Convex combination of the projectors of the ensemble's pure states."""
    acc = np.zeros((ensemble.dim, ensemble.dim), dtype=complex)
    for p, x in ensemble.terms:
        acc += p * np.outer(x.vec, x.vec.conj())
    return _built_density(acc)


def is_density(m, tol: Tolerance = Tolerance()) -> bool:
    """True iff the matrix m passes the ``DensityOperator`` rule at ``tol``."""
    m = as_matrix(m)
    try:
        DensityOperator(m, tol)
    except ValueError:
        return False
    return True


def is_pure_density(rho: DensityOperator, tol: Tolerance = Tolerance()) -> bool:
    """True iff rho has rank one at ``tol``."""
    return rank(rho.mat, tol) == 1


def mixture_vs_superposition(
    a, x1: PureState, x2: PureState, p1: float, *, normalize: bool = True
) -> tuple[float, float]:
    """Expectation in a two-state mixture vs in the naive vector sum.

    The mixture value is ``p1 <x1, A x1> + (1 - p1) <x2, A x2>``, the
    correct expectation when the system is in x1 or x2 with those
    probabilities.  The naive value evaluates A in the single vector
    z = p1 x1 + (1 - p1) x2 instead: ``<z, A z> / <z, z>`` when
    ``normalize`` is true, or the raw quadratic form ``<z, A z>`` (which
    expands to the p1^2 / cross / p2^2 terms) when false.  Both are
    returned so callers can exhibit that no vector reproduces the mixture
    statistics.
    """
    a = as_matrix(a)
    if not is_hermitian(a):
        raise ValueError("observable must be Hermitian")
    if not (x1.dim == x2.dim == a.shape[0]):
        raise ValueError(
            f"dimension mismatch: observable {a.shape[0]}, states {x1.dim} and {x2.dim}"
        )
    p1 = float(p1)
    if not (0.0 <= p1 <= 1.0):
        raise ValueError(f"p1 must lie in [0, 1], got {p1!r}")
    p2 = 1.0 - p1
    mixture = p1 * complex(np.vdot(x1.vec, a @ x1.vec)).real + p2 * complex(
        np.vdot(x2.vec, a @ x2.vec)
    ).real
    z = p1 * x1.vec + p2 * x2.vec
    zz = complex(np.vdot(z, z)).real
    naive = complex(np.vdot(z, a @ z)).real
    if normalize:
        if zz == 0.0:
            raise ValueError("superposition vector vanishes; cannot normalize")
        naive /= zz
    return mixture, naive


def ccr_trace_obstruction(xm, pm) -> complex:
    """Trace of the commutator X P - P X.

    Always zero for finite matrices, which is exactly why no finite pair
    can satisfy X P - P X = (i hbar) I: the right side has trace
    i hbar n != 0.
    """
    xm = as_matrix(xm)
    pm = as_matrix(pm)
    if xm.shape[0] != xm.shape[1] or xm.shape != pm.shape:
        raise ValueError(f"expected square matrices of one dimension, got {xm.shape} and {pm.shape}")
    return complex(np.trace(xm @ pm - pm @ xm))
