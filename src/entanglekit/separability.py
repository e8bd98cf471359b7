"""Product states, separable mixtures, the range criterion, and the one
classifier of composite states.

A composite classical state is always separable, a convex sum of products
of point masses.  Pure quantum states are decided exactly: Schmidt rank one
means product, anything higher means entangled.  Mixed states are only
certified separable when the caller supplies an explicit decomposition;
without one the verdict is Undetermined, because the range criterion is a
necessary condition only and this library does not guess.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .bipartite import BipartiteDims, BipartiteVector, SchmidtDecomposition, schmidt
from .classical import ClassicalSeparableCert, CompositeClassicalState, classify_classical
from .linalg import (
    _UNIT_ROUNDOFF,
    Tolerance,
    _built,
    _convex,
    _factor_slack,
    _norm,
    _outer_flat,
    count_above,
)
from .quantum import DensityOperator, MixedEnsemble, PureState, check_unit_norm, mix, projector


@dataclass(frozen=True)
class SeparableDecomposition:
    """Explicit convex decomposition into products of subsystem pure states."""

    dims: BipartiteDims
    terms: tuple[tuple[float, PureState, PureState], ...]
    tol: InitVar[Tolerance] = Tolerance()

    def __post_init__(self, tol):
        terms = _convex(self.terms, "decomposition", "weights", "weights", tol)
        object.__setattr__(self, "terms", terms)
        for _, x, y in terms:
            if x.dim != self.dims.d1 or y.dim != self.dims.d2:
                raise ValueError(
                    f"term dimensions ({x.dim}, {y.dim}) do not match {self.dims}"
                )


class Verdict(str, Enum):
    CLASSICAL_PURE = "ClassicalPure"
    CLASSICAL_SEPARABLE = "ClassicalSeparable"
    QUANTUM_PRODUCT_PURE = "QuantumProductPure"
    QUANTUM_ENTANGLED_PURE = "QuantumEntangledPure"
    QUANTUM_SEPARABLE_BY_CONSTRUCTION = "QuantumSeparableByConstruction"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True, eq=False)
class ProductCertificate:
    """Schmidt data of a product pure state; x and y are its ``left[0]`` and ``right[0]``."""

    schmidt: SchmidtDecomposition
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True, eq=False)
class EntangledCertificate:
    """Full Schmidt decomposition witnessing rank >= 2.

    The verdict is re-checkable from this data alone: the projector's
    range is one-dimensional and spanned by a non-elementary tensor, which
    no separable state's range can be.
    """

    schmidt: SchmidtDecomposition


@dataclass(frozen=True, eq=False)
class SeparableCertificate:
    decomposition: SeparableDecomposition
    range_criterion_passed: bool


@dataclass(frozen=True, eq=False)
class RangeReport:
    """Rank-one screening of a mixed state's range basis.

    ``all_elementary`` records whether the computed range basis happens to
    consist of elementary tensors.  This is a heuristic observation only;
    it never upgrades an Undetermined verdict, since spanning by
    elementary tensors is necessary for separability, not sufficient.
    """

    basis: tuple[np.ndarray, ...]
    schmidt_ranks: tuple[int, ...]
    all_elementary: bool


Certificate = Union[
    ProductCertificate, EntangledCertificate, SeparableCertificate, RangeReport, ClassicalSeparableCert
]


@dataclass(frozen=True, eq=False)
class Classification:
    verdict: Verdict
    certificate: Certificate


def product_pure(x: PureState, y: PureState) -> DensityOperator:
    """Projector onto x (x) y, the ``projector`` of their product vector.

    It equals ``kron_op(projector(x), projector(y))``; the
    ``product-projector-identity`` verify suite checks that identity.
    """
    return projector(_built(PureState, vec=_outer_flat(x.vec, y.vec)))


def separable_density(dec: SeparableDecomposition) -> DensityOperator:
    """``mix`` of the decomposition's product pure states, each with its weight.

    The terms' factors and weights are already validated, so neither the
    product states nor the sum is checked again.
    """
    products = tuple((p, _built(PureState, vec=_outer_flat(x.vec, y.vec))) for p, x, y in dec.terms)
    return mix(_built(MixedEnsemble, terms=products))


def range_basis(rho: DensityOperator, tol: Tolerance = Tolerance()) -> list[np.ndarray]:
    """Orthonormal basis of the column space: ``_range``'s read-only rows, by descending eigenvalue."""
    return list(_range(rho, tol)[0])


def _range(rho: DensityOperator, tol: Tolerance) -> tuple[np.ndarray, float]:
    """Read-only rows spanning rho's range, by descending value, and the largest eigenvalue or Ritz value.

    ``rho`` was validated when it was built, so its matrix goes straight to
    the decompositions.  ``_ritz`` gives the rows from rho's one factor,
    ``rho._low_rank``, of any rank, when its margins at ``tol`` prove
    ``eigh``'s count: the same range, with other phases and last bits.
    Anything else (no factor, one with no columns, a thin margin) gets
    ``eigh``'s eigenvectors above the cut.
    """
    ritz = _ritz(rho._low_rank(tol), tol)
    if ritz is None:
        values, vectors = np.linalg.eigh(rho.mat)
        values, vectors = values[::-1], vectors[:, ::-1]
        ritz = vectors[:, : count_above(values, tol)].T.copy(), float(values[0])  # one row per vector
    ritz[0].flags.writeable = False
    return ritz


def _ritz(factor, tol: Tolerance) -> Optional[tuple[np.ndarray, float]]:
    """Rows spanning H's range, of rank k >= 1, from H's low-rank factor, and the top Ritz value; or None.

    With ``(L, s, beta)`` from ``_low_rank_factor``, the basis is ``Q V``:
    ``Q R_L`` is the QR factorization of L, and V the eigenvectors of the
    k x k ``R_L R_L^H``, whose eigenvalues ``mu`` are those of ``L L^H``.
    Each eigenvalue ``eigh`` computes of H lies within
    ``outside = _factor_slack(factor)`` of a mu or of 0.  Householder QR is
    backward stable columnwise (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Thm 19.4), with an error of order
    ``n k u ||L||_F`` whose constant the theorem leaves open; taking
    ``16 n k u`` for it, the singular values of R_L lie that close to L's,
    so mu, their squares, within ``32 n k u s``, and the k x k product and
    ``eigh`` add about ``k^2 u s``.  ``ritz = 96 n k u s`` covers all of
    it, with the rounding of s.  When ``outside < eps/2`` no eigenvalue
    outside the k clears the cut ``eps * max(1, largest)``, and when the
    least mu, less ``outside + ritz``, clears the cut as the largest mu,
    plus the same, sets it, all k do: ``count_above`` on ``eigh``'s
    eigenvalues counts k.  That reads L, s and beta alone, so it holds at
    any ``tol``, whatever the factor's.  Otherwise None, as for no factor.
    Each row is turned to a real first entry >= 0 (a 0 stays), the way
    ``eigh`` leaves its vectors, so a rank-one row is +- ``eigh``'s; L's rows
    go to QR reversed, so that no ``1 - tau`` rounds a small first entry.
    """
    if factor is None or factor[0].shape[1] == 0:
        return None
    l, s, _ = factor
    n, k = l.shape
    outside = _factor_slack(factor)
    if not outside < tol.eps / 2:  # also when beta is NaN or infinite
        return None
    q, r = np.linalg.qr(l[::-1])
    mu, v = np.linalg.eigh(r @ r.conj().T)
    spread = outside + 96 * n * k * _UNIT_ROUNDOFF * s  # outside, plus ritz
    if not mu[0] - spread > tol.eps * max(1.0, float(mu[-1]) + spread):
        return None
    rows = v[:, ::-1].T @ q[::-1].T  # one contiguous row per vector, by descending Ritz value
    size = np.abs(rows[:, :1])
    rows *= np.divide(rows[:, :1].conj(), size, out=np.ones_like(rows[:, :1]), where=size > 0)
    rows[:, :1] = size  # exactly real
    return rows, float(mu[-1])


def check_range_criterion(dec: SeparableDecomposition, tol: Tolerance = Tolerance()) -> bool:
    """Verify span{x_i (x) y_i} equals the range of the assembled density.

    The range is ``_range``'s, above ``cut = eps * max(1, largest)``;
    as ``p |t><t| <= rho``, each term's product vector t must satisfy
    ``p * |(I - P_range) t|**2 <= cut``, and the range must lie in the span
    of the terms with p > 0.  True for every valid decomposition; a False
    return indicates an implementation bug, surfaced by the test suites.
    When eps lies above every eigenvalue the range is empty: the cut is then
    ``eps`` and the reverse containment holds vacuously.
    """
    basis, largest = _range(separable_density(dec), tol)
    cut = tol.eps * max(1.0, largest) if len(basis) else tol.eps
    terms = [(p, _outer_flat(x.vec, y.vec)) for p, x, y in dec.terms if p > 0.0]
    for p, t in terms:
        outside = t - basis.T @ (basis.conj() @ t)
        if p * float(np.vdot(outside, outside).real) > cut:
            return False
    u, s, _ = np.linalg.svd(np.column_stack([t for _, t in terms]), full_matrices=False)
    span = u[:, : count_above(s, tol)]
    return all(_norm(b - span @ (span.conj().T @ b)) <= tol.eps * _norm(b) for b in basis)


def _unit_schmidt(t: BipartiteVector, tol: Tolerance) -> SchmidtDecomposition:
    """Schmidt form of t, a unit vector, which must have a coefficient above the cut.

    The caller has checked t's norm, or computed t as a unit vector.  A unit
    vector has Schmidt rank >= 1.  Rank 0 means eps lies above the largest
    coefficient, so the tolerance is refused rather than read as a verdict.
    """
    dec = schmidt(t, tol)
    if dec.rank == 0:
        raise ValueError(
            f"tolerance {tol.eps!r} lies above every Schmidt coefficient "
            f"(largest {float(dec.coeffs[0])!r}); a unit vector has Schmidt rank >= 1"
        )
    return dec


def _classify_pure_vector(t: BipartiteVector, tol: Tolerance) -> Classification:
    dec = _unit_schmidt(t, tol)
    if dec.rank == 1:
        cert = ProductCertificate(dec, dec.left[0], dec.right[0])
        return Classification(Verdict.QUANTUM_PRODUCT_PURE, cert)
    return Classification(Verdict.QUANTUM_ENTANGLED_PURE, EntangledCertificate(dec))


def classify(
    state: Union[CompositeClassicalState, BipartiteVector, DensityOperator, SeparableDecomposition],
    dims: Optional[BipartiteDims] = None,
    tol: Tolerance = Tolerance(),
) -> Classification:
    """Classify a composite state, returning a verdict with a certificate.

    Dispatch:
      * CompositeClassicalState: ClassicalPure on a one-point support,
        ClassicalSeparable otherwise, certified by ``classify_classical``.
      * BipartiteVector: its norm is checked, then it is decided by Schmidt
        rank; product factors are recovered for rank one, the full Schmidt
        data is attached for rank >= 2.
      * Rank-one DensityOperator: its read-only range vector, a unit vector
        as computed, goes to the pure-state path above unchecked and uncopied.
      * SeparableDecomposition: separable by construction; the range
        criterion is checked and attached.
      * Any other DensityOperator: Undetermined, with a range report from
        rank-one screening of the range basis.  An empty range means eps
        lies above every eigenvalue, and the tolerance is refused with a
        ValueError, as ``_unit_schmidt`` refuses Schmidt rank 0.

    ``dims`` is required for density operators and must agree with the
    state's own dims otherwise.
    """
    if isinstance(state, DensityOperator):
        if dims is None:
            raise ValueError("dims are required to classify a density operator")
        if dims.total != state.dim:
            raise ValueError(f"state dimension {state.dim} does not factor as {dims}")
        basis = _range(state, tol)[0]
        if not len(basis):
            raise ValueError(
                f"tolerance {tol.eps!r} lies above every eigenvalue of the density; "
                "a density has rank >= 1"
            )
        if len(basis) == 1:
            return _classify_pure_vector(_built(BipartiteVector, vec=basis[0], dims=dims), tol)
        coeffs = np.linalg.svd(basis.reshape(len(basis), dims.d1, dims.d2), compute_uv=False)
        ranks = tuple(count_above(coeffs, tol).tolist())
        report = RangeReport(tuple(basis), ranks, all(r == 1 for r in ranks))
        return Classification(Verdict.UNDETERMINED, report)
    if not isinstance(state, (CompositeClassicalState, BipartiteVector, SeparableDecomposition)):
        raise TypeError(f"cannot classify {type(state).__name__}")
    if dims is not None and dims != state.dims:
        raise ValueError(f"dims {dims} disagree with the state's dims {state.dims}")
    if isinstance(state, CompositeClassicalState):
        verdict = Verdict.CLASSICAL_PURE if state.is_pure else Verdict.CLASSICAL_SEPARABLE
        return Classification(verdict, classify_classical(state))
    if isinstance(state, BipartiteVector):
        check_unit_norm(state.vec, tol)
        return _classify_pure_vector(state, tol)
    passed = check_range_criterion(state, tol)
    return Classification(
        Verdict.QUANTUM_SEPARABLE_BY_CONSTRUCTION, SeparableCertificate(state, passed)
    )
