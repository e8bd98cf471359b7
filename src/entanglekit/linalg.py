"""Complex linear algebra with explicit tolerance contracts.

Inner products, ``np.vdot`` throughout the package, are conjugate-linear
in the FIRST argument and linear in the second.  All functions treat their
inputs as immutable values: nothing is modified in place and every result
is freshly allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_EPS = 1e-9
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_HERMITIAN_BLOCK = 128  # rows per block of the Hermiticity sweep and of the residual sweep
# The most pivots _low_rank_factor takes before it gives up.  Giving up then
# costs 0.23 ms at n = 256 and 0.29 ms at n = 576, on one core: a seventh
# and a forty-sixth of the Cholesky factorization it would have replaced
# (1.6 and 13 ms), and under a seventieth of eigh (18 and 230 ms).
_LOW_RANK_STEPS = 16


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance for rank, Hermiticity, and positivity decisions.

    Thresholds scale with the magnitude of the operand, floored at 1, so
    tiny and large-norm inputs are judged consistently.
    """

    eps: float = DEFAULT_EPS

    def __post_init__(self):
        eps = float(self.eps)
        if not (np.isfinite(eps) and eps > 0.0):
            raise ValueError(f"eps must be a positive finite real, got {self.eps!r}")
        object.__setattr__(self, "eps", eps)


def _built(cls, **fields):
    """An instance of the frozen state dataclass ``cls`` with ``fields`` set, and no check run."""
    state = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(state, name, value)
    return state


def check_weights(weights, what: str, name, tol: Tolerance = Tolerance()) -> list[float]:
    """Return the weights as floats if each is finite and >= 0 and, summed in order, they make 1.

    The sum may miss 1 by ``tol.eps``, as a density's trace may; ``what``
    names the weights in that refusal.  A bad weight at position k is named
    by ``name(k)``, with its value; ``name`` is called only then.
    """
    checked = []
    for k, p in enumerate(weights):
        p = float(p)
        if not math.isfinite(p) or p < 0.0:
            raise ValueError(f"{name(k)} must be finite and >= 0, got {p!r}")
        checked.append(p)
    total = sum(checked)
    if abs(total - 1.0) > tol.eps:
        raise ValueError(f"{what} must sum to 1, got {total!r}")
    return checked


def _convex(terms, noun: str, what: str, name: str, tol: Tolerance = Tolerance()) -> tuple:
    """A convex sum's (weight, ...) terms, weights by ``check_weights`` at ``tol``; ``name`` names a bad one."""
    terms = tuple(terms)
    if not terms:
        raise ValueError(f"{noun} needs at least one term")
    weights = check_weights([p for p, *_ in terms], what, lambda k: name, tol)
    return tuple((p, *rest) for p, (_, *rest) in zip(weights, terms))


def as_vector(entries) -> np.ndarray:
    """Coerce to a read-only 1-D complex vector, rejecting NaN/Inf entries."""
    return _checked(np.array(entries, dtype=complex), 1, "vector")


def as_matrix(entries) -> np.ndarray:
    """Coerce to a read-only 2-D complex matrix, rejecting NaN/Inf entries."""
    return _checked(np.array(entries, dtype=complex), 2, "matrix")


def _checked(a: np.ndarray, ndim: int, noun: str) -> np.ndarray:
    """a, a complex array, made read-only once it is a non-empty ``ndim``-D array of finite entries."""
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"expected a non-empty {ndim}-D {noun}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{noun} entries must be finite")
    a.flags.writeable = False
    return a


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a contiguous 1-D complex vector, bit for bit ``np.linalg.norm(v)``.

    numpy's own formula, ``sqrt(re . re + im . im)``, without its per-call
    dispatch.
    """
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _outer_flat(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product of two 1-D vectors, bit for bit ``np.kron(x, y)``.

    This is the one ufunc call ``np.kron`` makes, on the same column and
    row views, without its shape bookkeeping.  ``np.multiply.outer`` is not
    the same call: for two complex scalars it takes another inner loop, and
    its real part can differ in the last bit.
    """
    return np.multiply(x.reshape(-1, 1), y.reshape(1, -1)).ravel()


def count_above(values, tol: Tolerance = Tolerance()):
    """Count the entries of descending ``values`` above ``eps * max(1, first)``.

    Counts along the last axis, so a stack of spectra gives one count per
    spectrum.  This is the one rank-threshold rule of the package.
    """
    values = np.asarray(values)
    return np.count_nonzero(values > tol.eps * np.maximum(1.0, values[..., :1]), axis=-1)


def rank(m, tol: Tolerance = Tolerance()) -> int:
    """Number of singular values above ``eps * max(1, largest)``."""
    m = as_matrix(m)
    return int(count_above(np.linalg.svd(m, compute_uv=False), tol))


def is_hermitian(m, tol: Tolerance = Tolerance()) -> bool:
    """Entrywise self-adjointness check, threshold relative to the max entry."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"is_hermitian requires a square matrix, got shape {m.shape}")
    return _is_hermitian(m, tol)


def _is_hermitian(m: np.ndarray, tol: Tolerance) -> bool:
    """``is_hermitian`` of a square matrix ``as_matrix`` has already coerced.

    The rule is ``max|m - m^H| <= eps * max(1, max|m|)``.  It is decided on
    the upper triangle alone, swept in blocks of ``_HERMITIAN_BLOCK`` rows,
    so no full-size temporary is built.  That is the rule bit for bit:
    ``|m_ij - conj(m_ji)|`` and ``|m_ji - conj(m_ij)|`` have real parts of
    opposite sign and the same imaginary part (IEEE subtraction is exactly
    sign-symmetric, addition commutes) and ``abs`` ignores signs, so the
    triangle holds every value of the full difference.  ``max|m|`` is
    computed only when the worst difference exceeds ``eps``, the least
    threshold the rule can have.  Up to ``_HERMITIAN_BLOCK`` rows, the one
    block is the whole matrix.

    One case departs from the rule: an asymmetry that overflows to ``inf``
    is refused.  The rule would accept it when ``max|m|`` overflows too,
    as ``inf <= inf``.
    """
    k = _HERMITIAN_BLOCK
    worst = max(
        float(np.abs(m[a : a + k, a:] - m[a:, a : a + k].conj().T).max())
        for a in range(0, m.shape[0], k)
    )
    if worst == math.inf:
        return False
    return worst <= tol.eps or worst <= tol.eps * max(1.0, float(np.abs(m).max()))


def is_positive(m, tol: Tolerance = Tolerance()) -> bool:
    """True iff m is Hermitian with spectrum above ``-eps * max(1, largest)``."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return _is_positive(m, tol, _low_rank_factor(m, tol))


def _gamma(k: int) -> float:
    """Higham's ``g(k) = k u / (1 - k u)``, the relative error bound of k roundings."""
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


def _low_rank_factor(m: np.ndarray, tol: Tolerance):
    """``(L, s, beta)`` with ``||H - L L^H||_2 <= beta``, for H of low rank; else None.

    H is the Hermitian matrix given by m's lower triangle and the real part
    of its diagonal, the one ``cholesky`` and ``eigvalsh`` read.  L, n x k,
    comes from a Cholesky factorization of H with diagonal pivoting (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Sec. 10.3),
    stopped once the positive part of the residual diagonal sums to at most
    ``eps/8``, and ``s`` is ``||L||_F^2`` as computed.  It costs O(n^2 k),
    against the O(n^3) of a full factorization.  None once the factor
    would need more than ``_LOW_RANK_STEPS`` pivots, and at once when n is
    below four times that, where ``cholesky`` and ``eigh`` cost no more
    than the pivots would (0.014 and 0.12 ms at n = 32, on one core).

    The stopping rule needs no proof: ``beta`` bounds the explicit residual
    ``R = H - L L^H`` of the computed L, swept in blocks of
    ``_HERMITIAN_BLOCK`` columns of the lower triangle, with no full-size
    temporary.  Each entry of R is computed from an inner product of length
    k and one subtraction, so, for complex arithmetic,
    ``|fl(R) - R| <= c (|H| + |L| |L^H|)`` with ``c = 2 g(k+3)``; since
    ``|H| <= |R| + |L| |L^H|``, that is ``<= c/(1-c) (|fl(R)| + 2 |L| |L^H|)``.
    Taking norms, ``||R||_2 <= f + c/(1-c) (f + 2 s)`` with ``f >= ||fl(R)||_F``.
    f is the computed Frobenius norm of fl(R) (R is Hermitian, so each
    strictly lower entry counts twice), and summing its n^2 squares, like
    computing s, errs by at most ``g(n^2+4)`` relative; one more such factor
    covers the arithmetic of beta itself.  A product that underflows errs
    absolutely instead, by at most ``u`` times the least normal number
    (Higham, Sec. 2.1), which is below ``eta``, the least subnormal; so the
    sum of squares gains ``2 n^2 eta``, f ``n (k+2) eta`` and s
    ``2 n k eta``.  Overflow gives an infinite or NaN beta, which no caller
    accepts.
    """
    n = m.shape[0]
    if n < 4 * _LOW_RANK_STEPS:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        d = m.diagonal().real.copy()  # the residual diagonal
        lt = np.empty((_LOW_RANK_STEPS, n), dtype=complex)  # row j is column j of L
        for k in range(_LOW_RANK_STEPS + 1):
            if np.maximum(d, 0.0).sum() <= tol.eps / 8:
                break
            if k == _LOW_RANK_STEPS:
                return None
            p = int(d.argmax())
            col = np.concatenate((m[p, :p].conj(), m[p:, p]))  # column p of H
            col[p] = m[p, p].real
            col -= lt[:k].T @ lt[:k, p].conj()
            col /= math.sqrt(d[p])
            lt[k] = col
            d -= col.real**2 + col.imag**2
            d[p] = 0.0
        l = lt[:k].copy()  # the factor holds its k rows, not the cap's
        s = float(np.vdot(l, l).real)
        diag = m.diagonal().real - (l.real**2 + l.imag**2).sum(axis=0)
        squares = float(diag @ diag)
        b = _HERMITIAN_BLOCK
        for a in range(0, n, b):
            r = l[:, a:].T @ l[:, a : a + b].conj()
            np.subtract(m[a:, a : a + b], r, out=r)
            w = r.shape[1]
            below, inside = r[w:], np.tril(r[:w], -1)
            squares += 2 * float(np.vdot(below, below).real + np.vdot(inside, inside).real)
        g, c, eta = _gamma(n * n + 4), 2 * _gamma(k + 3), math.ulp(0.0)
        f = math.sqrt(squares + 2 * n * n * eta) * (1 + g) + n * (k + 2) * eta
        beta = (f + c / (1 - c) * (f + 2 * (s + 2 * n * k * eta))) * (1 + g)
    return l.T, s, beta


def _factor_slack(factor) -> float:
    """How far an eigenvalue of H that ``eigvalsh`` or ``eigh`` computes may lie from one of ``L L^H``.

    For ``(L, s, beta)`` of ``_low_rank_factor``, ``H = L L^H + R`` with
    ``||R||_2 <= beta``, so by Weyl each eigenvalue of H lies within beta of
    the same-ranked one of ``L L^H``, which is positive.  The computed ones
    are exact for some ``H + E``, ``||E||_2 <= n^2 u ||H||_2`` as in
    ``_is_positive``, and ``||H||_2 <= ||L||_F^2 + beta <= 2 s + beta``, 2s
    allowing for the rounding of s: the slack is ``beta + n^2 u (2 s + beta)``.
    """
    l, s, beta = factor
    n = l.shape[0]
    return beta + n * n * _UNIT_ROUNDOFF * (2 * s + beta)


def _is_positive(m: np.ndarray, tol: Tolerance, factor) -> bool:
    """``is_positive`` of a square matrix ``as_matrix`` has already coerced.

    The rule is ``w[0] >= -eps * max(1, w[-1])`` on ``w = eigvalsh(m)``.  Two
    screens accept first, without the eigenvalues, where they prove that
    the rule would accept; anything else gets ``eigvalsh``.  All of them
    read the Hermitian matrix H given by m's lower triangle and the real
    part of its diagonal.

    ``eigvalsh`` returns the exact eigenvalues of some ``H + E`` with
    ``||E||_2 <= p(n) u ||H||_2``, where u is the unit roundoff; both
    screens allow ``p(n) = n^2``.

    The low-rank screen reads ``factor``, m's ``_low_rank_factor``, which a
    ``DensityOperator`` keeps: ``w[0] >= -_factor_slack(factor)``, so a slack
    below ``eps/2`` accepts.  A None factor (a rank past ``_LOW_RANK_STEPS``,
    a small n) or a thinner margin goes to the Cholesky screen.

    The Cholesky screen factors ``A = H + (eps/2) I``.  If that completes
    with computed factor R, then ``R^H R = fl(A) + dA`` with
    ``|dA| <= g(n+1) |R^H| |R|``, where ``g(k) = k u / (1 - k u)`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 10.3).
    Rounding A's diagonal adds at most ``u |A_ii|``, so ``A = R^H R - F``
    with ``|F| <= g(n+2) |R^H| |R|``, and ``||F||_2 <= g(n+2) s`` for
    ``s = ||R||_F^2``.  Hence

        lambda_min(H) >= -eps/2 - g(n+2) s,   ||H||_2 <= s + g(n+2) s + eps/2.

    Taking 2s for ``s + g(n+2) s`` and for the rounding of s itself gives

        w[0] >= -eps/2 - g(n+2) s - n^2 u (2 s + eps/2).

    So when those two error terms together stay below ``eps/2``,
    ``w[0] >= -eps``, which the rule accepts.  A failed factorization, or a
    margin too thin (a tiny eps, a large n, a large norm), decides nothing.
    """
    if not _is_hermitian(m, tol):
        return False
    if factor is not None and _factor_slack(factor) < tol.eps / 2:
        return True
    n = m.shape[0]
    u = _UNIT_ROUNDOFF
    a = m.copy()
    a.reshape(-1)[:: n + 1] += tol.eps / 2
    try:
        r = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    else:
        s = float(np.vdot(r, r).real)
        factored = _gamma(n + 2) * s
        solved = n * n * u * (2 * s + tol.eps / 2)
        if factored + solved < tol.eps / 2:
            return True
    w = np.linalg.eigvalsh(m)
    return bool(w[0] >= -tol.eps * max(1.0, float(w[-1])))
