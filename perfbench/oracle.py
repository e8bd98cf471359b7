"""Numpy-only correctness oracle for CLI reports.

Nothing here imports entanglekit: every expected value is recomputed from
the input state with numpy, so a defect in the library cannot hide behind
the same defect in the check.  ``check`` raises ``Mismatch`` with a reason
when a report disagrees with its input.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

EPS = 1e-9  # the CLI's default tolerance; generated states sit far from it
EXACT = 1e-12  # for values the CLI copies or sums rather than decomposes


class Mismatch(Exception):
    """A report, or an exit code, disagrees with the input."""


def _ensure(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


# ---------------------------------------------------------------------------
# reading states and reports


def _cvec(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def load_state(path: Path) -> dict:
    """Parse a state file into the dict form the generators produce."""
    obj = json.loads(Path(path).read_text())
    kind = obj["type"]
    if kind == "bipartite":
        return {"type": kind, "dims": tuple(obj["dims"]), "vec": _cvec(obj["vec"])}
    if kind == "density":
        mat = _cvec(obj["mat"])
        return {"type": kind, "mat": mat, "rank": _rank(np.linalg.eigvalsh(mat))}
    if kind == "separable":
        terms = [(float(t["p"]), _cvec(t["x"]), _cvec(t["y"])) for t in obj["terms"]]
        return {"type": kind, "dims": tuple(obj["dims"]), "terms": terms}
    if kind == "classical2":
        probs = [(x, y, float(p)) for x, y, p in obj["probs"]]
        return {"type": kind, "spaceX": obj["spaceX"], "spaceY": obj["spaceY"], "probs": probs}
    return obj


def _rank(values: np.ndarray) -> int:
    """Count of values above ``EPS * max(1, largest)``: the CLI's documented rank rule."""
    values = np.sort(np.abs(values))[::-1]
    return int(np.count_nonzero(values > EPS * max(1.0, float(values[0]))))


def _density_of(state: dict) -> np.ndarray:
    kind = state["type"]
    if kind == "density":
        return state["mat"]
    if kind in ("bipartite", "pure"):
        v = state["vec"]
        return np.outer(v, v.conj())
    if kind == "separable":
        return sum(p * np.kron(np.outer(x, x.conj()), np.outer(y, y.conj())) for p, x, y in state["terms"])
    raise Mismatch(f"no density for a {kind} state")


# ---------------------------------------------------------------------------
# per-report checks


def _check_schmidt(sch: dict, vec: np.ndarray, dims, up_to_phase: bool) -> None:
    d1, d2 = dims
    _ensure(list(sch["dims"]) == [d1, d2], f"schmidt dims {sch['dims']} != {[d1, d2]}")
    expected = np.linalg.svd(vec.reshape(d1, d2), compute_uv=False)
    coeffs = np.asarray(sch["coeffs"], dtype=float)
    _ensure(coeffs.shape == expected.shape, "wrong number of schmidt coefficients")
    _ensure(float(np.abs(coeffs - expected).max()) <= EPS, "schmidt coefficients differ from the SVD")
    _ensure(sch["rank"] == _rank(expected), f"schmidt rank {sch['rank']} != {_rank(expected)}")
    left, right = _cvec(sch["left"]), _cvec(sch["right"])
    recon = np.einsum("k,ki,kj->ij", coeffs, left, right).ravel()
    if up_to_phase:
        recon = recon * np.exp(-1j * np.angle(np.vdot(recon, vec)))
    _ensure(float(np.linalg.norm(recon - vec)) <= EPS, "schmidt data does not reconstruct the vector")


def _check_pure_classification(result: dict, vec: np.ndarray, dims, up_to_phase: bool) -> None:
    rank = _rank(np.linalg.svd(vec.reshape(dims), compute_uv=False))
    cert = result["certificate"]
    if rank == 1:
        _ensure(result["verdict"] == "QuantumProductPure", f"verdict {result['verdict']} for Schmidt rank 1")
        _ensure(cert["kind"] == "product-factors", f"certificate kind {cert['kind']}")
        t = np.kron(_cvec(cert["x"]), _cvec(cert["y"]))
        phase = np.vdot(t, vec)
        _ensure(abs(abs(phase) - 1.0) <= EPS, "product factors are not unit vectors along the input")
        _ensure(float(np.linalg.norm(phase * t - vec)) <= EPS, "product factors do not tensor back to the vector")
    else:
        _ensure(result["verdict"] == "QuantumEntangledPure", f"verdict {result['verdict']} for Schmidt rank {rank}")
        _ensure(cert["kind"] == "schmidt", f"certificate kind {cert['kind']}")
    _check_schmidt(cert["schmidt"], vec, dims, up_to_phase)


def _check_classify(result: dict, state: dict) -> None:
    kind = state["type"]
    if kind in ("bipartite", "pure"):
        _check_pure_classification(result, state["vec"], state["dims"], up_to_phase=False)
    elif kind == "density":
        rho, dims = state["mat"], state["dims"]
        if state["rank"] == 1:
            _, vectors = np.linalg.eigh(rho)
            _check_pure_classification(result, vectors[:, -1], dims, up_to_phase=True)
            return
        _ensure(result["verdict"] == "Undetermined", f"verdict {result['verdict']} for a mixed density")
        cert = result["certificate"]
        _ensure(cert["kind"] == "range-report", f"certificate kind {cert['kind']}")
        _ensure(cert["range_rank"] == state["rank"], f"range_rank {cert['range_rank']} != {state['rank']}")
        basis = _cvec(cert["basis"])
        _ensure(basis.shape == (state["rank"], rho.shape[0]), "range basis has the wrong shape")
        gram = basis.conj() @ basis.T
        _ensure(float(np.abs(gram - np.eye(len(basis))).max()) <= EPS, "range basis is not orthonormal")
        proj = basis.T @ basis.conj()
        _ensure(float(np.abs(proj @ rho - rho).max()) <= EPS, "range basis does not span the range")
        svals = np.linalg.svd(basis.reshape(len(basis), *dims), compute_uv=False)
        ranks = [_rank(s) for s in svals]
        _ensure(cert["schmidt_ranks"] == ranks, "range basis Schmidt ranks differ")
        _ensure(cert["all_elementary"] == all(r == 1 for r in ranks), "all_elementary flag is wrong")
    elif kind == "separable":
        _ensure(
            result["verdict"] == "QuantumSeparableByConstruction",
            f"verdict {result['verdict']} for a separable decomposition",
        )
        cert = result["certificate"]
        _ensure(cert["range_criterion_passed"] is True, "range criterion failed on a valid decomposition")
        terms = cert["decomposition"]["terms"]
        _ensure(len(terms) == len(state["terms"]), "decomposition has the wrong number of terms")
        for got, (p, x, y) in zip(terms, state["terms"]):
            _ensure(abs(got["p"] - p) <= EXACT, "decomposition weight differs from the input")
            _ensure(float(np.abs(_cvec(got["x"]) - x).max()) <= EXACT, "decomposition factor differs")
            _ensure(float(np.abs(_cvec(got["y"]) - y).max()) <= EXACT, "decomposition factor differs")
    elif kind == "classical2":
        support = {(x, y): p for x, y, p in state["probs"] if p > 0.0}
        expected = "ClassicalPure" if len(support) == 1 else "ClassicalSeparable"
        _ensure(result["verdict"] == expected, f"verdict {result['verdict']}, expected {expected}")
        recombined: dict = {}
        for term in result["certificate"]["terms"]:
            key = (term["x"], term["y"])
            recombined[key] = recombined.get(key, 0.0) + term["p"]
        _ensure(recombined.keys() == support.keys(), "classical certificate has the wrong support")
        worst = max(abs(recombined[k] - p) for k, p in support.items())
        _ensure(worst <= EXACT, "classical certificate does not recombine to the input")
    else:
        raise Mismatch(f"classify accepted a {kind} state")


def _check_ptrace(result: dict, state: dict, keep: int) -> None:
    d1, d2 = state["dims"]
    r4 = _density_of(state).reshape(d1, d2, d1, d2)
    expected = np.einsum("ijkj->ik", r4) if keep == 1 else np.einsum("ijil->jl", r4)
    _ensure(result["type"] == "density", f"ptrace returned a {result['type']}")
    mat = _cvec(result["mat"])
    _ensure(mat.shape == expected.shape, f"reduced state has shape {mat.shape}")
    _ensure(float(np.abs(mat - expected).max()) <= EPS, "reduced state differs from the einsum")


def _check_marginal(result: dict, state: dict, side: int) -> None:
    space = state["spaceX"] if side == 1 else state["spaceY"]
    sums: dict = {}
    for x, y, p in state["probs"]:
        if p > 0.0:
            label = x if side == 1 else y
            sums[label] = sums.get(label, 0.0) + p
    _ensure(result["space"] == space, "marginal has the wrong label space")
    _ensure(result["probs"].keys() == sums.keys(), "marginal has the wrong support")
    worst = max(abs(result["probs"][k] - p) for k, p in sums.items())
    _ensure(worst <= EXACT, "marginal does not sum the joint probabilities")


def _check_verify(result: dict) -> None:
    failed = [s["name"] for s in result["suites"] if not s["passed"]]
    _ensure(not failed, f"verify suites failed: {failed}")
    _ensure(result["all_passed"] is True, "verify does not report all_passed")
    _ensure(all(s["instances"] > 0 for s in result["suites"]), "a verify suite ran no instances")


def _option(args: list[str], flag: str) -> int:
    return int(args[args.index(flag) + 1])


def check(op, exit_code: int, stdout: bytes) -> None:
    """Raise Mismatch unless the CLI's exit code and report agree with op's input."""
    _ensure(exit_code == op.expect_exit, f"exit code {exit_code}, expected {op.expect_exit}")
    if op.expect_exit != 0:
        _ensure(stdout == b"", "a refused input still printed a report")
        return
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        raise Mismatch(f"report is not JSON: {exc}") from None
    command = op.args[0]
    _ensure(report.get("tool") == "entanglekit", "report lacks the tool tag")
    _ensure(report.get("command") == command, f"report is for {report.get('command')!r}")
    result = report["result"]
    try:
        if command == "verify":
            _check_verify(result)
        elif command in ("classify", "schmidt"):
            if command == "schmidt":
                _check_schmidt(result, op.truth["vec"], op.truth["dims"], up_to_phase=False)
            else:
                _check_classify(result, op.truth)
        elif command == "ptrace":
            _check_ptrace(result, op.truth, _option(op.args, "--keep"))
        elif command == "marginal":
            _check_marginal(result, op.truth, _option(op.args, "--side"))
        else:
            raise Mismatch(f"no oracle for {command!r}")
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise Mismatch(f"malformed report: {type(exc).__name__}: {exc}") from None
