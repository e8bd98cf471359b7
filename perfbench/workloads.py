"""Seeded workload generators.

Each workload is a fixed list of CLI operations (one pass).  The seed
chooses the numbers inside the generated state files, never the shape of
the pass: the dimensions, ranks, term counts and the order of operations
are the same for every seed, so runs with different seeds measure the same
amount of work.  The same seed writes byte-identical files.

Every operation carries the state it reads as numpy arrays (``truth``),
which the oracle checks the report against.  Files are written with
``repr`` floats, so the CLI parses exactly the doubles held here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from oracle import load_state


@dataclass
class Op:
    """One CLI invocation: arguments after the program name, and what to expect."""

    name: str
    args: list[str]
    expect_exit: int = 0
    truth: Optional[dict] = None
    dim: Optional[int] = None  # total dimension D, for the per-layer split


# ---------------------------------------------------------------------------
# random states


def _crandn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = _crandn(rng, d)
    return v / np.linalg.norm(v)


def _density(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Exactly Hermitian density matrix with ``rank`` Dirichlet-weighted eigenvalues."""
    q, _ = np.linalg.qr(_crandn(rng, dim, rank))
    w = rng.dirichlet(np.ones(rank))
    rho = (q * w) @ q.conj().T
    return (rho + rho.conj().T) / 2


# ---------------------------------------------------------------------------
# JSON text (built directly: json.dumps of a 10^6-entry nested list is slow)


def _cvec_text(v: np.ndarray) -> str:
    v = np.asarray(v).ravel()
    re = map(repr, v.real.tolist())
    im = map(repr, v.imag.tolist())
    return "[" + ",".join(f"[{a},{b}]" for a, b in zip(re, im)) + "]"


def state_text(state: dict) -> str:
    """Wire form of a state dict, in the CLI's input format."""
    kind = state["type"]
    if kind in ("bipartite", "pure"):
        head = f'"dims":{json.dumps(list(state["dims"]))},' if kind == "bipartite" else ""
        return f'{{"type":"{kind}",{head}"vec":{_cvec_text(state["vec"])}}}'
    if kind == "density":
        mat = state["mat"]
        rows = ",".join(_cvec_text(row) for row in mat)
        return f'{{"type":"density","dim":{mat.shape[0]},"mat":[{rows}]}}'
    if kind == "separable":
        terms = ",".join(
            f'{{"p":{p!r},"x":{_cvec_text(x)},"y":{_cvec_text(y)}}}' for p, x, y in state["terms"]
        )
        return f'{{"type":"separable","dims":{json.dumps(list(state["dims"]))},"terms":[{terms}]}}'
    if kind == "classical2":
        return json.dumps(
            {
                "type": "classical2",
                "spaceX": state["spaceX"],
                "spaceY": state["spaceY"],
                "probs": [[x, y, p] for x, y, p in state["probs"]],
            }
        )
    if kind == "classical":
        return json.dumps(state)
    raise ValueError(f"unknown state type {kind!r}")


class _Writer:
    """Writes numbered state files into one directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, text: str) -> str:
        path = self.workdir / f"state{self.count:03d}.json"
        self.count += 1
        path.write_text(text)
        return str(path)

    def state(self, state: dict) -> str:
        return self.write(state_text(state))


def _bipartite(rng, d1: int, d2: int, product: bool) -> dict:
    vec = np.kron(_unit(rng, d1), _unit(rng, d2)) if product else _unit(rng, d1 * d2)
    return {"type": "bipartite", "dims": (d1, d2), "vec": vec}


def _separable(rng, d1: int, d2: int, terms: int) -> dict:
    weights = rng.dirichlet(np.ones(terms))
    return {
        "type": "separable",
        "dims": (d1, d2),
        "terms": [(float(p), _unit(rng, d1), _unit(rng, d2)) for p in weights],
    }


def _classical2(rng, nx: int, ny: int, support: int) -> dict:
    """Composite classical state on nx x ny labels with ``support`` points."""
    xs = [f"x{i}" for i in range(nx)]
    ys = [f"y{j}" for j in range(ny)]
    points = rng.choice(nx * ny, size=support, replace=False)
    weights = rng.dirichlet(np.ones(support)) if support > 1 else np.ones(1)
    probs = [(xs[k // ny], ys[k % ny], float(p)) for k, p in zip(sorted(points.tolist()), weights)]
    return {"type": "classical2", "spaceX": xs, "spaceY": ys, "probs": probs}


def _dims_args(dims) -> list[str]:
    return ["--dims", str(dims[0]), str(dims[1])]


def _quantum_ops(label: str, path: str, state: dict, commands: list[str], keep: int) -> list[Op]:
    """classify / schmidt / ptrace ops on one quantum state file."""
    dims = state["dims"]
    dim = dims[0] * dims[1]
    extra = [] if state["type"] in ("bipartite", "separable") else _dims_args(dims)
    ops = []
    for cmd in commands:
        args = [cmd, path, "--json", *extra]
        if cmd == "ptrace":
            args += ["--keep", str(keep)]
        ops.append(Op(f"{cmd} {label}", args, 0, state, dim))
    return ops


def _classical2_ops(label: str, path: str, state: dict, sides: tuple[int, ...]) -> list[Op]:
    ops = [Op(f"classify {label}", ["classify", path, "--json"], 0, state)]
    for side in sides:
        ops.append(
            Op(f"marginal{side} {label}", ["marginal", path, "--json", "--side", str(side)], 0, state)
        )
    return ops


# ---------------------------------------------------------------------------
# workloads


def small_cli(rng: np.random.Generator, w: _Writer, root: Path) -> list[Op]:
    """All six file types at D <= 64, every subcommand that takes them, bad inputs, samples."""
    ops: list[Op] = []
    vectors = [
        ("bipartite product 2x2", _bipartite(rng, 2, 2, True), 1),
        ("bipartite entangled 8x8", _bipartite(rng, 8, 8, False), 2),
        ("pure entangled 4x4", dict(_bipartite(rng, 4, 4, False), type="pure"), 1),
    ]
    for label, state, keep in vectors:
        ops += _quantum_ops(label, w.state(state), state, ["classify", "schmidt", "ptrace"], keep)
    for (d1, d2), rank, keep in (((2, 2), 1, 1), ((8, 8), 64, 2)):
        state = {"type": "density", "dims": (d1, d2), "mat": _density(rng, d1 * d2, rank), "rank": rank}
        label = f"density {d1}x{d2} rank {rank}"
        ops += _quantum_ops(label, w.state(state), state, ["classify", "ptrace"], keep)
    state = _separable(rng, 8, 8, 8)
    ops += _quantum_ops("separable 8x8 8 terms", w.state(state), state, ["classify", "ptrace"], 1)
    state = _classical2(rng, 3, 4, 12)
    ops += _classical2_ops("classical2 3x4", w.state(state), state, (1, 2))

    # inputs the CLI must refuse, with the documented exit codes
    space = [f"s{i}" for i in range(5)]
    probs = dict(zip(space, rng.dirichlet(np.ones(5)).tolist()))
    path = w.state({"type": "classical", "space": space, "probs": probs})
    ops.append(Op("classify classical (no composite structure)", ["classify", path, "--json"], 3))
    text = state_text(_bipartite(rng, 2, 2, False))
    path = w.write(text[: len(text) // 2])
    ops.append(Op("classify malformed JSON", ["classify", path, "--json"], 2))
    bad = _bipartite(rng, 4, 4, False)
    bad["vec"] = bad["vec"] * 1.5
    ops.append(Op("classify non-unit vector", ["classify", w.state(bad), "--json"], 3))
    zero = {"type": "bipartite", "dims": (2, 2), "vec": np.zeros(4, dtype=complex)}
    ops.append(Op("schmidt zero vector", ["schmidt", w.state(zero), "--json"], 4))

    for path in sorted((root / "sample_states").glob("*.json")):
        state = load_state(path)
        label = f"sample {path.stem}"
        if state["type"] == "classical2":
            ops += _classical2_ops(label, str(path), state, (1,))
        elif state["type"] == "density":
            d = int(round(np.sqrt(state["mat"].shape[0])))
            state["dims"] = (d, d)
            ops += _quantum_ops(label, str(path), state, ["classify", "ptrace"], 1)
        elif state["type"] == "separable":
            ops += _quantum_ops(label, str(path), state, ["classify", "ptrace"], 2)
        else:
            ops += _quantum_ops(label, str(path), state, ["classify", "schmidt", "ptrace"], 1)
    return ops


def dense_density(rng: np.random.Generator, w: _Writer, root: Path) -> list[Op]:
    """Density files at D in {256, 576, 1024} with ranks 1, 4 and D.

    Low rank: reading the file dominates.  Full rank: writing the range
    report dominates, since its basis is as large as the input.  Full
    rank is taken at D = 256 only: at D = 576 one such op takes ~3 s,
    too long for three passes in a run.  The 1024 file (50 MB) sets the
    peak RSS.
    """
    ops: list[Op] = []
    plan = (
        (16, 1, ["classify"], 1),
        (16, 4, ["ptrace"], 2),
        (16, 256, ["classify"], 1),
        (24, 4, ["classify"], 1),
        (32, 4, ["ptrace"], 1),
    )
    for d, rank, commands, keep in plan:
        dim = d * d
        if rank == 1:
            # projector onto a product vector: the rank-one path ends in product factors
            v = np.kron(_unit(rng, d), _unit(rng, d))
            mat = np.outer(v, v.conj())
            mat = (mat + mat.conj().T) / 2  # exactly Hermitian, whatever the rounding of outer
        else:
            mat = _density(rng, dim, rank)
        state = {"type": "density", "dims": (d, d), "mat": mat, "rank": rank}
        label = f"density D={dim} rank {rank}"
        ops += _quantum_ops(label, w.state(state), state, commands, keep)
    return ops


def certificates(rng: np.random.Generator, w: _Writer, root: Path) -> list[Op]:
    """Separable decompositions and classical certificates: small files, per-term loops."""
    ops: list[Op] = []
    for (d1, d2), terms, commands in (
        ((4, 4), 8, ["classify", "ptrace"]),
        ((12, 12), 64, ["classify", "ptrace"]),
        ((24, 24), 16, ["classify"]),
    ):
        state = _separable(rng, d1, d2, terms)
        label = f"separable D={d1 * d2} {terms} terms"
        ops += _quantum_ops(label, w.state(state), state, commands, 1)
    for n, sides in ((16, (1,)), (64, ()), (96, (2,))):
        state = _classical2(rng, n, n, n * n)
        ops += _classical2_ops(f"classical2 {n}x{n}", w.state(state), state, sides)
    return ops


VERIFY_OPS_PER_PASS = 4


def verify(rng: np.random.Generator, w: _Writer, root: Path) -> list[Op]:
    """``verify --seed s`` at the default instance count and tolerance."""
    seeds = rng.integers(0, 2**31 - 1, VERIFY_OPS_PER_PASS).tolist()
    return [Op(f"verify seed {s}", ["verify", "--seed", str(s), "--json"]) for s in seeds]


WORKLOADS: dict[str, Callable] = {
    "small-cli": small_cli,
    "dense-density": dense_density,
    "certificates": certificates,
    "verify": verify,
}


def build(workload: str, seed: int, workdir: Path, root: Path) -> list[Op]:
    """Write the workload's state files for ``seed`` into workdir; return one pass of ops."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, _Writer(workdir), root)
