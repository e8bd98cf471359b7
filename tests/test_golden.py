"""Golden CLI output: report bytes, pretty output and exit codes stay fixed.

Every file in ``sample_states/`` and in ``tests/golden/inputs/`` (seeded
random states with generic floats) is run through each subcommand that
accepts it, in ``--json`` and in pretty form.  The expected stdout lives in
``tests/golden/<case>.json`` / ``<case>.txt``, with the report's
``elapsed_s`` value replaced by ``T``.  ``verify --json`` is pinned the same
way at three seeds and three tolerances, together with its exit code; at
``--tol 1e-13`` some suites fail, so those reports carry counterexamples,
which depend on every earlier draw of the seeded generator.  Seed 1729 is
also pinned at ``--tol`` 1e-17, 0.5 and 2, where most suites fail, each at
a different check, so every counterexample payload's keys and values stay
fixed.

The reports carry eigenvectors and singular vectors, whose last digits
depend on the LAPACK build; these files were written with numpy 2.4 on
OpenBLAS.  To regenerate them under another build, on a commit whose
output is trusted, from the repo root:

    PYTHONPATH=src python tests/test_golden.py

That writes only the input files that are missing, each group from its own
seed, so an added input leaves the existing ones byte for byte as they are.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_states"
GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

_BIPARTITE = [["classify"], ["schmidt"], ["ptrace", "--keep", "1"], ["ptrace", "--keep", "2"]]
_CLASSICAL2 = [["classify"], ["marginal", "--side", "1"], ["marginal", "--side", "2"]]
_SEPARABLE = [["classify"], ["ptrace", "--keep", "1"], ["ptrace", "--keep", "2"]]


def _with_dims(commands, d1, d2):
    return [cmd + ["--dims", str(d1), str(d2)] for cmd in commands]


# file -> the argument lists (after the path) that the file is valid for
COMMANDS = {
    "sample_states/bell.json": _BIPARTITE,
    "sample_states/product.json": _BIPARTITE,
    "sample_states/classical_pure.json": _CLASSICAL2,
    "sample_states/correlated_classical.json": _CLASSICAL2,
    "sample_states/maximally_mixed.json": _with_dims(_SEPARABLE, 2, 2),
    "sample_states/separable_2term.json": _SEPARABLE,
    "tests/golden/inputs/entangled_3x4.json": _BIPARTITE,
    "tests/golden/inputs/product_pure_2x3.json": _with_dims(_BIPARTITE, 2, 3),
    "tests/golden/inputs/density_2x3_rank3.json": _with_dims(_SEPARABLE, 2, 3),
    "tests/golden/inputs/separable_3x2_4terms.json": _SEPARABLE,
    "tests/golden/inputs/correlated_3x3.json": _CLASSICAL2,
    "tests/golden/inputs/density_4x4_full_rank.json": _with_dims(_SEPARABLE, 4, 4),
}


def _case_id(path: str, cmd: list[str]) -> str:
    return "__".join([Path(path).stem, *(a.lstrip("-") for a in cmd)])


CASES = [
    (_case_id(path, cmd) + suffix, [cmd[0], str(ROOT / path), *cmd[1:], *fmt])
    for path, commands in COMMANDS.items()
    for cmd in commands
    for suffix, fmt in ((".json", ["--json"]), (".txt", []))
]

# (golden file, argv, exit code): some suites fail at 1e-13, so verify exits 1 there;
# at the extreme tolerances most suites fail, each at its own check
VERIFY_CASES = [
    (
        f"verify__seed__{seed}__tol__{tol}.json",
        ["verify", "--seed", seed, "--tol", tol, "--json"],
        0 if tol in ("1e-9", "1e-3") else 1,
    )
    for seed, tols in (
        ("1729", ("1e-13", "1e-9", "1e-3", "1e-17", "0.5", "2")),
        ("5", ("1e-13", "1e-9", "1e-3")),
        ("11", ("1e-13", "1e-9", "1e-3")),
    )
    for tol in tols
]


def _run(argv: list[str]) -> tuple[int, str]:
    from entanglekit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == ""
    return code, re.sub(r'"elapsed_s":[0-9.e+-]+', '"elapsed_s":T', out.getvalue())


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(name, argv):
    code, text = _run(argv)
    assert code == 0
    assert text == (GOLDEN / name).read_text()


@pytest.mark.parametrize(
    "name, argv, expected_code", VERIFY_CASES, ids=[name for name, _, _ in VERIFY_CASES]
)
def test_verify_matches_golden(name, argv, expected_code):
    code, text = _run(argv)
    assert code == expected_code
    assert text == (GOLDEN / name).read_text()


def test_every_sample_state_is_covered():
    covered = {Path(path).name for path in COMMANDS if path.startswith("sample_states/")}
    assert covered == {p.name for p in SAMPLES.glob("*.json")}


def test_regeneration_writes_each_missing_input_as_committed(tmp_path, monkeypatch):
    committed = {p.name: p.read_bytes() for p in INPUTS.glob("*.json")}
    monkeypatch.setattr(sys.modules[__name__], "INPUTS", tmp_path)
    (tmp_path / "entangled_3x4.json").write_bytes(b"present")
    _write_missing_inputs()
    written = {p.name: p.read_bytes() for p in tmp_path.glob("*.json")}
    assert written == {**committed, "entangled_3x4.json": b"present"}


# ---------------------------------------------------------------------------
# regeneration


def _generic_states(seed: int = 20260) -> dict:
    """Seeded random states with generic floats (17-digit, negative, tiny)."""
    rng = np.random.default_rng(seed)

    def unit(d):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return v / np.linalg.norm(v)

    q, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    rho = (q * rng.dirichlet(np.ones(3))) @ q.conj().T
    rho = (rho + rho.conj().T) / 2
    weights = rng.dirichlet(np.ones(4))
    probs = rng.dirichlet(np.ones(4)).tolist()
    probs[3] = 1.0 - sum(probs[:3])
    return {
        "entangled_3x4": {"type": "bipartite", "dims": [3, 4], "vec": unit(12)},
        "product_pure_2x3": {"type": "pure", "vec": np.kron(unit(2), unit(3))},
        "density_2x3_rank3": {"type": "density", "dim": 6, "mat": list(rho)},
        "separable_3x2_4terms": {
            "type": "separable",
            "dims": [3, 2],
            "terms": [{"p": float(p), "x": unit(3), "y": unit(2)} for p in weights],
        },
        "correlated_3x3": {
            "type": "classical2",
            "spaceX": ["a", "b", "c"],
            "spaceY": ["x", "y", "z"],
            "probs": [["a", "x", probs[0]], ["b", "y", probs[1]], ["c", "z", probs[2]],
                      ["a", "z", probs[3]]],
        },
    }


def _full_rank_4x4(seed: int = 20261) -> dict:
    """A full-rank density at dims 4 4: a random 12x12 block and four basis states.

    The basis states 0, 5, 10 and 15 are decoupled from the block, so the
    16-vector range basis carries integral leaves (0.0, -0.0 and 1.0) among
    generic ones, and the report's writer must patch them.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    rho = np.zeros((16, 16), dtype=complex)
    block = [k for k in range(16) if k % 5]
    rho[np.ix_(block, block)] = a @ a.conj().T
    rho[[0, 5, 10, 15], [0, 5, 10, 15]] = [3.0, 2.0, 1.0, 0.5]
    rho /= np.trace(rho).real
    rho = (rho + rho.conj().T) / 2
    return {"density_4x4_full_rank": {"type": "density", "dim": 16, "mat": list(rho)}}


def _write_missing_inputs() -> None:
    """Write each input file that is absent; the inputs stay fixed once written.

    Each generator has its own seed, so adding one leaves the others' draws,
    and so their files, unchanged.
    """
    from entanglekit.statefile import dumps_canonical

    INPUTS.mkdir(parents=True, exist_ok=True)
    for generate in (_generic_states, _full_rank_4x4):
        for stem, payload in generate().items():
            path = INPUTS / f"{stem}.json"
            if not path.exists():
                path.write_text(dumps_canonical(payload, pretty=True) + "\n")


def regenerate() -> None:
    _write_missing_inputs()
    for name, argv in CASES:
        code, text = _run(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        (GOLDEN / name).write_text(text)
    for name, argv, expected_code in VERIFY_CASES:
        code, text = _run(argv)
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / name).write_text(text)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    regenerate()
