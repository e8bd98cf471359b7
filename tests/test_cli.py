"""CLI behavior on the canonical sample states: verdicts, exit codes, determinism."""

import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from entanglekit.cli import main
from entanglekit.linalg import Tolerance
from entanglekit.statefile import dumps_canonical, loads_state

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_states"

BELL = str(SAMPLES / "bell.json")
PRODUCT = str(SAMPLES / "product.json")
CORRELATED = str(SAMPLES / "correlated_classical.json")
CLASSICAL_PURE = str(SAMPLES / "classical_pure.json")
SEPARABLE = str(SAMPLES / "separable_2term.json")
MAX_MIXED = str(SAMPLES / "maximally_mixed.json")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv, "--json")
    assert err == ""
    return code, json.loads(out)


def _strip_timing(text: str) -> str:
    return re.sub(r'"elapsed_s":[0-9.e+-]+', '"elapsed_s":T', text)


class TestClassifyGolden:
    def test_bell(self, capsys):
        code, report = _run_json(capsys, "classify", BELL)
        assert code == 0
        result = report["result"]
        assert result["verdict"] == "QuantumEntangledPure"
        coeffs = result["certificate"]["schmidt"]["coeffs"]
        np.testing.assert_allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_product(self, capsys):
        code, report = _run_json(capsys, "classify", PRODUCT)
        assert code == 0
        result = report["result"]
        assert result["verdict"] == "QuantumProductPure"
        x = [re + 1j * im for re, im in result["certificate"]["x"]]
        np.testing.assert_allclose(np.abs(x), [0.6, 0.8], atol=1e-12)

    def test_correlated_classical(self, capsys):
        code, report = _run_json(capsys, "classify", CORRELATED)
        assert code == 0
        result = report["result"]
        assert result["verdict"] == "ClassicalSeparable"
        assert len(result["certificate"]["terms"]) == 2

    def test_classical_pure(self, capsys):
        code, report = _run_json(capsys, "classify", CLASSICAL_PURE)
        assert code == 0
        result = report["result"]
        assert result["verdict"] == "ClassicalPure"
        assert result["certificate"]["terms"] == [{"p": 1.0, "x": "a", "y": "c"}]

    def test_separable_two_term(self, capsys):
        code, report = _run_json(capsys, "classify", SEPARABLE)
        assert code == 0
        result = report["result"]
        assert result["verdict"] == "QuantumSeparableByConstruction"
        assert result["certificate"]["range_criterion_passed"] is True

    def test_maximally_mixed_is_undetermined(self, capsys):
        code, report = _run_json(capsys, "classify", MAX_MIXED, "--dims", "2", "2")
        assert code == 0
        result = report["result"]
        assert result["verdict"] == "Undetermined"
        assert result["certificate"]["range_rank"] == 4


class TestSchmidtCommand:
    def test_bell_coefficients(self, capsys):
        code, report = _run_json(capsys, "schmidt", BELL)
        assert code == 0
        assert report["result"]["rank"] == 2
        np.testing.assert_allclose(
            report["result"]["coeffs"], [1 / np.sqrt(2)] * 2, atol=1e-12
        )

    def test_product_has_rank_one(self, capsys):
        code, report = _run_json(capsys, "schmidt", PRODUCT)
        assert code == 0
        assert report["result"]["rank"] == 1


class TestReducedStates:
    def test_bell_ptrace_is_maximally_mixed(self, capsys):
        code, report = _run_json(capsys, "ptrace", BELL, "--keep", "1")
        assert code == 0
        reduced = loads_state(json.dumps(report["result"]).encode())
        np.testing.assert_allclose(reduced.mat, np.eye(2) / 2, atol=1e-10)

    def test_product_ptrace_is_pure(self, capsys):
        code, report = _run_json(capsys, "ptrace", PRODUCT, "--keep", "2")
        assert code == 0
        reduced = loads_state(json.dumps(report["result"]).encode())
        np.testing.assert_allclose(reduced.mat, np.diag([1.0, 0.0]), atol=1e-12)

    def test_classical_pure_marginal(self, capsys):
        code, report = _run_json(capsys, "marginal", CLASSICAL_PURE, "--side", "2")
        assert code == 0
        assert report["result"] == {"type": "classical", "space": ["c", "d"], "probs": {"c": 1.0}}

    def test_correlated_marginal_is_uniform(self, capsys):
        code, report = _run_json(capsys, "marginal", CORRELATED, "--side", "1")
        assert code == 0
        assert report["result"]["probs"] == {"a": 0.5, "b": 0.5}

    def test_separable_decomposition_ptrace(self, capsys):
        code, report = _run_json(capsys, "ptrace", SEPARABLE, "--keep", "2")
        assert code == 0
        reduced = loads_state(json.dumps(report["result"]).encode())
        np.testing.assert_allclose(reduced.mat, np.eye(2) / 2, atol=1e-12)

    def test_reduced_state_round_trips_through_classify(self, capsys, tmp_path):
        code, report = _run_json(capsys, "marginal", CORRELATED, "--side", "1")
        assert code == 0
        # the result payload is itself a valid state file
        reduced = tmp_path / "reduced.json"
        reduced.write_text(json.dumps(report["result"]))
        code, out, err = _run(capsys, "marginal", str(reduced), "--side", "1")
        assert code == 3  # a single-system state has no marginal
        assert "classical2" in err


class TestExitCodes:
    def test_schema_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "wavefunction"}')
        code, out, err = _run(capsys, "classify", str(bad))
        assert code == 2
        assert "schema error" in err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("[1]", "$: expected an object, got list"),
            ('{"type": 5}', "$.type: expected a string, got int"),
            ('{"type": "density", "dim": true, "mat": [[[1.0, 0.0]]]}',
             "$.dim: expected an integer, got bool"),
            ('{"type": "bipartite", "dims": [2, 2.0], "vec": [[1.0, 0.0]]}',
             "$.dims[1]: expected an integer, got float"),
            ('{"type": "separable", "dims": [1, 1], "terms": [5]}',
             "$.terms[0]: expected an object, got int"),
            ('{"type": "classical2", "spaceX": ["a", 1], "spaceY": ["c"], "probs": []}',
             "$.spaceX[1]: expected a string, got int"),
            ('{"type": "classical2", "spaceX": ["a"], "spaceY": ["c"], "probs": [5]}',
             "$.probs[0]: expected an array, got int"),
        ],
        ids=["top-level", "type", "dim", "dims", "terms", "spaceX", "probs"],
    )
    def test_each_json_type_refusal_is_2(self, capsys, tmp_path, text, line):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = _run(capsys, "classify", str(bad), "--dims", "1", "1")
        assert (code, out, err) == (2, "", f"entanglekit: schema error: {line}\n")

    def test_parse_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = _run(capsys, "classify", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_text_that_is_not_utf8_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"type":"pure","vec":[[1.0,0.0]]}\xff')
        code, out, err = _run(capsys, "classify", str(bad))
        assert code == 2
        assert err == (
            "entanglekit: schema error: $: invalid UTF-8: 'utf-8' codec can't decode byte 0xff"
            " in position 33: invalid start byte\n"
        )

    def test_invariant_violation_is_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "pure", "vec": [[0.7071, 0], [0.7071, 0]]}')
        code, out, err = _run(capsys, "schmidt", str(bad), "--dims", "2", "2")
        assert code == 3
        assert "unit norm" in err

    def test_zero_vector_is_4(self, capsys, tmp_path):
        bad = tmp_path / "zero.json"
        bad.write_text('{"type": "bipartite", "dims": [2, 2], "vec": [[0,0],[0,0],[0,0],[0,0]]}')
        code, out, err = _run(capsys, "schmidt", str(bad))
        assert code == 4

    @pytest.mark.parametrize(
        "argv",
        [["classify"], ["schmidt"], ["ptrace", "--keep", "1"]],
        ids=["classify", "schmidt", "ptrace"],
    )
    @pytest.mark.parametrize(
        "payload",
        [
            {"type": "bipartite", "dims": [2, 2], "vec": [[0.0, 0.0]] * 4},
            {"type": "pure", "vec": [[0.0, 0.0]] * 4},
            {"type": "separable", "dims": [2, 2],
             "terms": [{"p": 1.0, "x": [[0.0, 0.0]] * 2, "y": [[1.0, 0.0], [0.0, 0.0]]}]},
        ],
        ids=["bipartite", "pure", "separable-factor"],
    )
    @pytest.mark.parametrize("tol", [[], ["--tol", "2"]], ids=["default-tol", "tol-2"])
    def test_every_zero_vector_is_4(self, capsys, tmp_path, argv, payload, tol):
        # at --tol 2 the zero vector is within the unit-norm bound, and is refused all the same
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps(payload))
        code, out, err = _run(capsys, *argv, str(zero), "--dims", "2", "2", *tol)
        assert (code, out, err) == (4, "", "entanglekit: pure state must have unit norm, got 0.0\n")

    def test_dims_mismatch_is_3(self, capsys):
        code, out, err = _run(capsys, "classify", MAX_MIXED, "--dims", "3", "2")
        assert code == 3

    def test_single_classical_classify_is_3(self, capsys, tmp_path):
        single = tmp_path / "single.json"
        single.write_text('{"type": "classical", "space": ["a", "b"], "probs": {"a": 0.5, "b": 0.5}}')
        code, out, err = _run(capsys, "classify", str(single))
        assert code == 3
        assert "classical2" in err

    def test_missing_file_is_3(self, capsys):
        code, out, err = _run(capsys, "classify", "/nonexistent/state.json")
        assert code == 3

    def test_directory_is_3(self, capsys, tmp_path):
        code, out, err = _run(capsys, "classify", str(tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith("entanglekit: ")

    def test_pure_without_dims_is_3(self, capsys, tmp_path):
        pure = tmp_path / "pure.json"
        pure.write_text('{"type": "pure", "vec": [[1.0, 0], [0, 0], [0, 0], [0, 0]]}')
        code, out, err = _run(capsys, "classify", str(pure))
        assert code == 3
        assert "--dims" in err

    def test_schmidt_rejects_density_input(self, capsys):
        code, out, err = _run(capsys, "schmidt", MAX_MIXED)
        assert code == 3

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("large", [True, False], ids=["larger-than-the-pipe", "short"])
    def test_a_reader_that_leaves_early_is_5_without_a_traceback(self, tmp_path, large, unbuffered):
        # classify f.json --dims 8 8 --json | head -c 10, where the report of a
        # full-rank D=64 density is far larger than the pipe's buffer; and a
        # short report whose reader is gone before it is written
        if large:
            rng = np.random.default_rng(5)
            a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
            rho = a @ a.conj().T
            rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
            path = tmp_path / "full_rank_64.json"
            mat = np.stack([rho.real, rho.imag], -1).tolist()
            path.write_text(json.dumps({"type": "density", "dim": 64, "mat": mat}))
            argv, expected_head = ["classify", str(path), "--dims", "8", "8", "--json"], b'{"tool":"e'
        else:
            argv, expected_head = ["classify", BELL], b""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "entanglekit.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(len(expected_head))
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), head, err) == (5, expected_head, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_a_failed_write_is_5_with_one_line(self, unbuffered):
        # classify bell.json > /dev/full: every write fails with ENOSPC
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "entanglekit.cli", "classify", BELL],
                                  stdout=full, stderr=subprocess.PIPE, env=env, timeout=120)
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 5
        assert lines == ["entanglekit: cannot write the report: [Errno 28] No space left on device"]


# refusals and failure output no other test reaches:
# (case, argv, environment, exit code, stderr)
CLI_CASES = [
    ("tol-env-not-a-number", ["classify", BELL], {"ENTANGLEKIT_TOL": "abc"}, 3,
     "entanglekit: invalid ENTANGLEKIT_TOL value 'abc': could not convert string to float: "
     "'abc'\n"),
    ("tol-env-not-positive", ["classify", BELL], {"ENTANGLEKIT_TOL": "-1"}, 3,
     "entanglekit: invalid ENTANGLEKIT_TOL value '-1': eps must be a positive finite real, "
     "got -1.0\n"),
    ("ptrace-separable-at-other-dims", ["ptrace", SEPARABLE, "--keep", "1", "--dims", "1", "4"],
     {}, 3, "entanglekit: --dims 1x4 disagree with the file's dims 2x2\n"),
    ("verify-pretty-at-tol-0.5", ["verify", "--tol", "0.5", "--instances", "3"], {}, 1, ""),
    ("verify-pretty-at-tol-2", ["verify", "--tol", "2", "--instances", "3"], {}, 1, ""),
]


@pytest.mark.parametrize("argv, env, code, err", [c[1:] for c in CLI_CASES],
                         ids=[c[0] for c in CLI_CASES])
def test_exit_code_and_message(capsys, monkeypatch, argv, env, code, err):
    monkeypatch.delenv("ENTANGLEKIT_TOL", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert _run(capsys, *argv)[::2] == (code, err)
    if code == 1:  # each failing suite's line is followed by its counterexample, as --json has it
        lines = _run(capsys, *argv)[1].splitlines()
        shown = [lines[k + 1] for k, line in enumerate(lines) if line.startswith("FAIL  ")]
        failed = [s for s in _run_json(capsys, *argv)[1]["result"]["suites"] if not s["passed"]]
        assert failed
        assert shown == [f"  counterexample: {dumps_canonical(s['counterexample'])}"
                         for s in failed]


# the --dims rule of the quantum subcommands, for each file type:
# (subcommand, file type, --dims, exit code, stderr).  The --dims are, in
# turn: absent, the file's own, another factoring of D, and one that does
# not factor D; a 'pure' or 'density' file carries no dims of its own.
PURE_2X3 = str(ROOT / "tests" / "golden" / "inputs" / "product_pure_2x3.json")
DIMS_FILES = {"pure": PURE_2X3, "density": MAX_MIXED, "bipartite": BELL,
              "separable": SEPARABLE, "classical2": CORRELATED}
REQUIRED = "entanglekit: --dims D1 D2 is required for a '{}' input\n"
DISAGREE = "entanglekit: --dims {} disagree with the file's dims 2x2\n"
NOT_BIPARTITE = "entanglekit: expected a bipartite or pure state, got {}\n"
NOT_QUANTUM = ("entanglekit: partial trace needs a quantum state, got CompositeClassicalState; "
               "classical files go through 'marginal'\n")
PURE_NOT_FACTORING = "entanglekit: state dimension 6 does not factor as 2x2\n"
NOT_FACTORING = "entanglekit: state dimension 4 does not factor as 3x2\n"
DIMS_TABLE = [
    ("classify", "pure", None, 3, REQUIRED.format("pure")),
    ("classify", "pure", "2 3", 0, ""),
    ("classify", "pure", "3 2", 0, ""),
    ("classify", "pure", "2 2", 3, PURE_NOT_FACTORING),
    ("classify", "density", None, 3, REQUIRED.format("density")),
    ("classify", "density", "2 2", 0, ""),
    ("classify", "density", "1 4", 0, ""),
    ("classify", "density", "3 2", 3, NOT_FACTORING),
    ("classify", "bipartite", None, 0, ""),
    ("classify", "bipartite", "2 2", 0, ""),
    ("classify", "bipartite", "1 4", 3, DISAGREE.format("1x4")),
    ("classify", "bipartite", "3 2", 3, DISAGREE.format("3x2")),
    ("classify", "separable", None, 0, ""),
    ("classify", "separable", "2 2", 0, ""),
    ("classify", "separable", "1 4", 3, DISAGREE.format("1x4")),
    ("classify", "separable", "3 2", 3, DISAGREE.format("3x2")),
    ("classify", "classical2", None, 0, ""),
    ("classify", "classical2", "2 2", 0, ""),
    ("classify", "classical2", "1 4", 3, DISAGREE.format("1x4")),
    ("classify", "classical2", "3 2", 3, DISAGREE.format("3x2")),
    ("schmidt", "pure", None, 3, REQUIRED.format("pure")),
    ("schmidt", "pure", "2 3", 0, ""),
    ("schmidt", "pure", "3 2", 0, ""),
    ("schmidt", "pure", "2 2", 3, PURE_NOT_FACTORING),
    ("schmidt", "density", None, 3, NOT_BIPARTITE.format("DensityOperator")),
    ("schmidt", "density", "2 2", 3, NOT_BIPARTITE.format("DensityOperator")),
    ("schmidt", "density", "1 4", 3, NOT_BIPARTITE.format("DensityOperator")),
    ("schmidt", "density", "3 2", 3, NOT_BIPARTITE.format("DensityOperator")),
    ("schmidt", "bipartite", None, 0, ""),
    ("schmidt", "bipartite", "2 2", 0, ""),
    ("schmidt", "bipartite", "1 4", 3, DISAGREE.format("1x4")),
    ("schmidt", "bipartite", "3 2", 3, DISAGREE.format("3x2")),
    ("schmidt", "separable", None, 3, NOT_BIPARTITE.format("SeparableDecomposition")),
    ("schmidt", "separable", "2 2", 3, NOT_BIPARTITE.format("SeparableDecomposition")),
    ("schmidt", "separable", "1 4", 3, NOT_BIPARTITE.format("SeparableDecomposition")),
    ("schmidt", "separable", "3 2", 3, NOT_BIPARTITE.format("SeparableDecomposition")),
    ("schmidt", "classical2", None, 3, NOT_BIPARTITE.format("CompositeClassicalState")),
    ("schmidt", "classical2", "2 2", 3, NOT_BIPARTITE.format("CompositeClassicalState")),
    ("schmidt", "classical2", "1 4", 3, NOT_BIPARTITE.format("CompositeClassicalState")),
    ("schmidt", "classical2", "3 2", 3, NOT_BIPARTITE.format("CompositeClassicalState")),
    ("ptrace", "pure", None, 3, REQUIRED.format("pure")),
    ("ptrace", "pure", "2 3", 0, ""),
    ("ptrace", "pure", "3 2", 0, ""),
    ("ptrace", "pure", "2 2", 3, PURE_NOT_FACTORING),
    ("ptrace", "density", None, 3, REQUIRED.format("density")),
    ("ptrace", "density", "2 2", 0, ""),
    ("ptrace", "density", "1 4", 0, ""),
    ("ptrace", "density", "3 2", 3, NOT_FACTORING),
    ("ptrace", "bipartite", None, 0, ""),
    ("ptrace", "bipartite", "2 2", 0, ""),
    ("ptrace", "bipartite", "1 4", 3, DISAGREE.format("1x4")),
    ("ptrace", "bipartite", "3 2", 3, DISAGREE.format("3x2")),
    ("ptrace", "separable", None, 0, ""),
    ("ptrace", "separable", "2 2", 0, ""),
    ("ptrace", "separable", "1 4", 3, DISAGREE.format("1x4")),
    ("ptrace", "separable", "3 2", 3, DISAGREE.format("3x2")),
    ("ptrace", "classical2", None, 3, NOT_QUANTUM),
    ("ptrace", "classical2", "2 2", 3, NOT_QUANTUM),
    ("ptrace", "classical2", "1 4", 3, NOT_QUANTUM),
    ("ptrace", "classical2", "3 2", 3, NOT_QUANTUM),
]


@pytest.mark.parametrize("command, kind, dims, code, err", DIMS_TABLE,
                         ids=[f"{c}-{k}-{(d or 'absent').replace(' ', 'x')}"
                              for c, k, d, _, _ in DIMS_TABLE])
def test_the_dims_rule(capsys, command, kind, dims, code, err):
    argv = [command, DIMS_FILES[kind], *(["--keep", "1"] if command == "ptrace" else [])]
    if dims is not None:
        argv += ["--dims", *dims.split()]
    assert _run(capsys, *argv)[::2] == (code, err)


class TestStdinAndEnv:
    def test_stdin_input(self, capsys, monkeypatch, tmp_path):
        text = Path(BELL).read_text()
        monkeypatch.setattr(
            sys, "stdin", type("S", (), {"buffer": io.BytesIO(text.encode())})()
        )
        code, report = _run_json(capsys, "classify", "-")
        assert code == 0
        assert report["result"]["verdict"] == "QuantumEntangledPure"

    LOOSE_BELL = '{"type": "pure", "vec": [[0.7071, 0], [0, 0], [0, 0], [0.7071, 0]]}'

    def test_env_tolerance_override(self, capsys, monkeypatch, tmp_path):
        loose = tmp_path / "loose.json"
        loose.write_text(self.LOOSE_BELL)
        monkeypatch.setenv("ENTANGLEKIT_TOL", "1e-3")
        code, report = _run_json(capsys, "schmidt", str(loose), "--dims", "2", "2")
        assert code == 0
        assert report["tolerance"] == 1e-3

    def test_explicit_tol_beats_env(self, capsys, monkeypatch, tmp_path):
        loose = tmp_path / "loose.json"
        loose.write_text(self.LOOSE_BELL)
        monkeypatch.setenv("ENTANGLEKIT_TOL", "1e-12")
        code, out, err = _run(capsys, "schmidt", str(loose), "--dims", "2", "2", "--tol", "1e-3")
        assert code == 0


class TestReportShape:
    def test_report_fields(self, capsys):
        code, report = _run_json(capsys, "classify", BELL)
        assert report["tool"] == "entanglekit"
        assert report["command"] == "classify"
        assert report["input_digest"].startswith("sha256:")
        assert "version" in report and "elapsed_s" in report

    def test_rerun_is_byte_identical_modulo_timing(self, capsys):
        code1, out1, _ = _run(capsys, "classify", BELL, "--json")
        code2, out2, _ = _run(capsys, "classify", BELL, "--json")
        assert code1 == code2 == 0
        assert _strip_timing(out1) == _strip_timing(out2)


class TestInputDigest:
    """``input_digest`` is the sha256 of the input bytes, taken on a thread beside the parse."""

    BELL_DIGEST = "sha256:" + hashlib.sha256(Path(BELL).read_bytes()).hexdigest()

    def test_digest_of_a_file(self, capsys):
        code, report = _run_json(capsys, "classify", BELL)
        assert (code, report["input_digest"]) == (0, self.BELL_DIGEST)

    def test_digest_of_stdin(self, capsys, monkeypatch):
        raw = Path(BELL).read_bytes()
        monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": io.BytesIO(raw)})())
        code, report = _run_json(capsys, "classify", "-")
        assert (code, report["input_digest"]) == (0, self.BELL_DIGEST)

    @pytest.mark.parametrize(
        "argv, text, code",
        [
            (["classify"], Path(BELL).read_text(), 0),
            (["classify"], '{"type": "wavefunction"}', 2),
            (["schmidt", "--dims", "2", "2"], '{"type": "pure", "vec": [[0.7071, 0], [0.7071, 0]]}', 3),
            (["schmidt"], '{"type": "bipartite", "dims": [2, 2], "vec": [[0,0],[0,0],[0,0],[0,0]]}', 4),
        ],
        ids=["ok", "schema", "invariant", "zero-vector"],
    )
    def test_the_hashing_thread_is_joined_before_main_returns(
        self, capsys, monkeypatch, tmp_path, argv, text, code
    ):
        sha256 = hashlib.sha256

        class SlowSha256:
            """sha256 that outlasts the parse, so a thread left running would still be counted."""

            def __init__(self):
                self._h = sha256()

            def update(self, data):
                time.sleep(0.1)
                self._h.update(data)

            def hexdigest(self):
                return self._h.hexdigest()

        monkeypatch.setattr(hashlib, "sha256", SlowSha256)
        state = tmp_path / "state.json"
        state.write_text(text)
        baseline = threading.active_count()
        assert _run(capsys, argv[0], str(state), *argv[1:])[0] == code
        assert threading.active_count() == baseline


class TestVerifyCommand:
    def test_passes_and_is_deterministic(self, capsys):
        code1, out1, _ = _run(capsys, "verify", "--instances", "12", "--seed", "7", "--json")
        code2, out2, _ = _run(capsys, "verify", "--instances", "12", "--seed", "7", "--json")
        assert code1 == code2 == 0
        assert _strip_timing(out1) == _strip_timing(out2)
        report = json.loads(out1)
        assert report["result"]["all_passed"] is True
        assert report["result"]["seed"] == 7
        assert len(report["result"]["suites"]) == 14

    def test_pretty_prints_one_line_per_suite(self, capsys):
        code, out, err = _run(capsys, "verify", "--instances", "8")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) == 14


class TestArgumentValidation:
    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_verify_rejects_fewer_than_one_instance(self, capsys, n):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--instances", n])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "all suites passed" not in captured.out
        assert "--instances: must be at least 1" in captured.err

    def test_verify_instances_must_be_an_integer(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--instances", "many"])
        assert info.value.code == 2
        assert "--instances: invalid int value: 'many'" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-5", "-1"])
    def test_verify_rejects_a_negative_seed(self, capsys, seed):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--seed", seed])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --seed: must be at least 0, got {seed}" in captured.err

    @pytest.mark.parametrize("seed", ["0", str(2**64)])
    def test_verify_accepts_seeds_from_zero_past_64_bits(self, capsys, seed):
        code, report = _run_json(capsys, "verify", "--seed", seed, "--instances", "1")
        assert code == 0
        assert report["result"]["seed"] == int(seed)

    def test_verify_accepts_one_instance(self, capsys):
        code, report = _run_json(capsys, "verify", "--instances", "1")
        assert code == 0
        assert report["result"]["all_passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [["classify", BELL], ["schmidt", BELL], ["ptrace", BELL, "--keep", "1"],
         ["marginal", CORRELATED, "--side", "1"]],
        ids=["classify", "schmidt", "ptrace", "marginal"],
    )
    def test_seed_belongs_to_verify_only(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--seed", "5"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --seed 5" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["classify", BELL], ["schmidt", BELL], ["ptrace", BELL, "--keep", "1"]],
        ids=["classify", "schmidt", "ptrace"],
    )
    @pytest.mark.parametrize("dims, bad", [(["0", "4"], "0"), (["4", "0"], "0"),
                                           (["-2", "2"], "-2"), (["2", "-2"], "-2")],
                             ids=["0x4", "4x0", "-2x2", "2x-2"])
    def test_dims_below_one_are_a_usage_error(self, capsys, argv, dims, bad):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--dims", *dims])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --dims: must be at least 1, got {bad}\n" in captured.err


class TestRunTolerance:
    @pytest.mark.parametrize("argv", [["classify", BELL], ["verify", "--instances", "1"]],
                             ids=["classify", "verify"])
    @pytest.mark.parametrize("tol, shown", [("0", "0.0"), ("-1", "-1.0"), ("nan", "nan"),
                                            ("inf", "inf"), ("-inf", "-inf")])
    def test_a_tolerance_that_is_not_positive_and_finite_is_a_usage_error(
        self, capsys, monkeypatch, argv, tol, shown
    ):
        monkeypatch.delenv("ENTANGLEKIT_TOL", raising=False)
        with pytest.raises(SystemExit) as info:
            main([*argv, f"--tol={tol}"])  # "-inf" alone would read as an option
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --tol: eps must be a positive finite real, got {shown}\n" in captured.err

    def test_a_tolerance_that_is_not_a_number_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["classify", BELL, "--tol", "abc"])
        assert info.value.code == 2
        assert "argument --tol: could not convert string to float: 'abc'" in capsys.readouterr().err

    def test_ptrace_validates_the_projector_at_the_run_tolerance(self, capsys, tmp_path):
        # |v| = 1 + 3e-6: inside --tol 1e-5 for the norm (and the trace, 1 + 6e-6)
        s = (1 + 3e-6) / np.sqrt(2)
        path = tmp_path / "loose_bell.json"
        path.write_text(json.dumps({"type": "bipartite", "dims": [2, 2],
                                    "vec": [[s, 0.0], [0.0, 0.0], [0.0, 0.0], [s, 0.0]]}))
        code, out, err = _run(capsys, "classify", str(path), "--tol", "1e-5")
        assert code == 0, err
        code, report = _run_json(capsys, "ptrace", str(path), "--tol", "1e-5", "--keep", "1")
        assert code == 0
        reduced = np.array([[complex(*z) for z in row] for row in report["result"]["mat"]])
        np.testing.assert_allclose(reduced, np.eye(2) * s * s, atol=1e-15)

    def test_one_unit_norm_bound_for_every_subcommand(self, capsys, tmp_path):
        # |v| = 1 + 6e-6: the norm is inside --tol 1e-5 but its square, the
        # projector's trace, is not; all three subcommands must refuse it
        s = (1 + 6e-6) / np.sqrt(2)
        path = tmp_path / "edge_bell.json"
        path.write_text(json.dumps({"type": "bipartite", "dims": [2, 2],
                                    "vec": [[s, 0.0], [0.0, 0.0], [0.0, 0.0], [s, 0.0]]}))
        for argv in (["classify"], ["schmidt"], ["ptrace", "--keep", "1"]):
            code, out, err = _run(capsys, *argv, str(path), "--tol", "1e-5")
            assert (code, out) == (3, ""), argv
            assert "unit norm" in err, argv

    def test_separable_terms_are_projected_at_the_run_tolerance(self, capsys, tmp_path):
        # a factor with |x| = 1 + 3e-6 parses at --tol 1e-5, so its projector must pass too
        s = 1 + 3e-6
        path = tmp_path / "loose_separable.json"
        path.write_text(json.dumps({"type": "separable", "dims": [2, 2], "terms": [
            {"p": 0.5, "x": [[s, 0.0], [0.0, 0.0]], "y": [[1.0, 0.0], [0.0, 0.0]]},
            {"p": 0.5, "x": [[0.0, 0.0], [1.0, 0.0]], "y": [[0.0, 0.0], [1.0, 0.0]]},
        ]}))
        code, report = _run_json(capsys, "classify", str(path), "--tol", "1e-5")
        assert code == 0
        assert report["result"]["verdict"] == "QuantumSeparableByConstruction"
        code, report = _run_json(capsys, "ptrace", str(path), "--tol", "1e-5", "--keep", "2")
        assert code == 0


    def test_computed_factors_are_not_held_to_the_input_bound(self, capsys):
        # this file's |v|**2 is 1 exactly; its Schmidt factors miss unit norm
        # by more than 1e-16, and classify must not refuse them for it
        code, report = _run_json(capsys, "classify", PURE_2X3, "--dims", "2", "3", "--tol", "1e-16")
        assert code == 0
        assert report["result"]["verdict"] == "QuantumProductPure"


class TestBuiltDensitiesAtTheEdge:
    """Densities the library builds from accepted input are not refused again."""

    def test_reduction_of_an_accepted_density_is_emitted_as_computed(self, capsys, tmp_path):
        # diag(1 + 2d, 0, -d, -d) passes at eps = 1e-9; its first reduction
        # diag(1 + 2d, -2d) would not, and is reported as computed
        d = 0.9e-9
        diag = [1 + 2 * d, 0.0, -d, -d]
        mat = [[[v, 0.0] for v in row] for row in np.diag(diag).tolist()]
        path = tmp_path / "edge_density.json"
        path.write_text(json.dumps({"type": "density", "dim": 4, "mat": mat}))
        code, out, err = _run(capsys, "classify", str(path), "--dims", "2", "2")
        assert code == 0, err
        code, report = _run_json(capsys, "ptrace", str(path), "--dims", "2", "2", "--keep", "1")
        assert code == 0
        reduced = np.array([[complex(*z) for z in row] for row in report["result"]["mat"]])
        np.testing.assert_array_equal(reduced, np.diag([diag[0] + diag[1], diag[2] + diag[3]]))

    def test_separable_file_whose_parts_pass_classifies(self, capsys, tmp_path):
        # p and both squared norms are 1 + 9e-10, each inside eps = 1e-9;
        # the assembled trace, about 1 + 2.7e-9, is not checked again
        a = float(np.sqrt(1 + 9e-10))
        path = tmp_path / "edge_separable.json"
        path.write_text(json.dumps({"type": "separable", "dims": [2, 2], "terms": [
            {"p": 1 + 9e-10, "x": [[a, 0.0], [0.0, 0.0]], "y": [[a, 0.0], [0.0, 0.0]]},
        ]}))
        code, report = _run_json(capsys, "classify", str(path))
        assert code == 0
        assert report["result"]["verdict"] == "QuantumSeparableByConstruction"
        assert report["result"]["certificate"]["range_criterion_passed"] is True
        code, report = _run_json(capsys, "ptrace", str(path), "--keep", "1")
        assert code == 0

    def test_empty_range_keeps_the_separable_verdict(self, capsys, tmp_path):
        # rho = I/4 at --tol 0.3: every eigenvalue is under the cut, so the
        # range is empty and only the terms' weights are compared with eps
        e = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        terms = [{"p": 0.25, "x": e[i], "y": e[j]} for i in range(2) for j in range(2)]
        path = tmp_path / "product_basis.json"
        path.write_text(json.dumps({"type": "separable", "dims": [2, 2], "terms": terms}))
        code, report = _run_json(capsys, "classify", str(path), "--tol", "0.3")
        assert code == 0
        assert report["result"]["verdict"] == "QuantumSeparableByConstruction"
        assert report["result"]["certificate"]["range_criterion_passed"] is True


class TestBuiltClassicalStatesAtTheEdge:
    """Classical states the library builds from accepted input are not refused again."""

    def test_marginal_of_an_accepted_composite_is_emitted_as_computed(self, capsys, tmp_path):
        # the joint weights sum to 1 + 1e-9 less a rounding, inside the rule;
        # the second marginal's two sums make exactly 1.000000001, outside it
        path = tmp_path / "edge_classical2.json"
        path.write_text(json.dumps({"type": "classical2", "spaceX": ["a", "b"], "spaceY": ["c", "d"],
                                    "probs": [["a", "c", 0.56909392158058], ["a", "d", 0.2454078265868757],
                                              ["b", "c", 0.1392254710815327],
                                              ["b", "d", 0.04627278175101156]]}))
        for argv in (["classify"], ["marginal", "--side", "1"]):
            code, out, err = _run(capsys, argv[0], str(path), *argv[1:], "--json")
            assert code == 0, err
        code, out, err = _run(capsys, "marginal", str(path), "--side", "2", "--json")
        assert (code, err) == (0, "")
        assert '"result":{"type":"classical","space":["c","d"],' \
            '"probs":{"c":0.70831939266211275,"d":0.29168060833788728}}' in out
        reduced = dumps_canonical(json.loads(out)["result"]).encode()
        with pytest.raises(ValueError, match=r"^probabilities must sum to 1, got 1\.000000001$"):
            loads_state(reduced, Tolerance())


class TestToleranceAboveEveryCoefficient:
    """A unit vector has Schmidt rank >= 1, so a tolerance that leaves rank 0 is refused."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", PRODUCT, "--tol", "2"),
            ("classify", BELL, "--tol", "0.8"),
            ("classify", BELL, "--tol", "5"),
            ("schmidt", BELL, "--tol", "2"),
        ],
        ids=["classify-product-2", "classify-bell-0.8", "classify-bell-5", "schmidt-bell-2"],
    )
    def test_rank_zero_is_refused(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert f"tolerance {float(argv[-1])!r} lies above every Schmidt coefficient" in err

    def test_a_cut_below_the_largest_coefficient_still_decides(self, capsys):
        # the Bell coefficients are 0.7071..., just above eps = 0.7
        code, report = _run_json(capsys, "classify", BELL, "--tol", "0.7")
        assert code == 0
        assert report["result"]["verdict"] == "QuantumEntangledPure"
        assert report["result"]["certificate"]["schmidt"]["rank"] == 2


class TestEmptyDensityRange:
    """A density has rank >= 1, so a tolerance that leaves its range empty is refused."""

    @pytest.mark.parametrize("tol", ["0.3", "2"])
    def test_empty_range_is_refused(self, capsys, tol):
        code, out, err = _run(capsys, "classify", MAX_MIXED, "--dims", "2", "2", "--tol", tol, "--json")
        assert code == 3
        assert out == ""
        assert err == (
            f"entanglekit: tolerance {float(tol)!r} lies above every eigenvalue of the density; "
            "a density has rank >= 1\n"
        )


class TestHugeEntries:
    """Entries near the float range are refused with the tool's own message only."""

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"type": "pure", "vec": [[1e300, 0.0], [1e300, 0.0]]}, "pure state must have unit norm, got inf"),
            (
                {"type": "density", "dim": 2, "mat": [[[1e308, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [1e308, 0.0]]]},
                "density operator must be positive",
            ),
        ],
        ids=["pure", "density"],
    )
    @pytest.mark.parametrize(
        "command", [("classify",), ("schmidt",), ("ptrace", "--keep", "1")], ids=lambda c: c[0]
    )
    def test_stderr_is_one_tool_line(self, capsys, tmp_path, payload, message, command):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, command[0], str(path), *command[1:], "--dims", "1", "2")
        assert [str(w.message) for w in caught] == []
        assert (code, out, err) == (3, "", f"entanglekit: {message}\n")


class TestTraceModulusOverflow:
    """A 1x1 density whose trace has finite parts and a modulus past the float range."""

    @pytest.mark.parametrize(
        "entry, shown",
        [
            ("[1e+308, 1.7976931348623157e+308]", "(1e+308+1.7976931348623157e+308j)"),
            ("[1.4938877491736455e+308, 1e+308]", "(1.4938877491736455e+308+1e+308j)"),
        ],
        ids=["im-at-the-max", "re-and-im-near-the-max"],
    )
    def test_is_refused_as_not_of_unit_trace(self, capsys, tmp_path, entry, shown):
        path = tmp_path / "huge-trace.json"
        path.write_text(f'{{"type": "density", "dim": 1, "mat": [[{entry}]]}}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, "classify", str(path), "--dims", "1", "1")
        assert [str(w.message) for w in caught] == []
        assert (code, out, err) == (3, "", f"entanglekit: density operator must have unit trace, got {shown}\n")


class TestAsymmetryOverflow:
    """A 2x2 density whose asymmetry, and largest modulus, overflow: not Hermitian, so not positive."""

    @pytest.mark.parametrize("command", [("classify",), ("ptrace", "--keep", "2")], ids=lambda c: c[0])
    def test_is_refused_as_not_positive(self, capsys, tmp_path, command):
        path = tmp_path / "huge-asymmetry.json"
        path.write_text('{"type": "density", "dim": 2, "mat": '
                        '[[[0.5, 0.0], [1.3e308, 1.3e308]], [[0.0, 0.0], [0.5, 0.0]]]}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, command[0], str(path), *command[1:], "--dims", "1", "2", "--json")
        assert [str(w.message) for w in caught] == []
        assert (code, out, err) == (3, "", "entanglekit: density operator must be positive\n")


def _fresh_interpreter(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env, cwd=ROOT,
                          timeout=120)


class TestHeapFreeze:
    """Importing the CLI freezes the heap its imports built; the library leaves its caller's heap alone."""

    def test_the_library_freezes_nothing(self):
        proc = _fresh_interpreter("import gc, entanglekit; print(gc.get_freeze_count())")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0\n", b"")

    def test_the_cli_freezes_what_its_imports_built(self):
        proc = _fresh_interpreter("import gc, entanglekit.cli; print(gc.get_freeze_count(), len(gc.get_objects()))")
        assert (proc.returncode, proc.stderr) == (0, b"")
        frozen, tracked = map(int, proc.stdout.split())
        assert frozen > 0 and frozen > 10 * tracked

    def test_main_freezes_nothing_more(self, capsys):
        frozen = gc.get_freeze_count()
        assert _run(capsys, "classify", BELL)[0] == 0
        assert gc.get_freeze_count() == frozen

    def test_the_entry_line_writes_the_whole_report_to_a_pipe(self):
        # the console script's entry line, as the benchmark starts it
        proc = _fresh_interpreter("import sys; from entanglekit.cli import main; sys.exit(main())",
                                  "classify", "sample_states/bell.json", "--json")
        golden = (ROOT / "tests" / "golden" / "bell__classify.json").read_text()
        assert (proc.returncode, _strip_timing(proc.stdout.decode()), proc.stderr) == (0, golden, b"")
