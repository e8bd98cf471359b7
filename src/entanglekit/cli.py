"""Command-line front-end.

Subcommands: classify | schmidt | ptrace | marginal | verify.  Input is a
JSON state file (``-`` reads stdin); output is a report, either human
readable (default) or canonical JSON (``--json``).  The report's
``input_digest``, the sha256 of the input bytes, is taken on a second
thread while the input is parsed, and joined before anything is written
or any exit code returned.  Exit codes:

    0  success
    1  verification failure
    2  parse or schema error
    3  state invariant violation (bad normalization, dims mismatch, ...),
       or an input file that cannot be read (missing, or a directory)
    4  zero vector where a nonzero one is required
    5  the report could not be written (stdout was closed or full)
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import os
import sys
import threading
import time
from typing import Optional

import numpy as np

from . import __version__
from .bipartite import BipartiteDims, BipartiteVector, partial_trace
from .classical import ClassicalState, CompositeClassicalState, marginal
from .errors import SchemaError, ZeroVectorError
from .linalg import DEFAULT_EPS, Tolerance
from .quantum import DensityOperator, PureState, check_unit_norm, projector
from .separability import SeparableDecomposition, _unit_schmidt, classify, separable_density
from .statefile import (
    classification_to_json,
    dumps_canonical,
    loads_state,
    schmidt_to_json,
    state_to_json,
)
from .verify import DEFAULT_INSTANCES, DEFAULT_SEED, run_all

# the imports' objects live until exit: frozen, no collection (the ones at exit included) walks them
gc.freeze()

TOL_ENV_VAR = "ENTANGLEKIT_TOL"

_SIDE_NAMES = {1: "first", 2: "second"}


def _resolve_tolerance(tol: Optional[Tolerance]) -> Tolerance:
    if tol is not None:
        return tol
    env = os.environ.get(TOL_ENV_VAR)
    if env is not None:
        try:
            return Tolerance(float(env))
        except ValueError as exc:
            raise ValueError(f"invalid {TOL_ENV_VAR} value {env!r}: {exc}") from exc
    return Tolerance(DEFAULT_EPS)


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``, else a usage error naming the flag."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return parse


def _tolerance(text: str) -> Tolerance:
    """An argparse type: a positive finite real, else a usage error naming the flag."""
    try:
        return Tolerance(float(text))
    except ValueError as exc:  # not a number, or not a tolerance
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _quantum_input(state, args) -> tuple[object, BipartiteDims]:
    """The state and its dims, by the one ``--dims`` rule.

    A file that carries dims keeps them, and ``--dims`` must agree; a
    classical2 file carries (|X|, |Y|).  A 'pure' or 'density' file takes
    ``--dims``, which it must be given; a 'pure' vector comes back as a
    ``BipartiteVector`` on them.
    """
    dims = None if args.dims is None else BipartiteDims(*args.dims)
    if isinstance(state, (PureState, DensityOperator)):
        if dims is None:
            kind = "pure" if isinstance(state, PureState) else "density"
            raise ValueError(f"--dims D1 D2 is required for a '{kind}' input")
        if isinstance(state, PureState):
            state = BipartiteVector(state.vec, dims)
        return state, dims
    if dims is not None and dims != state.dims:
        raise ValueError(f"--dims {dims} disagree with the file's dims {state.dims}")
    return state, state.dims


def _cmd_classify(state, args, tol: Tolerance) -> dict:
    if isinstance(state, ClassicalState):
        raise ValueError(
            "a single-system classical state has no composite structure to classify; "
            "provide a 'classical2' file"
        )
    state, dims = _quantum_input(state, args)
    return classification_to_json(classify(state, dims, tol))


def _cmd_schmidt(state, args, tol: Tolerance) -> dict:
    if not isinstance(state, (PureState, BipartiteVector)):
        raise ValueError(f"expected a bipartite or pure state, got {type(state).__name__}")
    t, _ = _quantum_input(state, args)
    check_unit_norm(t.vec, tol)
    return schmidt_to_json(_unit_schmidt(t, tol))


def _cmd_ptrace(state, args, tol: Tolerance) -> dict:
    if isinstance(state, (ClassicalState, CompositeClassicalState)):
        raise ValueError(
            f"partial trace needs a quantum state, got {type(state).__name__}; "
            "classical files go through 'marginal'"
        )
    state, dims = _quantum_input(state, args)
    if isinstance(state, BipartiteVector):
        state = projector(PureState(state.vec, tol))
    elif isinstance(state, SeparableDecomposition):
        state = separable_density(state)
    return state_to_json(partial_trace(state, dims, _SIDE_NAMES[args.keep]))


def _cmd_marginal(state, args, tol: Tolerance) -> dict:
    if not isinstance(state, CompositeClassicalState):
        raise ValueError(
            f"marginal needs a 'classical2' file, got {type(state).__name__}; "
            "quantum files go through 'ptrace'"
        )
    return state_to_json(marginal(state, _SIDE_NAMES[args.side]))


def _render_pretty(command: str, result: dict, out) -> None:
    if command == "classify":
        print(f"verdict: {result['verdict']}", file=out)
        cert = result["certificate"]
        kind = cert.get("kind", "")
        if kind == "schmidt":
            coeffs = cert["schmidt"]["coeffs"]
            print(f"schmidt rank: {cert['schmidt']['rank']}", file=out)
            print(f"schmidt coefficients: {[round(c, 12) for c in coeffs]}", file=out)
        elif kind == "product-factors":
            print("recovered product factors (as [re, im] pairs):", file=out)
            for side in "xy":
                print(f"  {side}: {[[z.real, z.imag] for z in cert[side].tolist()]}", file=out)
        elif kind == "decomposition":
            terms = cert["decomposition"]["terms"]
            print(f"decomposition terms: {len(terms)}", file=out)
            print(f"range criterion passed: {cert['range_criterion_passed']}", file=out)
        elif kind == "range-report":
            print(f"range rank: {cert['range_rank']}", file=out)
            print(f"range basis all elementary: {cert['all_elementary']}", file=out)
        elif kind == "classical-decomposition":
            print(f"certificate terms: {len(cert['terms'])}", file=out)
    elif command == "schmidt":
        print(f"rank: {result['rank']}", file=out)
        print(f"coefficients: {[round(c, 12) for c in result['coeffs']]}", file=out)
    elif command in ("ptrace", "marginal"):
        print(dumps_canonical(result, pretty=True), file=out)
    elif command == "verify":
        for suite in result["suites"]:
            status = "PASS" if suite["passed"] else "FAIL"
            print(
                f"{status}  {suite['name']} ({suite['instances']} instances): "
                f"{suite['description']}",
                file=out,
            )
            if not suite["passed"] and "counterexample" in suite:
                print(f"  counterexample: {dumps_canonical(suite['counterexample'])}", file=out)
        tally = "all suites passed" if result["all_passed"] else "FAILURES detected"
        print(f"{tally} (seed {result['seed']})", file=out)


def main(argv: Optional[list[str]] = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=_tolerance,
        default=None,
        metavar="EPS",
        help=f"relative tolerance ({TOL_ENV_VAR} sets the default, else {DEFAULT_EPS}; "
        "--tol overrides it)",
    )
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the canonical JSON report")
    fmt.add_argument("--pretty", action="store_true", help="human-readable output (default)")

    parser = argparse.ArgumentParser(
        prog="entanglekit",
        description="Classify, decompose, and reduce classical and quantum composite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dims = argparse.ArgumentParser(add_help=False)
    dims.add_argument("--dims", type=_int_at_least(1), nargs=2, metavar=("D1", "D2"), default=None)

    p = sub.add_parser("classify", parents=[common, dims], help="entanglement/separability verdict")
    p.add_argument("path", help="state file, or - for stdin")

    p = sub.add_parser("schmidt", parents=[common, dims], help="Schmidt coefficients and factors")
    p.add_argument("path", help="bipartite state file, or - for stdin")

    p = sub.add_parser("ptrace", parents=[common, dims], help="partial trace of a bipartite state")
    p.add_argument("path", help="bipartite/pure/density file, or - for stdin")
    p.add_argument("--keep", type=int, choices=(1, 2), required=True)

    p = sub.add_parser("marginal", parents=[common], help="marginal of a composite classical state")
    p.add_argument("path", help="classical2 file, or - for stdin")
    p.add_argument("--side", type=int, choices=(1, 2), required=True)

    p = sub.add_parser("verify", parents=[common], help="run the built-in verification suites")
    p.add_argument(
        "--seed",
        type=_int_at_least(0),
        default=DEFAULT_SEED,
        help="seed of the suites' generator (non-negative)",
    )
    p.add_argument(
        "--instances",
        type=_int_at_least(1),
        default=DEFAULT_INSTANCES,
        help="instances per suite (at least 1)",
    )

    args = parser.parse_args(argv)
    out = sys.stdout
    started = time.perf_counter()

    try:
        tol = _resolve_tolerance(args.tol)
        report = {"tool": "entanglekit", "version": __version__, "command": args.command}

        if args.command == "verify":
            results = run_all(seed=args.seed, instances=args.instances, tol=tol)
            result = {
                "seed": args.seed,
                "suites": [{k: v for k, v in vars(r).items() if v is not None} for r in results],
                "all_passed": all(r.passed for r in results),
            }
            exit_code = 0 if result["all_passed"] else 1
        else:
            raw = _read_input(args.path)
            handler = {
                "classify": _cmd_classify,
                "schmidt": _cmd_schmidt,
                "ptrace": _cmd_ptrace,
                "marginal": _cmd_marginal,
            }[args.command]
            # The digest is taken beside the parse: hashlib releases the GIL
            # while it hashes a large buffer, so the hash runs on another core.
            digest = hashlib.sha256()
            hasher = threading.Thread(target=digest.update, args=(raw,))
            hasher.start()
            try:
                # Entries near the float range overflow in norms and sums;
                # the checks refuse the inf or nan that results with their
                # own message, which is all that stderr should carry.
                with np.errstate(over="ignore", invalid="ignore"):
                    state = loads_state(raw, tol)
                    result = handler(state, args, tol)
            finally:
                hasher.join()
            report["input_digest"] = "sha256:" + digest.hexdigest()
            exit_code = 0
        report["tolerance"] = tol.eps
        report["result"] = result
    except SchemaError as exc:
        print(f"entanglekit: schema error: {exc}", file=sys.stderr)
        return 2
    except ZeroVectorError as exc:
        print(f"entanglekit: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"entanglekit: {exc}", file=sys.stderr)
        return 3

    report["elapsed_s"] = time.perf_counter() - started
    try:
        if args.json:
            print(dumps_canonical(report), file=out)
        else:
            _render_pretty(args.command, report["result"], out)
        out.flush()  # a failed write fails here, not in the interpreter's final flush
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):  # a reader that left needs no message
            print(f"entanglekit: cannot write the report: {exc}", file=sys.stderr)
        sys.stdout = open(os.devnull, "w")  # what is left buffered would fail again at exit
        return 5
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
