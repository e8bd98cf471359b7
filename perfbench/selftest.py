#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names the metrics the runs print, that the
generator writes byte-identical files for one seed (and different ones
for another), and that the oracle accepts real CLI
reports but rejects hand-corrupted ones: a wrong verdict, a perturbed
Schmidt coefficient, a wrong range rank, a perturbed reduced state, a
broken classical certificate, and a wrong exit code.  Exits 1 if any
check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the thread pins before numpy loads
import oracle
import workloads

FAILED: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILED.append(what)


def files(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def check_generator(base: Path) -> None:
    for name in workloads.WORKLOADS:
        dirs = [Path(tempfile.mkdtemp(dir=base)) for _ in range(3)]
        ops = [workloads.build(name, seed, d, run.ROOT) for seed, d in zip((5, 5, 6), dirs)]
        same = files(dirs[0]) == files(dirs[1])
        args = [[a.replace(str(d), "") for op in o for a in op.args] for o, d in zip(ops, dirs)]
        expect(same and args[0] == args[1], f"{name}: seed 5 twice gives identical files and ops")
        differs = files(dirs[0]) != files(dirs[2]) if files(dirs[0]) else args[0] != args[2]
        expect(differs and len(ops[0]) == len(ops[2]), f"{name}: seed 6 gives other inputs, same pass shape")


def check_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["end_to_end"]] == run.END_TO_END, "BENCHMARK.json names the end-to-end metrics")
    run.import_package()
    printed = run.per_layer_metrics([{"cli.main": 1.0}], run.suite_names())
    expect(sorted(printed) == sorted(m["name"] for m in spec["per_layer"]), "BENCHMARK.json names the per-layer metrics")


def rejects(op, code: int, stdout: bytes) -> bool:
    try:
        oracle.check(op, code, stdout)
    except oracle.Mismatch:
        return True
    return False


def corrupt(report: bytes, edit) -> bytes:
    obj = json.loads(report)
    edit(obj["result"])
    return json.dumps(obj).encode()


def check_oracle(base: Path) -> None:
    workdir = Path(tempfile.mkdtemp(dir=base))
    env = run.child_env()
    ops = {}
    for name in ("small-cli", "certificates"):
        ops.update({op.name: op for op in workloads.build(name, 5, Path(tempfile.mkdtemp(dir=base)), run.ROOT)})
    reports = {}
    for name in (
        "classify bipartite entangled 8x8",
        "classify bipartite product 2x2",
        "schmidt pure entangled 4x4",
        "classify density 8x8 rank 64",
        "ptrace density 8x8 rank 64",
        "classify classical2 16x16",
        "marginal1 classical2 16x16",
        "classify separable D=16 8 terms",
        "schmidt zero vector",
    ):
        result = run.spawn(run.ENTRY, ops[name].args, env, workdir)
        reports[name] = result.stdout
        expect(not rejects(ops[name], result.exit_code, result.stdout), f"accepts the real report: {name}")

    def bad(name: str, what: str, edit) -> None:
        expect(rejects(ops[name], 0, corrupt(reports[name], edit)), f"rejects {what}: {name}")

    def flip_verdict(r):
        r["verdict"] = "QuantumProductPure"

    def nudge_coeff(r):
        r["certificate"]["schmidt"]["coeffs"][0] += 1e-6

    def nudge_schmidt(r):
        r["coeffs"][1] += 1e-6

    bad("classify bipartite entangled 8x8", "a wrong verdict", flip_verdict)
    bad("classify bipartite entangled 8x8", "a perturbed Schmidt coefficient", nudge_coeff)
    bad("classify bipartite product 2x2", "a perturbed product factor",
        lambda r: r["certificate"]["x"][0].__setitem__(0, r["certificate"]["x"][0][0] + 1e-6))
    bad("schmidt pure entangled 4x4", "a perturbed Schmidt coefficient", nudge_schmidt)
    bad("classify density 8x8 rank 64", "a wrong range rank",
        lambda r: r["certificate"].__setitem__("range_rank", 63))
    bad("classify density 8x8 rank 64", "a wrong verdict", lambda r: r.__setitem__("verdict", "ClassicalPure"))
    bad("ptrace density 8x8 rank 64", "a perturbed reduced state",
        lambda r: r["mat"][0][0].__setitem__(0, r["mat"][0][0][0] + 1e-6))
    bad("classify classical2 16x16", "a certificate that does not recombine",
        lambda r: r["certificate"]["terms"].pop())
    bad("marginal1 classical2 16x16", "a marginal that does not sum",
        lambda r: r["probs"].__setitem__("x0", r["probs"]["x0"] + 1e-6))
    bad("classify separable D=16 8 terms", "a failed range criterion",
        lambda r: r["certificate"].__setitem__("range_criterion_passed", False))

    name = "classify bipartite entangled 8x8"
    expect(rejects(ops[name], 3, reports[name]), f"rejects a wrong exit code (3 for 0): {name}")
    name = "schmidt zero vector"
    expect(rejects(ops[name], 0, b""), f"rejects a wrong exit code (0 for 4): {name}")
    expect(rejects(ops[name], 4, b"{}"), f"rejects a report on a refused input: {name}")
    verify = workloads.Op("verify", ["verify", "--json"])
    report = json.dumps({"tool": "entanglekit", "command": "verify", "result": {
        "suites": [{"name": "s", "passed": False, "instances": 1}], "all_passed": False}}).encode()
    expect(rejects(verify, 0, report), "rejects a verify report with a failed suite")
    ok = json.loads(report)
    ok["result"]["suites"][0]["passed"] = ok["result"]["all_passed"] = True
    expect(not rejects(verify, 0, json.dumps(ok).encode()), "accepts a verify report with every suite passed")


def main() -> int:
    run.WORK_DIR.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
    try:
        check_names()
        check_generator(base)
        check_oracle(base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all self-test checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
