#!/usr/bin/env python3
"""entanglekit CLI benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload dense-density --seed 1 --seconds 60 --trace 0

Drives the ``entanglekit`` CLI as users do: one fresh process per
operation, in a closed loop with one client, on state files generated
from ``--seed`` into a scratch directory.  A run makes whole passes over
the workload's operation list, at least three, as many as end within
``--seconds``.  Whole passes keep the mix of operations the same in every
run.  Each op's time is the mean of its runs (see ``run_end_to_end``).
Every report is checked by a numpy-only oracle (``oracle.py``).  BLAS and
OpenMP are pinned to one thread here and in every child: this is the
single-threaded baseline.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
pass, running each operation three times (as a process, then in-process
untraced, then in-process with spans around each layer), and prints the
per-layer metrics.  Human-readable lines come first; the last line is
one JSON object.  The full result, with the environment, is written to
``.perfbench_out/`` at the repository root, and so are the spans.

Exits 2 without a result if the repository's sources are not present.
"""

import os

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)  # before numpy loads, here and in every child

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ENTRY = "import sys; from entanglekit.cli import main; sys.exit(main())"  # the console script
SETUP_PER_PASS = 3
MIN_PASSES = 3
OP_TIMEOUT_S = 60.0

END_TO_END = ["ops_per_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb"]
# error_rate is printed but is not a BENCHMARK.json metric: it is 0 on a correct build
UNITS = {"ops_per_s": "ops/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "error_rate": "ratio"}

LAYER_TIMES = [
    "statefile.json_loads",
    "statefile.parse_state",
    "statefile.schema_walk",
    "statefile.report_build",
    "statefile.dumps",
    "quantum.validate",
    "classical.validate",
    "linalg.decomp_busy",
    "bipartite.schmidt",
    "bipartite.partial_trace",
    "separability.classify",
    "separability.range_criterion",
    "separability.separable_density",
    "classical.classify",
    "classical.marginal",
    "verify.run_all",
]

# ROADMAP item 1 reference points: (label, seconds, workload, op name, traced record key)
REFERENCES = [
    ("classify bell.json end to end", 0.35, "small-cli", "classify sample bell", "wall_s"),
    ("interpreter start and import", 0.20, "small-cli", "classify sample bell", "cli.startup"),
    ("verify with defaults end to end", 1.5, "verify", None, "wall_s"),
    ("D=576 rank-4 loads_state", 0.92, "dense-density", "classify density D=576 rank 4", "statefile.loads_state"),
    ("D=576 rank-4 json.loads", 0.43, "dense-density", "classify density D=576 rank 4", "statefile.json_loads"),
    ("D=576 rank-4 classify", 0.27, "dense-density", "classify density D=576 rank 4", "separability.classify"),
    ("mixed classify d=24", 0.49, "dense-density", "classify density D=576 rank 4", "separability.classify"),
    ("d=32 mixed construct", 0.29, "dense-density", "ptrace density D=1024 rank 4", "quantum.validate"),
]


# ---------------------------------------------------------------------------
# running the CLI


def child_env() -> dict:
    # default tolerance for the oracle; cached bytecode, as an installed package has
    dropped = ("ENTANGLEKIT_TOL", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Run:
    exit_code: int
    wall_s: float
    maxrss_kb: int
    stdout: bytes


def spawn(code: str, args: list[str], env: dict, workdir: Path) -> Run:
    """Start a fresh interpreter, wait for it, and time it from spawn to exit."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *args], stdout=out, stderr=err, env=env, cwd=ROOT)
        fd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([fd], [], [], OP_TIMEOUT_S)[0]
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(fd)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = -1 if timed_out else proc.returncode
    return Run(code, wall, usage.ru_maxrss, out_path.read_bytes())


def measure_setup(env: dict, workdir: Path, repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and exit."""
    times = []
    for _ in range(repeats):
        run = spawn("import entanglekit.cli", [], env, workdir)
        if run.exit_code != 0:
            raise SystemExit(f"perfbench: importing entanglekit.cli failed: {(workdir / 'stderr').read_text()}")
        times.append(run.wall_s)
    return times


def check(op, run: Run, failures: list) -> bool:
    try:
        oracle.check(op, run.exit_code, run.stdout)
        return True
    except oracle.Mismatch as exc:
        failures.append({"op": op.name, "args": op.args, "reason": str(exc)})
        return False


# ---------------------------------------------------------------------------
# end-to-end run


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    Below 21 samples that percentile would not lie above the median, so
    the maximum is reported instead (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_end_to_end(ops, seconds: float, env: dict, workdir: Path) -> dict:
    """Time whole passes within ``seconds``; each op's wall time is its mean over the passes.

    Other tenants of the host change the speed of every process, CPU time
    included, by up to 1.5x within a run and more between runs, and they
    do so smoothly, not in rare outliers.  The passes spread each op's
    runs across the run, and the mean of an op's runs averages the host's
    speed over them; on such a host it varied less from run to run than
    the median or the minimum did.  ``op_p50_s`` and ``op_tail_s`` are
    taken over these per-op means, one sample per op of the pass, and
    ``ops_per_s`` over the wall time of every op of the run.
    """
    measure_setup(env, workdir, 1)  # warm-up: writes the package's bytecode cache
    setup, records, failures = [], [], []
    start = perf_counter()
    count = 0
    # another pass while one more, at the mean pass time so far, still ends within ``seconds``
    while count < MIN_PASSES or (perf_counter() - start) * (count + 1) / count <= seconds:
        setup += measure_setup(env, workdir, SETUP_PER_PASS)
        for i, op in enumerate(ops):
            run = spawn(ENTRY, op.args, env, workdir)
            ok = check(op, run, failures)
            records.append({"pass": count, "op": i, "t_s": perf_counter() - start, "wall_s": run.wall_s,
                            "maxrss_kb": run.maxrss_kb, "ok": ok})
        count += 1
    per_op = [statistics.fmean(r["wall_s"] for r in records if r["op"] == i) for i in range(len(ops))]
    n = len(records)
    n_ok = sum(r["ok"] for r in records)
    busy = sum(r["wall_s"] for r in records)
    tail_value, tail_pct = tail(per_op)
    m = len(per_op)
    per_op_note = f"{m} ops, each the mean of {count} runs"
    metrics = {
        "ops_per_s": (n_ok / busy, n, f"{n_ok} correct ops over {busy:.2f} s of op wall time"),
        "op_p50_s": (statistics.median(per_op), m, f"median over {per_op_note}"),
        "op_tail_s": (tail_value, m, f"p{tail_pct:.1f} over {per_op_note}, {round(m * (1 - tail_pct / 100))} beyond"),
        "setup_s": (statistics.median(setup), len(setup), "median of fresh `import entanglekit.cli`"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in records) / 1024, n, "largest child max-RSS, MiB"),
        "error_rate": ((n - n_ok) / n, n, f"{n - n_ok} of {n} ops failed"),
    }
    return {"figures": metrics, "records": records, "failures": failures, "setup_s": setup}


# ---------------------------------------------------------------------------
# traced run


def call_main(main, args: list[str]) -> tuple[int, float, bytes]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        code = main(args)
        elapsed = perf_counter() - start
    return code, elapsed, stdout.getvalue().encode()


def import_package():
    sys.path.insert(0, str(SRC))
    import entanglekit.cli

    if not Path(entanglekit.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported entanglekit from {entanglekit.cli.__file__}, not {SRC}")
    return entanglekit.cli


def run_traced(ops, env: dict, workdir: Path) -> dict:
    cli = import_package()
    tracer = tracing.Tracer()
    records, failures = [], []
    for i, op in enumerate(ops):
        run = spawn(ENTRY, op.args, env, workdir)
        ok = check(op, run, failures)
        code, main_s, _ = call_main(cli.main, op.args)
        tracer.op, tracer.dim = len(records), op.dim
        first = len(tracer.spans)
        tracer.install()
        try:
            traced_code, traced_s, out = call_main(cli.main, op.args)
        finally:
            tracer.uninstall()
        if ok and not code == traced_code == op.expect_exit:
            ok = False
            failures.append({"op": op.name, "args": op.args, "reason": f"in-process exit {code}/{traced_code}"})
        layers = tracing.op_layers(tracer.spans, first, len(tracer.spans))
        instances = 0
        if op.args[0] == "verify" and out:
            instances = sum(s["instances"] for s in json.loads(out)["result"]["suites"])
        in_bytes = Path(op.args[1]).stat().st_size if op.args[0] != "verify" else 0
        records.append(
            {
                "op": i,
                "name": op.name,
                "dim": op.dim,
                "ok": ok,
                "wall_s": run.wall_s,
                "cli.main": main_s,
                "cli.startup": run.wall_s - main_s,
                "cli.main_traced": traced_s,
                "statefile.in_bytes": in_bytes,
                "statefile.out_bytes": len(out),
                "verify.instances": instances,
                **layers,
            }
        )
    return {"records": records, "failures": failures, "spans": tracer.spans, "suites": suite_names()}


def suite_names() -> list[str]:
    """Span names of the verify suites, in ``run_all``'s order."""
    return [f"verify.suite.{fn.suite_name}" for fn in sys.modules["entanglekit.verify"]._SUITES]


def per_layer_metrics(records: list[dict], suite_names: list[str]) -> dict:
    """Per-operation means of each layer metric over the traced run."""
    n = len(records)

    def mean(key: str) -> float:
        return sum(r.get(key, 0) for r in records) / n

    main_s = mean("cli.main")
    m = {
        "cli.main_s": (main_s, "s"),
        "cli.startup_s": (mean("cli.startup"), "s"),
        "statefile.in_bytes": (mean("statefile.in_bytes"), "bytes"),
        "statefile.out_bytes": (mean("statefile.out_bytes"), "bytes"),
        "linalg.decompositions": (mean("linalg.decompositions"), "count"),
        "linalg.full_size_decompositions": (mean("linalg.full_size_decompositions"), "count"),
        "verify.instances": (mean("verify.instances"), "count"),
    }
    for key in LAYER_TIMES:
        span = "linalg.decomposition" if key == "linalg.decomp_busy" else key
        m[f"{key}_s"] = (mean(span), "s")
    for suite in suite_names:
        m[f"{suite}_s"] = (mean(suite), "s")
    m["trace.overhead_ratio"] = (mean("cli.main_traced") / main_s, "ratio")
    return m


def references(workload: str, records: list[dict]) -> list[dict]:
    rows = []
    for label, ref, wl, op_name, what in REFERENCES:
        if wl != workload:
            continue
        chosen = [r for r in records if op_name is None or r["name"] == op_name]
        if not chosen:
            continue
        measured = statistics.median(r.get(what, 0.0) for r in chosen)
        ratio = measured / ref
        rows.append({"reference": label, "ref_s": ref, "measured_s": measured, "ratio": ratio,
                     "over_2x": not 0.5 <= ratio <= 2.0})
    return rows


def split_by_dim(records: list[dict]) -> dict:
    """ROADMAP item 1's per-layer split, one row per total dimension D."""
    keys = ["cli.read_input", "statefile.json_loads", "statefile.schema_walk", "quantum.validate",
            "linalg.decomposition", "statefile.report_build", "statefile.dumps", "cli.main"]
    rows = {}
    for dim in sorted({r["dim"] for r in records if r["dim"]}):
        group = [r for r in records if r["dim"] == dim]
        rows[dim] = {"ops": len(group), **{k: sum(r.get(k, 0.0) for r in group) / len(group) for k in keys}}
    return rows


# ---------------------------------------------------------------------------
# environment and output


def environment(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "entanglekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "threads": THREAD_VARS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def write_out(name: str, payload) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(payload, indent=1, default=str))


def report_end_to_end(ops, args, env: dict, workdir: Path) -> tuple[dict, dict]:
    result = run_end_to_end(ops, args.seconds, env, workdir)
    records, metrics = result["records"], result["figures"]
    print(f"{len(records)} ops in {len(records) // len(ops)} passes of {len(ops)}, {len(result['failures'])} failed")
    for name, (value, n, note) in metrics.items():
        print(f"  {name:12s} {value:12.6g} {UNITS[name]:6s} n={n:<5d} {note}")
    out = {k: {"value": metrics[k][0], "unit": UNITS[k]} for k in END_TO_END}
    return out, result


def report_traced(ops, args, env: dict, workdir: Path, label: str, info: dict) -> tuple[dict, dict]:
    result = run_traced(ops, env, workdir)
    records = result["records"]
    metrics = per_layer_metrics(records, result["suites"])
    result["references"] = references(args.workload, records)
    result["split_by_dim"] = split_by_dim(records)
    write_out(f"spans_{label}.json", {"env": info, "ops": [op.name for op in ops], "spans": result.pop("spans")})
    print(f"{len(records)} ops traced (one pass), {len(result['failures'])} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}   (mean per op, n={len(records)})")
    for dim, row in result["split_by_dim"].items():
        print(f"  D={dim:<5d} " + " ".join(f"{k}={v:.4g}" for k, v in row.items()))
    for row in result["references"]:
        flag = "  <-- more than 2x off" if row["over_2x"] else ""
        print(f"  reference {row['reference']}: {row['ref_s']} s, measured {row['measured_s']:.4f} s{flag}")
    run_all = metrics["verify.run_all_s"][0]
    if run_all > 0:
        ratio = sum(metrics[f"{s}_s"][0] for s in result["suites"]) / run_all
        verdict = "agrees" if abs(ratio - 1.0) <= 0.05 else "DISAGREES"
        print(f"  verify suite times sum to {ratio:.4f} x run_all: {verdict}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # runs the cleanup below
    if not (SRC / "entanglekit" / "cli.py").is_file() or not (ROOT / "sample_states").is_dir():
        print(f"perfbench: no entanglekit sources under {ROOT}", file=sys.stderr)
        return 2

    env = child_env()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        ops = workloads.build(args.workload, args.seed, workdir, ROOT)
        info = environment(args)
        print("env " + json.dumps(info))
        label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
        if args.trace:
            metrics, result = report_traced(ops, args, env, workdir, label, info)
        else:
            metrics, result = report_end_to_end(ops, args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records, failures = result["records"], result["failures"]
    for f in failures[:20]:
        print(f"  FAILED {f['op']}: {f['reason']}")
    summary = {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": metrics,
    }
    write_out(f"BENCH_{label}.json", {"env": info, **summary, **result})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
