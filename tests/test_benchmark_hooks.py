"""The benchmark's hooks into the package still fit it.

``perfbench/tracing.py`` swaps module attributes, validators, the verify
suites and the ``numpy.linalg`` decompositions for timing wrappers, and
``BENCHMARK.json`` names one per-layer metric per verify suite.  A rename
in the package would break a traced benchmark run; these tests make it
fail here first.  They only read ``perfbench/`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import entanglekit.cli  # noqa: F401  (the tracer wraps the modules the CLI loads)
from entanglekit import verify

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(tracing) -> dict:
    """Every object the tracer may swap, by owner and name."""
    owners = {n: m for n, m in sys.modules.items() if n == "entanglekit" or n.startswith("entanglekit.")}
    snap = {name: dict(vars(m)) for name, m in owners.items()}
    for _, mod, cls in tracing.VALIDATORS:
        klass = getattr(owners[f"entanglekit.{mod}"], cls)
        snap[f"{mod}.{cls}"] = dict(vars(klass))
    snap["verify._SUITES"] = dict(enumerate(verify._SUITES))
    snap["numpy.linalg"] = {fn: getattr(np.linalg, fn) for fn in tracing.DECOMPOSITIONS}
    return snap


def _changed(before: dict, after: dict) -> set[str]:
    return {
        f"{owner}.{key}"
        for owner in before
        for key in before[owner].keys() | after[owner].keys()
        if before[owner].get(key) is not after[owner].get(key)
    }


def test_tracer_installs_and_restores_every_attribute():
    tracing = _load_tracing()
    before = _snapshot(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        installed = _changed(before, _snapshot(tracing))
    finally:
        tracer.uninstall()
    assert _changed(before, _snapshot(tracing)) == set()
    expected = {f"verify._SUITES.{k}" for k in range(len(verify._SUITES))}
    expected |= {f"numpy.linalg.{fn}" for fn in tracing.DECOMPOSITIONS}
    expected |= {f"{mod}.{cls}.__post_init__" for _, mod, cls in tracing.VALIDATORS}
    expected |= {f"entanglekit.{mod}.{attr}" for _, mod, attr in tracing.FUNCTIONS}
    expected.add("entanglekit.statefile.json")
    assert expected <= installed


def test_benchmark_names_one_metric_per_verify_suite():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["per_layer"] if m["name"].startswith("verify.suite.")]
    suites = [f"verify.suite.{fn.suite_name}_s" for fn in verify._SUITES]
    assert len(set(suites)) == len(suites)
    assert sorted(metrics) == sorted(suites)
