"""In-process span tracing around entanglekit's public calls.

The tracer wraps functions from the benchmark side only: it swaps module
attributes (and the ``__post_init__`` validators of the state classes)
for timing wrappers while a traced call runs, and puts the originals back
afterwards.  Each span records its name, start, end, parent span and the
operation it belongs to; spans stay in memory until the run writes them
out.  The ``numpy.linalg`` decompositions are wrapped the same way, so
their calls are counted exactly.
"""

from __future__ import annotations

import functools
import json as _json
import sys
import types
from time import perf_counter

import numpy as np

# (span name, module, attribute): public calls of each layer
FUNCTIONS = [
    ("cli.read_input", "cli", "_read_input"),
    ("statefile.loads_state", "statefile", "loads_state"),
    ("statefile.parse_state", "statefile", "parse_state"),
    ("statefile.report_build", "statefile", "classification_to_json"),
    ("statefile.report_build", "statefile", "state_to_json"),
    ("statefile.report_build", "statefile", "schmidt_to_json"),
    ("statefile.report_build", "statefile", "classical_cert_to_json"),
    ("statefile.dumps", "statefile", "dumps_canonical"),
    ("bipartite.schmidt", "bipartite", "schmidt"),
    ("bipartite.partial_trace", "bipartite", "partial_trace"),
    ("separability.classify", "separability", "classify"),
    ("separability.range_criterion", "separability", "check_range_criterion"),
    ("separability.separable_density", "separability", "separable_density"),
    ("classical.classify", "classical", "classify_classical"),
    ("classical.marginal", "classical", "marginal"),
    ("verify.run_all", "verify", "run_all"),
]

# (span name, module, class): constructor validation
VALIDATORS = [
    ("quantum.validate", "quantum", "DensityOperator"),
    ("quantum.validate", "quantum", "PureState"),
    ("classical.validate", "classical", "CompositeClassicalState"),
]

DECOMPOSITIONS = ("eigh", "eigvalsh", "svd")


class Tracer:
    """Collects spans as ``[name, start, end, parent, op, full_size]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.dim = None  # total dimension of the current op's state, if any
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, shape_check: bool = False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = shape_check and np.shape(args[0])[-2:] == (self.dim, self.dim)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, full])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def _swap(self, owner, key, new) -> None:
        """Replace an attribute of ``owner``, or an item when ``owner`` is a list."""
        if isinstance(owner, list):
            self._restore.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._restore.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def install(self) -> None:
        """Wrap every target, in every entanglekit module that holds a reference to it."""
        package = [m for n, m in sys.modules.items() if n == "entanglekit" or n.startswith("entanglekit.")]
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in package}
        for name, mod, attr in FUNCTIONS:
            original = getattr(mods[mod], attr)
            wrapper = self.wrap(name, original)
            for m in package:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._swap(m, key, wrapper)
        for name, mod, cls in VALIDATORS:
            klass = getattr(mods[mod], cls)
            self._swap(klass, "__post_init__", self.wrap(name, klass.__post_init__))
        json_proxy = types.ModuleType("json")
        json_proxy.__dict__.update(vars(_json))
        json_proxy.loads = self.wrap("statefile.json_loads", _json.loads)
        self._swap(mods["statefile"], "json", json_proxy)
        verify = mods["verify"]
        for k, suite in enumerate(verify._SUITES):
            self._swap(verify._SUITES, k, self.wrap(f"verify.suite.{suite.suite_name}", suite))
        for fn in DECOMPOSITIONS:
            self._swap(np.linalg, fn, self.wrap("linalg.decomposition", getattr(np.linalg, fn), True))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            if isinstance(owner, list):
                owner[key] = value
            else:
                setattr(owner, key, value)


def op_layers(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Per-layer totals for the spans ``spans[first:last]`` of one operation.

    A layer's time is the duration of its outermost spans, so a layer that
    calls itself (report builders nest) is not counted twice.  Also
    returns decomposition counts and the schema-walk share of parsing.
    """
    out: dict[str, float] = {}
    counts = {"linalg.decompositions": 0, "linalg.full_size_decompositions": 0}
    validate_in_parse = 0.0
    for idx in range(first, last):
        name, start, end, parent, _, full = spans[idx]
        ancestors = []
        p = parent
        while p >= first:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if name == "linalg.decomposition":
            counts["linalg.decompositions"] += 1
            counts["linalg.full_size_decompositions"] += int(full)
        if name in ancestors:
            continue
        out[name] = out.get(name, 0.0) + (end - start)
        if name.endswith(".validate") and "statefile.parse_state" in ancestors:
            validate_in_parse += end - start
    out.update(counts)
    out["statefile.schema_walk"] = out.get("statefile.parse_state", 0.0) - validate_in_parse
    return out
