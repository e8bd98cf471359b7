"""Complex arrays in state files: the chunked read against the per-entry walk.

``statefile`` reads a density's matrix in chunks where it can, and walks
every other ``[re, im]`` vector or matrix entry by entry in json's tree.
These tests pin the contract: the same values bit for bit, the same
``SchemaError`` message and location for every malformed input, and the
same canonical bytes on output.  json decodes every tree, and orjson
only the numbers of a density matrix, as flat lists; a read must equal a
``json``-only read of the strictly decoded UTF-8 text, state for state and
error for error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import decimal
import importlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entanglekit import statefile
from entanglekit.bipartite import BipartiteDims, BipartiteVector, kron_vec, schmidt
from entanglekit.cli import main
from entanglekit.errors import SchemaError
from entanglekit.linalg import Tolerance
from entanglekit.quantum import MixedEnsemble, PureState, _HandedOver, mix
from entanglekit.separability import SeparableDecomposition, classify
from entanglekit.statefile import (
    classification_to_json,
    dumps_canonical,
    format_float,
    loads_state,
    schmidt_to_json,
    state_to_json,
)
from entanglekit.verify import run_all

GOOD_VEC = "[[1.0, 0.0], [0.0, 0.0]]"
GOOD_MAT = "[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]"

# (case, vector JSON, location suffix, message)
VEC_CASES = [
    ("true", "[[1.0, 0.0], [true, 0.0]]", "[1][0]", "expected a number, got bool"),
    ("false", "[[1.0, 0.0], [0.0, false]]", "[1][1]", "expected a number, got bool"),
    ("string", '[[1.0, 0.0], ["0.0", 0.0]]', "[1][0]", "expected a number, got str"),
    ("null", "[[1.0, 0.0], [null, 0.0]]", "[1][0]", "expected a number, got NoneType"),
    ("nan", "[[1.0, 0.0], [NaN, 0.0]]", "[1][0]", "number must be finite, got nan"),
    ("infinity", "[[1.0, 0.0], [0.0, Infinity]]", "[1][1]", "number must be finite, got inf"),
    ("-infinity", "[[-Infinity, 0.0], [0.0, 0.0]]", "[0][0]", "number must be finite, got -inf"),
    ("pair-of-1", "[[1.0, 0.0], [0.0]]", "[1]",
     "complex entry must be a [re, im] pair, got length 1"),
    ("pair-of-3", "[[1.0, 0.0, 0.0], [0.0, 0.0]]", "[0]",
     "complex entry must be a [re, im] pair, got length 3"),
    ("ragged-leaf", "[[1.0, 0.0], [0.0, [0.0]]]", "[1][1]", "expected a number, got list"),
    ("extra-nesting", "[[1.0, 0.0], [[0.0, 0.0], [0.0, 0.0]]]", "[1][0]",
     "expected a number, got list"),
    ("all-extra-nesting", "[[[1.0, 0.0], [0.0, 0.0]]]", "[0][0]", "expected a number, got list"),
    ("too-shallow", "[1.0, 0.0]", "[0]", "expected an array, got float"),
    ("bare-number-entry", "[[1.0, 0.0], 0.0]", "[1]", "expected an array, got float"),
    ("deeper-than-numpy", "[" * 70 + "1.0" + "]" * 70, "[0]",
     "complex entry must be a [re, im] pair, got length 1"),
    ("empty", "[]", "", "vector must be non-empty"),
    ("object", '{"re": 1.0}', "", "expected an array, got dict"),
]

MAT_CASES = [
    ("true", "[[[0.5, 0.0], [0.0, 0.0]], [[0.0, true], [0.5, 0.0]]]", "[1][0][1]",
     "expected a number, got bool"),
    ("false", "[[[0.5, false], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]", "[0][0][1]",
     "expected a number, got bool"),
    ("string", '[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["0.5", 0.0]]]', "[1][1][0]",
     "expected a number, got str"),
    ("null", "[[[0.5, 0.0], [null, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]", "[0][1][0]",
     "expected a number, got NoneType"),
    ("nan", "[[[0.5, 0.0], [0.0, 0.0]], [[0.0, NaN], [0.5, 0.0]]]", "[1][0][1]",
     "number must be finite, got nan"),
    ("infinity", "[[[Infinity, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]", "[0][0][0]",
     "number must be finite, got inf"),
    ("-infinity", "[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, -Infinity]]]", "[1][1][1]",
     "number must be finite, got -inf"),
    ("ragged-rows", "[[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]]", "[1]",
     "row has length 1, expected 2"),
    ("pair-of-1", "[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5]]]", "[1][1]",
     "complex entry must be a [re, im] pair, got length 1"),
    ("pair-of-3", "[[[0.5, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]", "[0][1]",
     "complex entry must be a [re, im] pair, got length 3"),
    ("extra-nesting", "[[[[0.5, 0.0], [0.0, 0.0]], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]",
     "[0][0][0]", "expected a number, got list"),
    ("too-shallow", "[[0.5, 0.0], [0.0, 0.5]]", "[0][0]", "expected an array, got float"),
    ("bare-number-row", "[[[0.5, 0.0], [0.0, 0.0]], 0.5]", "[1]", "expected an array, got float"),
    ("empty", "[]", "", "matrix must be non-empty"),
    ("empty-rows", "[[], []]", "[0]", "vector must be non-empty"),
]


def _pure(vec: str) -> str:
    return f'{{"type": "pure", "vec": {vec}}}'


def _density(mat: str) -> str:
    return f'{{"type": "density", "dim": 2, "mat": {mat}}}'


def _separable(x: str) -> str:
    return (
        '{"type": "separable", "dims": [2, 2], "terms": ['
        f'{{"p": 0.5, "x": {GOOD_VEC}, "y": {GOOD_VEC}}}, '
        f'{{"p": 0.5, "x": {x}, "y": {GOOD_VEC}}}]}}'
    )


REJECTIONS = (
    [(f"pure.vec:{c}", _pure(v), f"$.vec{s}", m) for c, v, s, m in VEC_CASES]
    + [(f"density.mat:{c}", _density(v), f"$.mat{s}", m) for c, v, s, m in MAT_CASES]
    + [(f"separable.x:{c}", _separable(v), f"$.terms[1].x{s}", m) for c, v, s, m in VEC_CASES]
    + [("bipartite.dims:pair-of-1", f'{{"type": "bipartite", "dims": [2], "vec": {GOOD_VEC}}}',
        "$.dims", "dims must be a [d1, d2] pair, got length 1")]
)


@pytest.mark.parametrize("text, loc, message", [r[1:] for r in REJECTIONS],
                         ids=[r[0] for r in REJECTIONS])
def test_malformed_array_gives_the_walks_error(text, loc, message, tmp_path, capsys):
    with pytest.raises(SchemaError) as info:
        loads_state(text.encode())
    assert info.value.location == loc
    assert str(info.value) == f"{loc}: {message}"

    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == f"entanglekit: schema error: {loc}: {message}\n"


def test_well_formed_samples_still_parse():
    assert loads_state(_pure(GOOD_VEC).encode()).dim == 2
    assert loads_state(_density(GOOD_MAT).encode()).dim == 2
    assert len(loads_state(_separable(GOOD_VEC).encode()).terms) == 2


# ---------------------------------------------------------------------------
# an integer literal beyond the double range


HUGE = "1" + "0" * 400
HUGE_MESSAGE = "number does not fit a double: an integer with 401 digits"


@pytest.mark.parametrize(
    "text, loc",
    [
        (_pure(f"[[{HUGE}, 0.0], [0.0, 0.0]]"), "$.vec[0][0]"),
        (_density(f"[[[0.5, 0.0], [0.0, {HUGE}]], [[0.0, 0.0], [0.5, 0.0]]]"), "$.mat[0][1][1]"),
        (_separable(f"[[1.0, 0.0], [-{HUGE}, 0.0]]"), "$.terms[1].x[1][0]"),
        ('{"type": "classical", "space": ["a"], "probs": {"a": ' + HUGE + "}}", "$.probs.a"),
    ],
    ids=["pure.vec", "density.mat", "separable.x", "classical.probs"],
)
def test_integer_too_large_for_a_double_is_a_schema_error(text, loc, tmp_path, capsys):
    with pytest.raises(SchemaError) as info:
        loads_state(text.encode())
    assert str(info.value) == f"{loc}: {HUGE_MESSAGE}"

    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == f"entanglekit: schema error: {loc}: {HUGE_MESSAGE}\n"


@pytest.mark.parametrize(
    "value, digits",
    [(10**400, 401), (-(10**400), 401), (10**5000, 5001), (-(10**5000) + 1, 5000)],
    ids=["401-digits", "minus-401-digits", "5001-digits", "minus-5000-digits"],
)
def test_an_integer_past_str_s_digit_limit_is_a_schema_error(value, digits):
    # only a library caller can pass one: json refuses such a literal in a file
    with pytest.raises(SchemaError) as info:
        statefile.parse_state({"type": "pure", "vec": [[value, 0.0]]})
    message = f"number does not fit a double: an integer with {digits} digits"
    assert str(info.value) == f"$.vec[0][0]: {message}"


# ---------------------------------------------------------------------------
# the chunked read of a matrix == the per-entry walk, bit for bit

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, 0.1, 1 / 3]
leaves = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_FLOATS),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-(2**1023), max_value=2**1023),  # beyond 64 bits, within a double
    st.sampled_from([2**63, 2**64 + 1, -(2**70) - 3, 10**300, 2**53 + 1, 2**1024 - 2**970 - 1]),
)
pairs = st.lists(leaves, min_size=2, max_size=2)


def _bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_fast_matrix_parse_is_bit_identical_to_the_walk(rows, cols, data):
    # the chunked reader, the one fast parse left, on a compact matrix of edge leaves
    mat = data.draw(st.lists(st.lists(pairs, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    text = json.dumps({"type": "density", "dim": rows, "mat": mat}, separators=(",", ":")).encode()
    chunk = data.draw(st.one_of(st.none(), _SMALL_CHUNKS))
    with mock.patch.object(statefile, "_CHUNK_BYTES", chunk or statefile._CHUNK_BYTES):
        tree = statefile._chunked_density(text)
    assert _bits(tree["mat"].array) == _bits(statefile._as_cmat(json.loads(text)["mat"], "$"))


def test_the_walk_keeps_signed_zeros():
    v = statefile._as_cvec([[-0.0, 0.0], [0.0, -0.0]], "$")
    assert [math.copysign(1, x) for x in (v[0].real, v[0].imag, v[1].real, v[1].imag)] == [
        -1, 1, 1, -1
    ]


@pytest.mark.parametrize(
    "value",
    [[[True, 0.0]], [["1", 0.0]], [[None, 0.0]], [[float("nan"), 0.0]], [[0.0, float("inf")]],
     [[1.0]], [[1.0, 0.0, 0.0]], [[[1.0, 0.0]]], [], [[1.0, 0.0], [0.0]], [[10**400, 0.0]],
     [[2**1024, 0.0]], [1.0, 0.0]],
)
def test_fast_parse_declines_what_the_walk_must_judge(value):
    # the chunked reader declines a matrix whose one row is such a vector; the walk refuses it
    data = json.dumps({"type": "density", "dim": 1, "mat": [value]}, separators=(",", ":")).encode()
    assert statefile._chunked_density(data) is None
    with _decode_calls() as calls:
        outcome = _outcome(loads_state, data)
    assert outcome[0] is SchemaError and outcome == _outcome(_json_only, data)
    assert calls.walks == 1


# ---------------------------------------------------------------------------
# the writer == the per-float reference emitter


def _reference_dumps(obj, pretty: bool) -> str:
    """The per-float recursive emitter, kept as the reference."""
    out: list[str] = []

    def emit(o, depth):
        if o is None:
            out.append("null")
        elif isinstance(o, bool):
            out.append("true" if o else "false")
        elif isinstance(o, (int, np.integer)):
            out.append(str(int(o)))
        elif isinstance(o, (float, np.floating)):
            out.append(format_float(float(o)))
        elif isinstance(o, str):
            out.append(json.dumps(o))
        elif isinstance(o, dict):
            items([(json.dumps(str(k)) + (": " if pretty else ":"), v) for k, v in o.items()],
                  "{}", depth)
        else:
            items([("", v) for v in o], "[]", depth)

    def items(pairs_, brackets, depth):
        if not pairs_:
            out.append(brackets)
            return
        out.append(brackets[0])
        pad = "  " * (depth + 1) if pretty else ""
        for k, (prefix, value) in enumerate(pairs_):
            if k:
                out.append(",")
            if pretty:
                out.append("\n" + pad)
            out.append(prefix)
            emit(value, depth + 1)
        if pretty:
            out.append("\n" + "  " * depth)
        out.append(brackets[1])

    emit(obj, 0)
    return "".join(out)


finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS),
                   st.integers(-(10**20), 10**20).map(float))
float_pairs = st.lists(st.lists(finite, min_size=2, max_size=2), max_size=8)
payloads = st.recursive(
    st.one_of(float_pairs, finite, st.integers(), st.booleans(), st.none(), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(float_pairs, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(payloads, st.booleans())
def test_bulk_emitter_matches_per_float_formatting(payload, pretty):
    assert dumps_canonical(payload, pretty=pretty) == _reference_dumps(payload, pretty)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("pretty", [False, True])
def test_bulk_emitter_rejects_non_finite(bad, pretty):
    with pytest.raises(ValueError, match="non-finite"):
        dumps_canonical({"vec": [[0.5, 0.0], [bad, 0.0]]}, pretty=pretty)


def _pair_lists(vec) -> list:
    """The reference form of a complex vector: one ``[re, im]`` list of floats per entry."""
    return [[z.real, z.imag] for z in np.asarray(vec, dtype=complex).tolist()]


# a complex array is written as its [re, im] lists
_ARRAY_LEAVES = st.one_of(
    finite,
    st.sampled_from([-0.0, 1e16, -1e16, 1e16 + 2, 1e17, -1e17, 1e17 + 16, 9007199254740993.0,
                     5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308]),
    st.integers(-(10**17), 10**17).map(float),
)


def _assert_written_as_its_pair_lists(vec, pretty):
    payload = {"basis": [vec, vec[::-1]], "rank": len(vec)}
    expected = {"basis": [_pair_lists(vec), _pair_lists(vec[::-1])], "rank": len(vec)}
    assert dumps_canonical(payload, pretty=pretty) == dumps_canonical(expected, pretty=pretty)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ARRAY_LEAVES, max_size=16).filter(lambda x: len(x) % 2 == 0),
       st.booleans(), st.booleans())
def test_complex_array_is_written_as_its_pair_lists(leaves, strided, pretty):
    vec = np.array(leaves, dtype=float).view(complex)
    if strided:  # every other entry of a longer array: not contiguous
        vec = np.repeat(vec, 2)[::2]
    _assert_written_as_its_pair_lists(vec, pretty)


@pytest.mark.parametrize("pretty", [False, True])
def test_single_precision_array_is_written_as_its_pair_lists(pretty):
    vec = np.array([0.1 - 0j, complex(-0.0, 1.0), complex(3.4e38, 1e-45)], dtype=np.complex64)
    _assert_written_as_its_pair_lists(vec, pretty)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("pretty", [False, True])
def test_complex_array_refuses_non_finite_as_its_lists_do(bad, pretty):
    vec = np.array([0.5 + 0j, complex(0.5, bad)])
    with pytest.raises(ValueError) as from_lists:
        dumps_canonical([_pair_lists(vec)], pretty=pretty)
    with pytest.raises(ValueError) as from_array:
        dumps_canonical([vec], pretty=pretty)
    message = f"cannot serialize non-finite float {bad!r}"
    assert str(from_array.value) == str(from_lists.value) == message


# every report payload's bytes equal those of the payload with lists in place of arrays
_UNIT_LEAVES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(-1.0, 1.0),
)


@st.composite
def _unit_vectors(draw, n):
    """A unit vector of n entries.  Drawn leaves are kept when they already
    have unit norm, so -0.0, +-1.0 and subnormals reach the reports."""
    v = np.array(draw(st.lists(_UNIT_LEAVES, min_size=2 * n, max_size=2 * n))).view(complex)
    norm = float(np.linalg.norm(v))
    if norm < 1e-100:  # too small to scale back to unit norm: a basis vector instead
        return np.eye(n, dtype=complex)[draw(st.integers(0, n - 1))]
    return v if abs(norm * norm - 1.0) <= 1e-12 else v / norm


@st.composite
def _report_payloads(draw):
    """What ``state_to_json``, ``schmidt_to_json`` and ``classification_to_json``
    make of a random pure, density, bipartite or separable state, D <= 12."""
    dims = BipartiteDims(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    kind = draw(st.sampled_from(["pure", "density", "bipartite", "separable"]))
    if kind == "pure":
        return [state_to_json(PureState(draw(_unit_vectors(dims.total))))]
    if kind == "bipartite":
        if draw(st.booleans()):  # a product: the product-factors certificate
            vec = kron_vec(draw(_unit_vectors(dims.d1)), draw(_unit_vectors(dims.d2))).vec
        else:
            vec = draw(_unit_vectors(dims.total))
        t = BipartiteVector(vec, dims)
        return [state_to_json(t), schmidt_to_json(schmidt(t)), classification_to_json(classify(t))]
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    weights = [w / sum(weights) for w in weights]
    if kind == "density":  # rank 1 takes the pure path; a higher rank gets the range report
        ensemble = [(p, PureState(draw(_unit_vectors(dims.total)))) for p in weights]
        rho = mix(MixedEnsemble(tuple(ensemble)))
        return [state_to_json(rho), classification_to_json(classify(rho, dims=dims))]
    terms = [
        (p, PureState(draw(_unit_vectors(dims.d1))), PureState(draw(_unit_vectors(dims.d2))))
        for p in weights
    ]
    dec = SeparableDecomposition(dims, tuple(terms))
    return [state_to_json(dec), classification_to_json(classify(dec))]


def _with_pair_lists(payload):
    """``payload`` with every 1-D complex array replaced by its ``[re, im]`` lists."""
    if isinstance(payload, np.ndarray) and payload.ndim == 1 and payload.dtype.kind == "c":
        return _pair_lists(payload)
    if isinstance(payload, dict):
        return {k: _with_pair_lists(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_with_pair_lists(v) for v in payload]
    return payload


def _holds_pair_lists(payload) -> bool:
    """Whether ``payload`` holds a non-empty list of ``[float, float]`` lists."""
    if isinstance(payload, dict):
        return any(map(_holds_pair_lists, payload.values()))
    if not isinstance(payload, (list, tuple)):
        return False
    if payload and all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(x, float) for x in p)
        for p in payload
    ):
        return True
    return any(map(_holds_pair_lists, payload))


@settings(max_examples=300, deadline=None)
@given(_report_payloads(), st.booleans())
def test_every_report_payload_is_written_as_its_pair_lists(payloads, pretty):
    for payload in payloads:
        expected = dumps_canonical(_with_pair_lists(payload), pretty=pretty)
        assert dumps_canonical(payload, pretty=pretty) == expected


@settings(max_examples=100, deadline=None)
@given(_report_payloads())
def test_no_report_payload_holds_pair_lists(payloads):
    assert not any(map(_holds_pair_lists, payloads))


# verify's counterexamples hold the suites' own arrays, a matrix as the list of its rows
@pytest.mark.parametrize("tol", [2.0, 0.5, 1e-17])
@pytest.mark.parametrize("seed", [1729, 5])
def test_every_verify_counterexample_is_written_as_its_pair_lists(seed, tol):
    results = run_all(seed, instances=5, tol=Tolerance(tol))
    payloads = [r.counterexample for r in results if not r.passed]
    assert not any(map(_holds_pair_lists, payloads))
    assert sum(_holds_pair_lists(_with_pair_lists(p)) for p in payloads) >= 2
    for payload, pretty in itertools.product(payloads, (False, True)):
        expected = dumps_canonical(_with_pair_lists(payload), pretty=pretty)
        assert dumps_canonical(payload, pretty=pretty) == expected


@pytest.mark.parametrize(
    "array",
    [np.array([0.5, 0.5]), np.array([1, 0]), np.array([[0.5 + 0j]]), np.array(0.5 + 0j)],
    ids=["real", "integer", "2-D complex", "0-D complex"],
)
def test_an_array_that_is_not_a_complex_vector_is_refused(array):
    with pytest.raises(TypeError, match="cannot serialize ndarray to JSON"):
        dumps_canonical({"vec": array})


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"type": "pure", "vec": [[' + "1" * 5000 + ", 0.0]]}", "Exceeds the limit"),
        ("[" * 100000 + "]" * 100000, "maximum recursion depth"),
    ],
    ids=["integer-beyond-conversion-limit", "nesting-too-deep"],
)
def test_undecodable_json_is_a_schema_error(text, message, tmp_path, capsys):
    with pytest.raises(SchemaError, match=message) as info:
        loads_state(text.encode())
    assert info.value.location == "$"

    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("entanglekit: schema error: $: invalid JSON: ")


def test_decoding_restores_the_collector_state():
    import gc

    assert gc.isenabled()
    loads_state(b'{"type": "pure", "vec": [[1.0, 0.0]]}')
    assert gc.isenabled()
    with pytest.raises(SchemaError):
        loads_state(b"{not json")
    assert gc.isenabled()
    gc.disable()
    try:
        loads_state(b'{"type": "pure", "vec": [[1.0, 0.0]]}')
        assert not gc.isenabled()
    finally:
        gc.enable()


def _collections_while(read, allocate_after: bool = True) -> list:
    """The collections that run during ``read()`` and, with ``allocate_after``, the allocations after it."""
    import gc

    collections = []

    def record(phase, info):
        collections.append((phase, info["generation"]))

    gc.collect()
    gc.callbacks.append(record)
    try:
        read()
        if allocate_after:
            [[] for _ in range(100)]  # the tree must not be left to collect
    finally:
        gc.callbacks.remove(record)
    return collections


def _identity_density(n: int) -> list:
    return [[[1.0 / n if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]


def test_reading_a_density_runs_no_collection():
    n = 72  # 5,184 pairs, far above the young generation's threshold of 700
    text = json.dumps({"type": "density", "dim": n, "mat": _identity_density(n)})

    def read():
        assert loads_state(text.encode()).dim == n

    assert _collections_while(read) == []


def test_reading_a_classical2_file_runs_no_collection():
    labels = [f"x{k}" for k in range(30)]  # 900 triples, each a list the collector would walk
    probs = [[x, y, 1 / 900] for x in labels for y in labels]
    data = json.dumps({"type": "classical2", "spaceX": labels, "spaceY": labels, "probs": probs}).encode()
    # only while loads_state runs: the state's own 900 points may start a collection after it
    assert _collections_while(lambda: loads_state(data), allocate_after=False) == []


def test_refusing_a_density_runs_no_collection():
    n = 72
    mat = _identity_density(n)
    mat[0][0][0] = -0.5  # one negative eigenvalue: the constructor refuses the matrix
    text = json.dumps({"type": "density", "dim": n, "mat": mat})

    def read():  # read in chunks and refused by the constructor: no tree is built to collect
        with pytest.raises(ValueError, match="must be positive"):
            loads_state(text.encode())

    assert _collections_while(read) == []


# ---------------------------------------------------------------------------
# json decodes every tree: loads_state == a json-only read, bit for bit


def _json_only(data: bytes):
    """The reference read: a strict UTF-8 decode and ``json.loads``, with ``_decode``'s error mapping."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"invalid UTF-8: {exc}")
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}")
    return statefile.parse_state(tree)


def _fingerprint(value):
    """Everything a state holds, with each float and array as its bits."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            _fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, np.ndarray):
        return _bits(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return tuple((_fingerprint(k), _fingerprint(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(map(_fingerprint, value))
    return type(value).__name__, repr(value)


def _outcome(read, data: bytes):
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # as the CLI reads
            return "state", _fingerprint(read(data))
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def _with_leaves(draw, value):
    """``value`` with about one number in four, dims and sizes included, drawn from ``leaves``."""
    if isinstance(value, dict):
        return {k: draw(_with_leaves(v)) for k, v in value.items()}
    if isinstance(value, list):
        return [draw(_with_leaves(v)) for v in value]
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if is_number and not draw(st.integers(0, 3)):
        return draw(leaves)
    return value


@st.composite
def _state_file_bytes(draw):
    """A drawn file's UTF-8 bytes, escaped or raw, and one time in four with
    up to three arbitrary bytes spliced in, most often not UTF-8."""
    obj = draw(_state_files().flatmap(_with_leaves))
    data = json.dumps(obj, ensure_ascii=draw(st.booleans())).encode()
    if not draw(st.integers(0, 3)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(_state_file_bytes())
# a trace whose parts are finite and whose modulus is not: abs() of it raised OverflowError
@example(b'{"type": "density", "dim": 1, "mat": [[[1e+308, 1.7976931348623157e+308]]]}')
@example(b'{"type": "density", "dim": 1, "mat": [[[1.4938877491736455e+308, 1e+308]]]}')
def test_reading_matches_a_json_only_read_bit_for_bit(data):
    assert _read_flat(data) == _outcome(_json_only, data)


COMPACT_MAT = "[[[0.5,0.0],[0.0,0.0]],[[0.0,0.0],[0.5,0.0]]]"


def _compact_density(mat: str) -> str:
    return '{"type":"density","dim":2,"mat":' + mat + "}"


BIG = str(2**64)
_DEEP = "[" * 1100 + "]" * 1100
# (case, text): where a read could differ from json's read of the whole file
DECODER_EDGES = [
    ("dim-2^64", f'{{"type": "density", "dim": {BIG}, "mat": {GOOD_MAT}}}'),
    ("dim-2^64-as-the-shape", f'{{"type": "density", "dim": {BIG}, "mat": [[[1.0, 0.0]]]}}'),
    ("dims-2^64", f'{{"type": "bipartite", "dims": [{BIG}, 1], "vec": {GOOD_VEC}}}'),
    ("dims-minus-2^64", f'{{"type": "separable", "dims": [2, -{BIG}], "terms": []}}'),
    ("label-2^64", f'{{"type": "classical", "space": ["a", {BIG}], "probs": {{"a": 1.0}}}}'),
    ("point-label-2^64", '{"type": "classical2", "spaceX": ["a"], "spaceY": ["b"], '
     f'"probs": [["a", {BIG}, 1.0]]}}'),
    ("nan", _pure("[[NaN, 0.0], [1.0, 0.0]]")),
    ("-infinity", _pure("[[1.0, 0.0], [-Infinity, 0.0]]")),
    ("nan-probability", '{"type": "classical", "space": ["a"], "probs": {"a": NaN}}'),
    ("lone-surrogate-label",
     '{"type": "classical", "space": ["\\ud800"], "probs": {"\\ud800": 1.0}}'),
    ("escaped-label", '{"type": "classical", "space": ["\\u00e9"], "probs": {"\\u00e9": 1.0}}'),
    ("bracket-in-label", '{"type": "classical", "space": ["]]", "[["], "probs": {"]]": 1.0}}'),
    ("utf8-bom", "﻿" + _pure(GOOD_VEC)),
    ("nesting-1100-in-the-vector", _pure(_DEEP)),
    ("nesting-1100-in-an-ignored-field", f'{{"type": "pure", "vec": {GOOD_VEC}, "note": {_DEEP}}}'),
    ("closers-after-an-escaped-quote-hide-nesting-1100",  # counted without escapes: depth 3
     f'{{"type": "pure", "vec": {GOOD_VEC}, "s": "\\"{"]" * 1200}", "note": {_DEEP}}}'),
    ("nesting-100-in-an-ignored-field",
     f'{{"type": "pure", "vec": {GOOD_VEC}, "note": {"[" * 100 + "]" * 100}}}'),
    ("integer-5000-digits", _pure(f"[[{'1' * 5000}, 0.0], [0.0, 0.0]]")),
    ("integer-400-digits", _pure(f"[[{HUGE}, 0.0], [0.0, 0.0]]")),
    ("duplicate-mat",
     '{"type": "density", "dim": 2, "mat": [[[2.0, 0.0]]], "mat": ' + GOOD_MAT + "}"),
    ("duplicate-mat-last-bad", '{"type": "density", "dim": 2, "mat": ' + GOOD_MAT + ', "mat": 1}'),
    ("duplicate-probs", '{"type": "classical", "space": ["a", "b"], "probs": {"a": 2.0}, '
     '"probs": {"b": 1.0}}'),
    ("duplicate-probability", '{"type": "classical", "space": ["a", "b"], '
     '"probs": {"a": 1.0, "b": 0.0, "a": 0.0, "b": 1.0}}'),
    ("minus-zero", _pure("[[1.0, -0], [-0.0, -0.0]]")),
    ("1e400", _pure("[[1e400, 0.0], [0.0, 0.0]]")),
    ("1e-400", _pure("[[1.0, 1e-400], [-1e-400, 0.0]]")),
    ("trailing-data", _pure(GOOD_VEC) + " []"),
    ("compact-duplicate-mat",
     '{"type":"density","dim":2,"mat":[[[2.0,0.0]]],"mat":' + COMPACT_MAT + "}"),
    ("compact-duplicate-mat-last-bad", _compact_density(COMPACT_MAT)[:-1] + ',"mat":1}'),
    ("compact-1e400", _compact_density("[[[1e400,0.0],[0.0,0.0]],[[0.0,0.0],[0.5,0.0]]]")),
    # numbers infinite as doubles: the chunked read takes orjson's refusal as its only check
    ("compact-minus-1e309", _compact_density("[[[-1e309,0.0],[0.0,0.0]],[[0.0,0.0],[0.5,0.0]]]")),
    ("compact-1.8e308", _compact_density("[[[1.8e308,0.0],[0.0,0.0]],[[0.0,0.0],[0.5,0.0]]]")),
    ("compact-integer-310-digits",
     _compact_density(f"[[[{'1' * 310},0.0],[0.0,0.0]],[[0.0,0.0],[0.5,0.0]]]")),
    ("compact-minus-zero", _compact_density("[[[0.5,-0],[-0.0,-0.0]],[[-0,0.0],[0.5,-0.0]]]")),
    # a number byte beside a bracket, which the skeleton check cannot see
    ("compact-exponent-after-a-pair", _compact_density("[[[0.5,0]e0,[0,0]],[[0,0],[0.5,0]]]")),
    ("compact-digit-after-a-row", _compact_density("[[[0.4,0.1],[0,0.2]]5,[[0,-0.2],[0.6,0]]]")),
    ("compact-digit-before-a-pair", _compact_density("[[[0.5,0],5[3,4]],[[0,0],[0.5,0]]]")),
    # a slot left empty, or emptied by a number on the wrong side of its bracket
    ("compact-empty-slot", _compact_density("[[[0.5,0],[0,0]],[[0,0],[0.5,]]]")),
    ("compact-empty-slot-first", _compact_density("[[[,0],[0,0]],[[0,0],[0.5,0]]]")),
    ("spaced-empty-slot", _compact_density("[[[0.5,0],[0,0]],[[0,0],[0.5, \n ]]]")),
    # whitespace that fills a slot is then a chunk of its own, which holds no number: the entry
    # must not keep what np.empty left, nor the later numbers move back one place
    ("empty-last-slot-padded-past-a-chunk",
     _compact_density(f"[[[0.5,0],[0,0]],[[0,0],[0.5,{' ' * 2 * statefile._CHUNK_BYTES}]]]")),
    ("empty-middle-slot-padded-past-a-chunk",
     _compact_density(f"[[[0.5,0],[0,{' ' * 2 * statefile._CHUNK_BYTES}]],[[0,0],[0.5,0]]]")),
    ("compact-number-after-its-closing-bracket", _compact_density("[[[0.5,0],[0,]0],[[0,0],[0.5,0]]]")),
    ("compact-number-before-its-opening-bracket", _compact_density("[[[0.5,0],[0,0]],0[[,0],[0.5,0]]]")),
    ("compact-number-between-two-brackets", _compact_density("[[[0.5,0],[0,0]],[0[,0],[0.5,0]]]")),
    ("spaced-number-after-its-closing-bracket",
     _compact_density("[[[0.5,0],[0, ]\t0 ],[[0,0],[0.5,0]]]")),
    ("compact-nesting-1100-in-an-ignored-field",
     _compact_density(COMPACT_MAT)[:-1] + ',"note":' + _DEEP + "}"),
    ("control-character", '{"type": "classical", "space": ["a\tb"], "probs": {"a\tb": 1.0}}'),
    ("empty", ""),
    # the key "mat" spelled with escapes, or "mat" ending a key that holds an escaped quote:
    # json's decode of the rest, the slot in the matrix's place, says which "mat" holds it
    ("escaped-mat-after-the-matrix", _compact_density(COMPACT_MAT)[:-1] + ',"m\\u0061t":[]}'),
    ("upper-case-escaped-mat-after-the-matrix",
     _compact_density(COMPACT_MAT)[:-1] + ',"\\u006Dat":1}'),
    ("escaped-mat-before-the-matrix",
     '{"type":"density","dim":2,"m\\u0061t":[],"mat":' + COMPACT_MAT + "}"),
    ("mat-ending-a-key-with-an-escaped-quote",
     '{"x\\"mat":' + COMPACT_MAT + ',"type":"density","dim":2,"mat":[]}'),
    # whitespace: JSON's four bytes anywhere between tokens, and nothing else
    ("crlf-and-tabs-around-the-colon",
     '{"type":"density","dim":2,"mat"\r\n\t:\t\r\n' + COMPACT_MAT + "}"),
    ("whitespace-between-the-closers",
     _compact_density("[ [ [0.5,0.0],[0.0,0.0] ] ,\n[[0.0,0.0],[0.5,0.0]\t]\r\n]")),
    ("form-feed-in-the-matrix", _compact_density("[[[0.5,0.0],\f[0.0,0.0]],[[0.0,0.0],[0.5,0.0]]]")),
    ("vertical-tab-in-the-matrix",
     _compact_density("[[[0.5,0.0],[0.0,0.0]],[[0.0,0.0],[0.5,0.0]\v]]")),
    ("space-inside-a-number", _compact_density("[[[0.5,0.0],[0.0,0.0]],[[0.0,0.0],[0. 5,0.0]]]")),
    ("newline-inside-an-exponent",
     _compact_density("[[[0.5,0.0],[0.0,0.0]],[[0.0,0.0],[5e\n-1,0.0]]]")),
]


def _labels(label: bytes) -> bytes:
    return b'{"type": "classical", "space": [' + label + b'], "probs": {' + label + b": 1.0}}"


# (case, bytes): files that are not UTF-8, and multibyte characters next to
# brackets and quotes
BYTE_EDGES = [
    ("invalid-utf8-in-a-label", _labels(b'"a\xffb"')),
    ("invalid-utf8-after-the-closing-brace", _pure(GOOD_VEC).encode() + b"\xff"),
    ("invalid-utf8-in-a-nested-ignored-field",
     _pure(GOOD_VEC)[:-1].encode() + b', "note": [["\x80"]]}'),
    ("truncated-multibyte-in-a-label", _labels(b'"\xc3"')),
    ("truncated-multibyte-at-the-end", _pure(GOOD_VEC).encode() + b"\xe2\x82"),
    ("utf8-encoded-surrogate", _labels(b'"\xed\xa0\x80"')),
    ("utf8-encoded-surrogate-after-an-escape", _labels(b'"\\ud800\xed\xa0\x80"')),
    ("bom-in-a-label", _labels('"\ufeff"'.encode())),
    ("multibyte-next-to-quotes", '{"type": "classical", "space": ["é", "😀"], '
     '"probs": {"é": 0.25, "😀": 0.75}}'.encode()),
    ("multibyte-next-to-brackets", '{"type": "classical", "space": ["[é", "😀]", "]é[", "é"], '
     '"probs": {"[é": 0.5, "😀]": 0.5}}'.encode()),
    ("multibyte-next-to-brackets-refused", '{"type": "classical", "space": ["[é", "😀]"], '
     '"probs": {"[é": 0.5, "😀]": 0.6}}'.encode()),
    ("multibyte-labels-of-a-classical2", '{"type": "classical2", "spaceX": ["é"], "spaceY": ["😀"], '
     '"probs": [["é", "😀", 1.0]]}'.encode()),
    ("multibyte-outside-strings", '{"type": "pure", "vec": [é[1.0, 0.0]]}'.encode()),
    ("multibyte-before-closers-in-a-string-hides-no-nesting",
     (_pure(GOOD_VEC)[:-1] + ', "é": ["😀' + "]" * 1100 + '", ' + _DEEP + "]}").encode()),
]
EDGES = [(c, t.encode()) for c, t in DECODER_EDGES] + BYTE_EDGES


@pytest.mark.parametrize("data", [d for _, d in EDGES], ids=[c for c, _ in EDGES])
def test_decoder_edges_read_as_json_reads_them(data):
    assert _read_flat(data) == _outcome(_json_only, data)


def test_a_matrix_of_empty_rows_is_declined_before_a_skeleton_is_built_for_it():
    # rows of "[[]]" hold no pair: the skeleton comparison would refuse them too, but only
    # after building the skeleton it expects, about 3x the input (a peak of about 8x it)
    data = _compact_density("[" + ",".join(["[[]]"] * 200_000) + "]").encode()
    tracemalloc.start()
    try:
        declined = statefile._chunked_density(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert declined is None and peak < 3 * len(data)


_SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(Path(statefile.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}


def test_nesting_a_million_deep_is_a_schema_error_not_a_crash(tmp_path):
    # json stops at the recursion limit; the read runs in a process of its
    # own, so a decoder that overflowed the C stack would fail this test and
    # not end the test run
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**6 + "]" * 10**6)
    run = subprocess.run([sys.executable, "-m", "entanglekit.cli", "classify", str(path)],
                         capture_output=True, text=True, env=_SUBPROCESS_ENV, timeout=120)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("entanglekit: schema error: $: invalid JSON: maximum recursion")


def _depth(value) -> int:
    """How deep arrays and objects nest in a decoded value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max(map(_depth, value), default=0)
    return 0


@pytest.mark.parametrize(
    "data, depth",
    [(b"", 0), (b"1", 0), (b"[]", 1), (b'{"a": [[1], {"b": []}]}', 4), (b'["]]]]", [[]]]', 3),
     (b'["[[[[", []]', 2), (b'{"a": "}", "b": {"c": "{{{"}}', 2), (b"[[[[", 4), (b'["]]', 1)]
    # multibyte characters next to the brackets and quotes, in strings and out
    + [(t.encode(), d) for t, d in [('["é]]]", [[]]]', 3), ('["[[😀[[", []]', 2),
                                     ('{"é": "}é", "😀": {"c": "{{😀"}}', 2), ('[["é"], ["😀"]]', 2),
                                     ('["]é"]', 1), ("[[é]]", 2), ('["€[["]', 1)]],
)
def test_nesting_depth_counts_brackets_outside_strings(data, depth):
    # Each value, in an ignored field before or after a compact matrix (where
    # the reader seeks the matrix's "mat" key and its closing triple), reads
    # as json reads the file, and orjson is handed flat lists only.
    compact = _compact_density(COMPACT_MAT).encode()
    for file in (b'{"note":' + data + b"," + compact[1:], compact[:-1] + b',"note":' + data + b"}"):
        assert _read_flat(file) == _outcome(_json_only, file)
    with contextlib.suppress(ValueError):  # json refuses the text: no depth to compare
        assert _depth(json.loads(data)) == depth  # the depth counts the brackets outside strings


# A double's repr and its .17g and .25g forms, the exact midpoint between two
# adjacent doubles (which rounds to the even one), and integer literals of
# 19 to 330 digits (beyond 309 digits past the double range).
_doubles = st.floats(allow_nan=False, allow_infinity=False)


def _midpoint(x: float) -> str:
    above = math.nextafter(x, math.inf)
    with decimal.localcontext(decimal.Context(prec=2000)):  # exact: a dyadic rational
        return str((decimal.Decimal(x) + decimal.Decimal(above)) / 2)


decimal_literals = st.one_of(
    st.builds(repr, _doubles),
    st.builds(lambda x: format(x, ".17g"), _doubles),
    st.builds(lambda x: format(x, ".25g"), _doubles),
    _doubles.filter(lambda x: abs(x) < sys.float_info.max).map(_midpoint),
)
integer_literals = st.builds(
    lambda digits, head, rest, sign: sign + str(head) + rest[: digits - 1],
    st.integers(19, 330), st.integers(1, 9), st.text("0123456789", min_size=329, max_size=329),
    st.sampled_from(["", "-"]),
)


@settings(max_examples=1000, deadline=None)
@given(decimal_literals)
def test_orjson_reads_a_decimal_as_float_does(literal):
    import orjson

    value = orjson.loads(literal)
    if isinstance(value, int):  # an integer literal, as .17g writes 1.0 or -0.0
        assert value == int(literal), literal
    else:
        assert value.hex() == float(literal).hex(), literal


@settings(max_examples=1000, deadline=None)
@given(integer_literals)
def test_orjson_reads_an_integer_as_float_of_int_does(literal):
    import orjson

    try:
        expected = float(int(literal))
    except OverflowError:  # past the double range: orjson refuses it, json reads an int
        with pytest.raises(orjson.JSONDecodeError, match="infinity"):
            orjson.loads(literal)
        return
    value = orjson.loads(literal)
    if isinstance(value, int):  # within 64 bits: the exact integer
        assert value == int(literal)
    else:
        assert value.hex() == expected.hex(), literal


INFINITE_AS_A_DOUBLE = [
    ("compact-minus-1e309", "-1e309", "number must be finite, got -inf"),
    ("compact-1.8e308", "1.8e308", "number must be finite, got inf"),
    ("compact-integer-310-digits", "1" * 310, "number does not fit a double: an integer with 310 digits"),
]


@pytest.mark.parametrize("case, literal, message", INFINITE_AS_A_DOUBLE,
                         ids=[c[0] for c in INFINITE_AS_A_DOUBLE])
def test_orjson_refuses_a_number_infinite_as_a_double(case, literal, message):
    # the chunked read checks no number for finiteness: orjson's refusal sends the file to
    # json, whose refusal is a schema error (exit 2); an orjson that returned an infinity
    # would fail here, where otherwise only the density's own check would catch it (exit 3)
    import orjson

    with pytest.raises(orjson.JSONDecodeError, match="infinity"):
        orjson.loads(f"[0.5,{literal}]")
    with pytest.raises(SchemaError) as info:
        loads_state(dict(DECODER_EDGES)[case].encode())
    assert str(info.value) == f"$.mat[0][0][0]: {message}"


# How often each read runs json.loads: once, on the whole file or on the rest
# of a chunk-read density; twice for a density whose chunked read is declined
# after json decoded its rest, since json then judges the whole file.
DECODE_COUNTS = [
    ("valid", _density(GOOD_MAT), None, 1),
    ("valid-compact", _compact_density(COMPACT_MAT), None, 1),
    ("domain-refusal", _density("[[[-0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.5, 0.0]]]"),
     ValueError, 1),
    ("schema-refusal-of-orjsons-tree", '{"type": "pure"}', SchemaError, 1),
    ("schema-refusal-of-an-int-beyond-64-bits", dict(DECODER_EDGES)["dim-2^64"], SchemaError, 1),
    ("schema-refusal-orjson-refused", dict(DECODER_EDGES)["nan"], SchemaError, 1),
    ("invalid-json", "{not json", SchemaError, 1),
    ("too-deep-for-orjson", dict(DECODER_EDGES)["nesting-100-in-an-ignored-field"], None, 1),
    ("density-declined-by-the-skeleton", _density("[[[0.5, true], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]"),
     SchemaError, 1),
    ("density-whose-numbers-orjson-refuses", dict(DECODER_EDGES)["compact-1e400"], SchemaError, 2),
    ("density-whose-rest-json-refuses", _compact_density(COMPACT_MAT) + "x", SchemaError, 2),
]


@pytest.mark.parametrize("text, refusal, count", [c[1:] for c in DECODE_COUNTS],
                         ids=[c[0] for c in DECODE_COUNTS])
def test_json_decodes_only_what_it_judges(text, refusal, count):
    with _decode_calls() as calls:
        if refusal is None:
            loads_state(text.encode())
        else:
            with pytest.raises(refusal) as info:
                loads_state(text.encode())
            assert (type(info.value) is SchemaError) == (refusal is SchemaError)
    assert len(calls.trees) == count
    if count == 2:  # the rest of the file, then the whole file
        assert calls.trees[0] < calls.trees[1] == len(text)


# ---------------------------------------------------------------------------
# a density matrix is read in chunks, each one flat list of numbers


with mock.patch.object(sys, "path", [str(Path(__file__).parents[1] / "perfbench"), *sys.path]):
    _state_text = importlib.import_module("workloads").state_text  # the benchmark's writer


@st.composite
def _compact_densities(draw):
    """A density file, D <= 6, as ``dumps_canonical`` or the benchmark's ``state_text`` writes it."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    ensemble = [(w / sum(weights), PureState(draw(_unit_vectors(n)))) for w in weights]
    rho = mix(MixedEnsemble(tuple(ensemble)))
    if draw(st.booleans()):
        return dumps_canonical(state_to_json(rho))
    return _state_text({"type": "density", "mat": rho.mat})


_SPLICED_LEAVES = ["true", "null", '"0.5"', "1e400", "NaN", "-0", str(2**64), str(-(2**70) - 3),
                   "+0.5", "01", statefile._SLOT]
_SECOND_MATS = ['"mat":[[[1.0,0.0]]]', '"mat":[]', '"mat":1', '"mat":[ [[1.0,0.0]]]']
_MUTATIONS = ["leaf", "ragged-row", "drop-column", "drop-row", "dim+1", "second-mat-first",
              "second-mat-last", "mat-in-a-nested-object", "file-in-an-array",
              "brackets-in-a-later-string", "trailing-data", "space-in-the-matrix",
              "number-beside-a-bracket", "empty-slot", "number-across-its-bracket",
              "escaped-string-field", "slot-spelling"]
# a string field's text with an escape, which json's decode of the rest reads as it reads the file
_ESCAPED_STRINGS = [r'"a\\b"', r'"say \"hi\""', r'"\u0061"']
# the number the reader puts in the matrix's place, as a field's value, in a string, in an array
_SLOT_SPELLINGS = [statefile._SLOT, f'"{statefile._SLOT}"', f"[1,{statefile._SLOT}]"]
# number bytes that would join a neighbouring number if the bracket between them were dropped
_BESIDE_A_BRACKET = ["5", "0", "e0", "E+1", ".5", "-1"]


@st.composite
def _mutated_compact_densities(draw):
    """The bytes of a compact density file with one or two mutations spliced
    into the matrix or after it."""
    head, mat = draw(_compact_densities())[:-1].split('"mat":')
    head, tail = head + '"mat":', "}"
    rows = [row.split("],[") for row in mat[3:-3].split("]],[[")]
    mutations = draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=2, unique=True))
    for mutation in mutations:
        r = draw(st.integers(0, max(len(rows) - 1, 0)))
        if mutation == "leaf" and rows and rows[r]:
            c = draw(st.integers(0, len(rows[r]) - 1))
            pair = rows[r][c].split(",")
            pair[draw(st.integers(0, len(pair) - 1))] = draw(st.sampled_from(_SPLICED_LEAVES))
            rows[r][c] = ",".join(pair)
        elif mutation == "empty-slot" and rows and rows[r]:  # a leaf deleted, or made whitespace
            c = draw(st.integers(0, len(rows[r]) - 1))
            pair = rows[r][c].split(",")
            pair[draw(st.integers(0, len(pair) - 1))] = draw(st.sampled_from(["", " ", "\t\r\n  "]))
            rows[r][c] = ",".join(pair)
        elif mutation == "ragged-row" and rows and rows[r]:
            del rows[r][draw(st.integers(0, len(rows[r]) - 1))]
        elif mutation == "drop-column" and rows and rows[0]:
            for row in rows:
                del row[-1:]
        elif mutation == "drop-row" and rows:
            del rows[r]
        elif mutation == "dim+1":
            head = head.replace(f'"dim":{len(rows)},', f'"dim":{len(rows) + 1},')
        elif mutation == "second-mat-first":
            head = "{" + draw(st.sampled_from(_SECOND_MATS)) + "," + head[1:]
        elif mutation == "second-mat-last":
            tail = "," + draw(st.sampled_from(_SECOND_MATS)) + tail
        elif mutation == "mat-in-a-nested-object":
            head, tail = head.replace('"mat":', '"x":{"mat":'), "}" + tail
        elif mutation == "file-in-an-array":
            head, tail = "[" + head, tail + "]"
        elif mutation == "brackets-in-a-later-string":
            tail = ',"note":"]]]"' + tail
        elif mutation == "trailing-data":
            tail += draw(st.sampled_from([" []", "x", "}", " ", "\n"]))
        elif mutation in ("escaped-string-field", "slot-spelling"):
            values = _ESCAPED_STRINGS if mutation == "escaped-string-field" else _SLOT_SPELLINGS
            field = '"note":' + draw(st.sampled_from(values))
            if draw(st.booleans()):
                head = head[:1] + field + "," + head[1:]
            else:
                tail = "," + field + tail
    mat = "[[[" + "]],[[".join("],[".join(row) for row in rows) + "]]]"
    if "space-in-the-matrix" in mutations:
        at = draw(st.integers(1, len(mat) - 1))
        mat = mat[:at] + " " + mat[at:]
    if "number-beside-a-bracket" in mutations:
        brackets = [k for k, c in enumerate(mat) if c in "[]"]
        inner = brackets[3:-3] or brackets  # a pair's or a row's bracket, which sits between numbers
        at = draw(st.sampled_from(inner)) + draw(st.integers(0, 1))  # before or after it
        mat = mat[:at] + draw(st.sampled_from(_BESIDE_A_BRACKET)) + mat[at:]
    whole_pairs = list(re.finditer(r"\[([^][,]+),([^][,]+)\]", mat))  # "[re,im]"
    if "number-across-its-bracket" in mutations and whole_pairs:  # as "re[,im]" or "[re,]im"
        found = draw(st.sampled_from(whole_pairs))
        re_, im = found.groups()
        moved = draw(st.sampled_from([f"{re_}[,{im}]", f"[{re_},]{im}"]))
        mat = mat[: found.start()] + moved + mat[found.end() :]
    return (head + mat + tail).encode()




# JSON's whitespace, alone and in runs, and the characters a token ends at
_JSON_WHITESPACE = [" ", "\t", "\n", "\r", "\r\n", "\t\r\n  "]
_PUNCTUATION = set("[]{},:")
_NUMBER_CHARS = set("0123456789.eE+-")


@st.composite
def _spaced_densities(draw, mutated=True):
    """A density file in another whitespace layout: ``json.dumps``'s default
    separators, ``indent=2``, or JSON whitespace beside any brackets, braces,
    commas and colons of a compact file.  With ``mutated``, the compact file
    is mutated half the time, and one time in four a whitespace byte is put
    inside a number, which json refuses."""
    layout = draw(st.sampled_from(["dumps", "indent=2", "between-tokens"]))
    if layout != "between-tokens":
        obj = json.loads(draw(_compact_densities()))
        return (json.dumps(obj) if layout == "dumps" else json.dumps(obj, indent=2)).encode()
    compact = _compact_densities().map(str.encode)
    text = draw(_mutated_compact_densities() if mutated and draw(st.booleans()) else compact).decode()
    between = [k for k in range(len(text) + 1) if _PUNCTUATION & set(text[max(k - 1, 0) : k + 1])]
    spaces = [(k, draw(st.sampled_from(_JSON_WHITESPACE)))
              for k in draw(st.lists(st.sampled_from(between), max_size=12))]
    inside = [k for k in range(1, len(text)) if {text[k - 1], text[k]} <= _NUMBER_CHARS]
    if mutated and inside and not draw(st.integers(0, 3)):
        spaces.append((draw(st.sampled_from(inside)), draw(st.sampled_from(_JSON_WHITESPACE))))
    for k, space in sorted(spaces, reverse=True):
        text = text[:k] + space + text[k:]
    return text.encode()


# A chunk of a few dozen bytes: files of many chunks, and numbers longer
# than a chunk, the last one included
_SMALL_CHUNKS = st.integers(1, 96)


@settings(max_examples=300, deadline=None)
@given(_mutated_compact_densities())
def test_a_mutated_compact_density_reads_as_json_reads_it(data):
    assert _read_flat(data) == _outcome(_json_only, data)


@settings(max_examples=300, deadline=None)
@given(_mutated_compact_densities(), _SMALL_CHUNKS)
def test_a_mutated_compact_density_reads_as_json_reads_it_in_small_chunks(data, chunk):
    with mock.patch.object(statefile, "_CHUNK_BYTES", chunk):
        assert _read_flat(data) == _outcome(_json_only, data)


@settings(max_examples=300, deadline=None)
@given(_spaced_densities())
def test_a_spaced_density_reads_as_json_reads_it(data):
    assert _read_flat(data) == _outcome(_json_only, data)


@settings(max_examples=300, deadline=None)
@given(_spaced_densities(), _SMALL_CHUNKS)
def test_a_spaced_density_reads_as_json_reads_it_in_small_chunks(data, chunk):
    with mock.patch.object(statefile, "_CHUNK_BYTES", chunk):
        assert _read_flat(data) == _outcome(_json_only, data)


def _is_flat_list(data: bytes) -> bool:
    return data[:1] == b"[" and b"[" not in data[1:] and b"{" not in data


@contextlib.contextmanager
def _decode_calls():
    """What the decoders are given while it runs: the bytes of each
    ``orjson.loads`` call, each one flat list, the length of each text
    ``json.loads`` decodes, and the number of matrices walked entry by entry."""
    import orjson

    with mock.patch.object(orjson, "loads", wraps=orjson.loads) as numbers, \
            mock.patch.object(statefile.json, "loads", wraps=json.loads) as trees, \
            mock.patch.object(statefile, "_as_cmat", wraps=statefile._as_cmat) as cmat:
        calls = types.SimpleNamespace()
        yield calls
    calls.lists = [bytes(c.args[0]) for c in numbers.call_args_list]
    calls.trees = [len(c.args[0]) for c in trees.call_args_list]
    calls.walks = sum(not isinstance(c.args[0], _HandedOver) for c in cmat.call_args_list)
    assert all(map(_is_flat_list, calls.lists)), calls.lists  # orjson never sees a tree


def _read_flat(data: bytes):
    """``loads_state``'s outcome, with every ``orjson.loads`` call on the way given a flat list."""
    with _decode_calls():
        return _outcome(loads_state, data)


def _assert_read_in_pieces_bit_for_bit(data: bytes) -> None:
    with _decode_calls() as calls:
        outcome = _outcome(loads_state, data)
    assert outcome == _outcome(_json_only, data)
    assert calls.walks == 0 and calls.lists  # orjson read the numbers, and no tree held them
    assert len(calls.trees) == 1 and calls.trees[0] < len(data)  # json decoded only the rest


@settings(max_examples=100, deadline=None)
@given(_compact_densities())
def test_a_compact_density_is_read_row_by_row_bit_for_bit(text):
    _assert_read_in_pieces_bit_for_bit(text.encode())


@settings(max_examples=100, deadline=None)
@given(_compact_densities(), _SMALL_CHUNKS)
def test_a_compact_density_is_read_in_small_chunks_bit_for_bit(text, chunk):
    with mock.patch.object(statefile, "_CHUNK_BYTES", chunk):
        _assert_read_in_pieces_bit_for_bit(text.encode())


@settings(max_examples=100, deadline=None)
@given(_spaced_densities(mutated=False), st.one_of(st.none(), _SMALL_CHUNKS))
def test_a_density_in_any_whitespace_layout_is_read_in_chunks_bit_for_bit(data, chunk):
    with mock.patch.object(statefile, "_CHUNK_BYTES", chunk or statefile._CHUNK_BYTES):
        _assert_read_in_pieces_bit_for_bit(data)


def _density_16() -> bytes:
    rng = np.random.default_rng(16)
    vectors = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    ensemble = [(1 / 3, PureState(v / np.linalg.norm(v))) for v in vectors]
    return dumps_canonical(state_to_json(mix(MixedEnsemble(tuple(ensemble))))).encode()


def test_a_compact_density_of_dimension_16_is_never_decoded_whole():
    data = _density_16()
    mat = data[data.index(b'"mat":') + 6 : -1]
    # one chunk; a few numbers each; runs of rows; one number each
    for chunk in (statefile._CHUNK_BYTES, 48, 2048, 1):
        with mock.patch.object(statefile, "_CHUNK_BYTES", chunk), _decode_calls() as calls:
            state = loads_state(data)
        assert calls.walks == 0
        assert calls.trees == [len(data) - len(mat) + len(statefile._SLOT)]  # the rest, the slot in place
        # orjson is given the matrix's chunks, in order, each one chunk long or one number
        assert b",".join(c[1:-1] for c in calls.lists) == mat.translate(statefile._BRACKETS_TO_WHITESPACE)
        assert all(len(c) - 2 <= chunk or b"," not in c for c in calls.lists)
        assert (len(calls.lists) == 1) == (chunk >= len(mat))
        if chunk == 1:
            assert len(calls.lists) == 16 * 16 * 2
        assert _fingerprint(state) == _fingerprint(_json_only(data))


def test_a_number_longer_than_a_chunk_is_a_chunk_of_its_own():
    half, zero = "0.5" + "0" * 60, "0." + "0" * 60  # the last number is a long one too
    data = _compact_density(f"[[[{half},0.0],[0.0,0.0]],[[0.0,0.0],[{half},{zero}]]]").encode()
    for chunk in (1, 8, 40):
        with mock.patch.object(statefile, "_CHUNK_BYTES", chunk), _decode_calls() as calls:
            outcome = _outcome(loads_state, data)
        assert outcome == _outcome(_json_only, data)
        assert calls.walks == 0 and len(calls.trees) == 1
        assert all(len(c) - 2 <= chunk or b"," not in c for c in calls.lists)
        assert [c[1:-1].strip() for c in calls.lists if len(c) - 2 > chunk][-1] == zero.encode()


def test_a_slot_emptied_at_any_cut_is_refused_as_json_refuses_it():
    # a number moved past its bracket, with the chunks cut at every comma in turn
    for text in ["[[[0.5,0],[0,]0],[[0,0],[0.5,0]]]", "[[[0.5,0],[0,0]],0[[,0],[0.5,0]]]",
                 "[[[0.5,0],[0, ]\n0],[[0,0],[0.5,0]]]"]:
        data = _compact_density(text).encode()
        for chunk in range(1, len(text) + 1):
            with mock.patch.object(statefile, "_CHUNK_BYTES", chunk):
                assert _read_flat(data) == _outcome(_json_only, data), (text, chunk)


def test_an_array_after_the_matrix_keeps_the_chunked_path():
    _assert_read_in_pieces_bit_for_bit((_compact_density(COMPACT_MAT)[:-1] + ',"note":[1,2]}').encode())


def _with_a_note(note: str) -> list:
    """A compact density file with a ``"note"`` field before its matrix, and one with it after."""
    compact = _compact_density(COMPACT_MAT)
    return [('{"note":' + note + "," + compact[1:]).encode(),
            (compact[:-1] + ',"note":' + note + "}").encode()]


@pytest.mark.parametrize("note", [r'"a\\b"', r'"say \"hi\""', r'"a \"mat\" b"', r'"\/\b\f\n\r\t"'],
                         ids=["backslash", "quote", "quoted-mat", "other-escapes"])
def test_a_string_with_escapes_other_than_u_keeps_the_chunked_path(note):
    for data in _with_a_note(note):
        _assert_read_in_pieces_bit_for_bit(data)


# (case, note): json's decode of the rest still holds the slot as its "mat"
_NOTES_BESIDE = [("u-escape", r'"\u00e9"'), ("u-escape-of-a-letter", r'"\u0061"'),
                 ("backslash-then-u-escape", r'"a\\\u0062"'), ("mat-string", '"mat"'),
                 ("mat-strings-in-an-array", '["mat", "mat"]'), ("mat-key-of-a-nested-object", '{"mat": 1}'),
                 ("mat-ending-a-key-with-an-escaped-quote", r'{"x\"mat": 1}')]


@pytest.mark.parametrize("note", [n for _, n in _NOTES_BESIDE], ids=[c for c, _ in _NOTES_BESIDE])
def test_a_note_beside_the_matrix_keeps_the_chunked_path(note):
    for data in _with_a_note(note):
        _assert_read_in_pieces_bit_for_bit(data)


_DECLINED = [  # (case, files): each a valid density or a refusal, read by json whole
    ("slot-spelling-as-a-value", _with_a_note(statefile._SLOT)),
    ("slot-spelling-in-a-string", _with_a_note(f'"x{statefile._SLOT}"')),
    ("slot-spelling-as-the-top-level-mat",  # the matrix is the value of the key x"mat
     [('{"type":"density","dim":2,"x\\"mat":' + COMPACT_MAT + f',"mat":{statefile._SLOT}}}').encode()]),
    ("escaped-mat-after-the-matrix-wins",
     [(_compact_density(COMPACT_MAT)[:-1] + ',"m\\u0061t":5}').encode()]),
    ("matrix-in-a-nested-object", [('{"type":"density","dim":2,"x":{"mat":' + COMPACT_MAT + "}}").encode()]),
]  # a later closing triple: test_a_later_closing_triple_sends_the_file_to_the_whole_tree_path


@pytest.mark.parametrize("files", [f for _, f in _DECLINED], ids=[c for c, _ in _DECLINED])
def test_a_matrix_json_would_not_place_at_the_top_level_mat_is_declined(files):
    for data in files:
        assert statefile._chunked_density(data) is None
        with _decode_calls() as calls:
            outcome = _outcome(loads_state, data)
        assert outcome == _outcome(_json_only, data)
        assert calls.lists == [] and calls.trees[-1] == len(data)  # json judged the whole file


_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.text("0123456789", min_size=1, max_size=120))


@settings(max_examples=200, deadline=None)
@given(st.lists(_NUMBERS, min_size=1, max_size=24), st.sampled_from([",", ", ", ",\n  ", "] ,\t["]),
       _SMALL_CHUNKS)
def test_chunks_are_runs_between_commas(numbers, comma, chunk):
    text = ("[[[" + comma.join(numbers) + "]]]").encode()
    with mock.patch.object(statefile, "_CHUNK_BYTES", chunk):
        runs = list(itertools.islice(statefile._chunks(text, 0, len(text)), len(numbers) + 1))
    # consecutive runs, each after a comma, that give the text back when joined by commas
    assert [a for a, _ in runs] == [0] + [b + 1 for _, b in runs[:-1]]
    assert b",".join(text[a:b] for a, b in runs) == text
    assert all(b - a <= chunk or b"," not in text[a:b] for a, b in runs)  # a chunk, or one number


def test_a_later_closing_triple_sends_the_file_to_the_whole_tree_path():
    data = (_compact_density(COMPACT_MAT)[:-1] + ',"note":"]]]"}').encode()
    with _decode_calls() as calls:
        outcome = _outcome(loads_state, data)
    assert outcome == _outcome(_json_only, data)
    assert (calls.walks, calls.lists, calls.trees) == (1, [], [len(data)])  # json's, and orjson's never


def test_a_compact_density_keeps_the_array_it_was_read_into():
    read = []

    def reader(data):
        tree = chunked_density(data)
        read.append(id(tree["mat"].array))
        return tree

    chunked_density = statefile._chunked_density
    with mock.patch.object(statefile, "_chunked_density", reader):
        rho = loads_state(_density_16())
    assert read == [id(rho.mat)]  # not copied
    assert rho.mat.flags.owndata and not rho.mat.flags.writeable
    refs = sys.getrefcount(rho.mat)  # rho's reference and the call's: no view of it lives
    assert refs == 2


def test_a_walked_density_keeps_the_array_it_was_walked_into():
    walked = []

    def walk(value, loc):
        mat = as_cmat(value, loc)
        walked.append(id(mat))
        return mat

    as_cmat = statefile._as_cmat
    data = _density_16()[:-1] + b',"note":"]]]"}'  # a later closing triple: json's tree, walked
    with mock.patch.object(statefile, "_as_cmat", walk):
        rho = loads_state(data)
    assert walked == [id(rho.mat)]  # not copied
    assert rho.mat.flags.owndata and not rho.mat.flags.writeable
    assert _fingerprint(rho) == _fingerprint(loads_state(_density_16()))


def test_a_pretty_density_is_read_in_chunks():
    _assert_read_in_pieces_bit_for_bit(
        (Path(__file__).parents[1] / "sample_states" / "maximally_mixed.json").read_bytes())


def test_importing_the_cli_and_running_verify_never_load_orjson():
    script = (
        "import contextlib, io, sys\n"
        "import entanglekit.cli\n"
        "print('orjson' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = entanglekit.cli.main(['verify', '--instances', '1'])\n"
        "print(code, 'orjson' in sys.modules)\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_SUBPROCESS_ENV, timeout=120)
    assert (run.stdout, run.stderr) == ("False\n0 False\n", "")


# Exit codes: whatever a state file holds, the CLI ends with 0, 2, 3 or 4.
# Exit 1 means a verification failure, so an escaping exception must not
# reach the interpreter's default handler either.
_VALUES = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2**-0.5, 1 + 1e-9, 1e-300, 1e300])


@st.composite
def _cvec(draw, n):
    """n complex entries as [re, im] pairs, mostly scaled to unit norm."""
    v = draw(st.lists(_VALUES, min_size=2 * n, max_size=2 * n))
    norm = math.hypot(*v)
    if 0.0 < norm < math.inf and draw(st.integers(0, 3)):
        v = [x / norm for x in v]
    return [v[k : k + 2] for k in range(0, 2 * n, 2)]


def _weights(n):
    point = st.integers(0, n - 1).map(lambda k: [float(j == k) for j in range(n)])
    return st.one_of(st.just([1 / n] * n), point, st.lists(_VALUES, min_size=n, max_size=n))


@st.composite
def _well_formed(draw, kind):
    """A state file of the given type whose fields all have the expected shapes."""
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    xs, ys = ["a", "b", "c"][:d1], ["x", "y", "z"][:d2]
    if kind == "classical":
        return {"type": kind, "space": xs, "probs": dict(zip(xs, draw(_weights(d1))))}
    if kind == "classical2":
        points = [[x, y] for x in xs for y in ys]
        probs = [pt + [p] for pt, p in zip(points, draw(_weights(d1 * d2)))]
        return {"type": kind, "spaceX": xs, "spaceY": ys, "probs": probs}
    if kind == "pure":
        return {"type": kind, "vec": draw(_cvec(d1 * d2))}
    if kind == "bipartite":
        return {"type": kind, "dims": [d1, d2], "vec": draw(_cvec(d1 * d2))}
    if kind == "density":
        mat = np.zeros((d1 * d2, d1 * d2), dtype=complex)
        for w in draw(_weights(2)):
            v = np.array([re + 1j * im for re, im in draw(_cvec(d1 * d2))])
            with np.errstate(all="ignore"):  # 1e300 entries overflow into non-finite ones
                mat += w * np.outer(v, v.conj())
        return {"type": kind, "dim": d1 * d2, "mat": np.stack([mat.real, mat.imag], -1).tolist()}
    terms = [{"p": p, "x": draw(_cvec(d1)), "y": draw(_cvec(d2))} for p in draw(_weights(2))]
    return {"type": kind, "dims": [d1, d2], "terms": terms}


@st.composite
def _state_files(draw):
    """Arbitrary JSON, or a state of one of the six types with each field kept,
    taken from another state of that type (of other sizes, mostly),
    replaced by arbitrary JSON, or missing."""
    if draw(st.integers(0, 4)) == 0:
        return draw(payloads)
    kind = draw(st.sampled_from(statefile.STATE_TYPES))
    obj, other = draw(_well_formed(kind)), draw(_well_formed(kind))
    for key in sorted(obj.keys() - {"type"}):
        change = draw(st.sampled_from(["keep"] * 5 + ["other", "arbitrary", "missing"]))
        if change == "other":
            obj[key] = other[key]
        elif change == "arbitrary":
            obj[key] = draw(payloads)
        elif change == "missing":
            del obj[key]
    return obj


EDGE_FILES = [
    b'{"type":"pure","vec":[[1.0,0.0]]}\xff',  # not UTF-8
    b"\xef\xbb\xbf" + _pure(GOOD_VEC).encode(),  # a UTF-8 byte order mark
    _density("[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, NaN]]]").encode(),
    dict(DECODER_EDGES)["lone-surrogate-label"].encode(),
    dict(DECODER_EDGES)["dim-2^64"].encode(),
    dict(DECODER_EDGES)["nesting-1100-in-an-ignored-field"].encode(),
]


@st.composite
def _raw_state_files(draw):
    """The bytes of a drawn state file, or, one time in ten, of an edge file."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(EDGE_FILES))
    return json.dumps(draw(_state_files())).encode()


@settings(max_examples=100, deadline=None)
@given(
    _raw_state_files(),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.sampled_from([[], ["--tol", "0.3"], ["--tol", "2"], ["--tol", "1e-15"]]),
    st.booleans(),
)
def test_every_state_file_ends_in_a_defined_exit_code(raw, dims, tol, as_json):
    runs = [["classify"], ["schmidt"], ["ptrace", "--keep", "1"]]
    argvs = [run + extra for run in runs for extra in ([], ["--dims", *map(str, dims)])]
    argvs.append(["marginal", "--side", "1"])
    for argv in argvs:
        args = [argv[0], "-", *argv[1:], *tol, *(["--json"] if as_json else [])]
        stdin = types.SimpleNamespace(buffer=io.BytesIO(raw))
        with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(args)
                except SystemExit as exc:  # a usage error: a --dims entry of 0
                    code = exc.code
        assert code in (0, 2, 3, 4), (args, raw)
