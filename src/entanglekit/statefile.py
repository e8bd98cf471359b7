"""JSON state files and report serialization.

File formats (complex numbers are [re, im] pairs throughout):

    {"type": "classical",  "space": ["a", "b"], "probs": {"a": 0.3, "b": 0.7}}
    {"type": "classical2", "spaceX": [...], "spaceY": [...],
     "probs": [["a", "c", 0.5], ["b", "d", 0.5]]}
    {"type": "pure",      "vec": [[re, im], ...]}
    {"type": "density",   "dim": 2, "mat": [[[re, im], ...], ...]}
    {"type": "bipartite", "dims": [2, 2], "vec": [[re, im], ...]}
    {"type": "separable", "dims": [2, 2],
     "terms": [{"p": 0.5, "x": [[re, im], ...], "y": [[re, im], ...]}, ...]}

Structural problems raise SchemaError with a JSONPath-style location;
values that parse but violate a state invariant (bad normalization,
negative probability, non-positive matrix) surface as ValueError from the
domain constructors.  Serialization writes floats with 17 significant
digits, so serialize -> parse round-trips are exact.

A complex array takes one of two paths, with the same values, bit for bit,
and the same errors and locations: a density's matrix is read in chunks
where it can be (below), and every other array goes through a per-entry
walk of json's tree, which raises the SchemaError naming the exact
offending element.

Reports carry complex values as the numpy arrays the library holds: the
``*_to_json`` functions pass 1-D complex arrays (a matrix as a list of its
rows), and the writer formats each in one pass from its float view, with
the integral values (and -0.0) sent through ``format_float``.  Lists of
``[re, im]`` pairs are written entry by entry, with the same bytes.

json decodes every tree, and orjson decodes only the numbers of a density
matrix.  A file is decoded by json, after a strict UTF-8 decode, and json is
the contract for every value and every refusal.  The one exception is the
matrix of a ``"mat"`` key, in any JSON whitespace (space, tab, LF, CR): it
ends at the last ``]`` that closes three brackets, and with its number bytes
and whitespace removed it must be exactly the rows x cols x 2 skeleton
``[[[,],...],...]``.  The rest of the file, with the number ``-0E-0`` in the
matrix's place (spelled as no writer spells one), must hold that spelling
once, and json must decode it to an object whose ``"mat"`` is that number:
json's own escapes and last-key rule decide where the matrix sits.  The
matrix text is cut at commas into chunks of about ``_CHUNK_BYTES``; each, its
brackets made whitespace and no slot empty, is decoded by orjson as one flat
list of numbers into a slice of one complex array, which the density keeps,
checked and read-only, without a copy.  No tree of the matrix is built: at
D=1024 it held about 3 M objects and doubled the reading process's peak
memory.  Any file this path declines, at any step (a number orjson refuses
included), is decoded whole by json, so the values and the refusals are
json's; the valid densities it declines hold a later ``]]]`` (in a string,
say), a second top-level ``"mat"`` key, or the slot's spelling elsewhere in
the file.  orjson, which recurses on the C stack without a limit, is never
given a tree.
"""

from __future__ import annotations

import gc
import json
import math
import re
from typing import Any, Optional, Union

import numpy as np

from .bipartite import BipartiteDims, BipartiteVector, SchmidtDecomposition
from .classical import ClassicalSeparableCert, ClassicalState, CompositeClassicalState, PhaseSpace
from .errors import SchemaError
from .linalg import Tolerance
from .quantum import DensityOperator, PureState, _HandedOver
from .separability import (
    Classification,
    EntangledCertificate,
    ProductCertificate,
    RangeReport,
    SeparableCertificate,
    SeparableDecomposition,
)

State = Union[
    ClassicalState,
    CompositeClassicalState,
    PureState,
    DensityOperator,
    BipartiteVector,
    SeparableDecomposition,
]

STATE_TYPES = ("classical", "classical2", "pure", "density", "bipartite", "separable")


# ---------------------------------------------------------------------------
# parsing


def _require(obj: dict, key: str, loc: str) -> Any:
    if key not in obj:
        raise SchemaError(f"missing required field {key!r}", loc)
    return obj[key]


# the JSON type each kind names; a bool is neither an integer nor a number
_KINDS = {"an object": dict, "an array": list, "a string": str, "an integer": int,
          "a number": (int, float)}


def _as(value, kind: str, loc: str):
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
        raise SchemaError(f"expected {kind}, got {type(value).__name__}", loc)
    return value


def _as_number(value, loc: str) -> float:
    try:
        x = float(_as(value, "a number", loc))
    except OverflowError:
        from decimal import Decimal  # at first use: only a refused integer pays its import

        digits = Decimal(value).adjusted() + 1  # str() refuses an integer past 4300 digits
        message = f"number does not fit a double: an integer with {digits} digits"
        raise SchemaError(message, loc) from None
    if not math.isfinite(x):
        raise SchemaError(f"number must be finite, got {value!r}", loc)
    return x


def _as_complex(value, loc: str) -> complex:
    pair = _as(value, "an array", loc)
    if len(pair) != 2:
        raise SchemaError(f"complex entry must be a [re, im] pair, got length {len(pair)}", loc)
    return complex(_as_number(pair[0], f"{loc}[0]"), _as_number(pair[1], f"{loc}[1]"))


def _as_cvec(value, loc: str) -> np.ndarray:
    entries = _as(value, "an array", loc)
    if not entries:
        raise SchemaError("vector must be non-empty", loc)
    return np.array([_as_complex(e, f"{loc}[{k}]") for k, e in enumerate(entries)])


def _as_cmat(value, loc: str) -> np.ndarray:
    if isinstance(value, _HandedOver):  # read in chunks by _chunked_density
        return value.array
    rows = _as(value, "an array", loc)
    if not rows:
        raise SchemaError("matrix must be non-empty", loc)
    parsed = [_as_cvec(row, f"{loc}[{k}]") for k, row in enumerate(rows)]
    width = parsed[0].shape[0]
    for k, row in enumerate(parsed):
        if row.shape[0] != width:
            raise SchemaError(f"row has length {row.shape[0]}, expected {width}", f"{loc}[{k}]")
    return np.array(parsed)


def _as_labels(value, loc: str) -> tuple[str, ...]:
    entries = _as(value, "an array", loc)
    return tuple(_as(e, "a string", f"{loc}[{k}]") for k, e in enumerate(entries))


def _as_dims(value, loc: str) -> BipartiteDims:
    pair = _as(value, "an array", loc)
    if len(pair) != 2:
        raise SchemaError(f"dims must be a [d1, d2] pair, got length {len(pair)}", loc)
    return BipartiteDims(*(_as(d, "an integer", f"{loc}[{k}]") for k, d in enumerate(pair)))


def parse_state(obj, tol: Tolerance = Tolerance()) -> State:
    """Build the domain object described by a decoded JSON payload."""
    obj = _as(obj, "an object", "$")
    kind = _as(_require(obj, "type", "$"), "a string", "$.type")

    if kind == "classical":
        space = PhaseSpace(_as_labels(_require(obj, "space", "$"), "$.space"))
        raw = _as(_require(obj, "probs", "$"), "an object", "$.probs")
        probs = {
            _as(k, "a string", "$.probs"): _as_number(v, f"$.probs.{k}") for k, v in raw.items()
        }
        return ClassicalState(space, probs)

    if kind == "classical2":
        space_x = PhaseSpace(_as_labels(_require(obj, "spaceX", "$"), "$.spaceX"))
        space_y = PhaseSpace(_as_labels(_require(obj, "spaceY", "$"), "$.spaceY"))
        probs: dict[tuple[str, str], float] = {}
        for k, entry in enumerate(_as(_require(obj, "probs", "$"), "an array", "$.probs")):
            eloc = f"$.probs[{k}]"
            triple = _as(entry, "an array", eloc)
            if len(triple) != 3:
                raise SchemaError(f"expected [labelX, labelY, p], got length {len(triple)}", eloc)
            key = tuple(_as(lab, "a string", f"{eloc}[{j}]") for j, lab in enumerate(triple[:2]))
            if key in probs:
                raise SchemaError(f"duplicate point {key!r}", eloc)
            probs[key] = _as_number(triple[2], f"{eloc}[2]")
        return CompositeClassicalState(space_x, space_y, probs)

    if kind == "pure":
        return PureState(_as_cvec(_require(obj, "vec", "$"), "$.vec"), tol)

    if kind == "density":
        dim = _as(_require(obj, "dim", "$"), "an integer", "$.dim")
        mat = _as_cmat(_require(obj, "mat", "$"), "$.mat")
        if mat.shape != (dim, dim):
            raise SchemaError(f"matrix shape {mat.shape} does not match dim {dim}", "$.mat")
        return DensityOperator(_HandedOver(mat), tol)  # a fresh array, held nowhere else

    if kind == "bipartite":
        dims = _as_dims(_require(obj, "dims", "$"), "$.dims")
        vec = _as_cvec(_require(obj, "vec", "$"), "$.vec")
        if vec.shape[0] != dims.total:
            raise SchemaError(f"vector length {vec.shape[0]} does not match dims {dims}", "$.vec")
        return BipartiteVector(vec, dims)

    if kind == "separable":
        dims = _as_dims(_require(obj, "dims", "$"), "$.dims")
        terms = []
        for k, entry in enumerate(_as(_require(obj, "terms", "$"), "an array", "$.terms")):
            eloc = f"$.terms[{k}]"
            entry = _as(entry, "an object", eloc)
            p = _as_number(_require(entry, "p", eloc), f"{eloc}.p")
            x = PureState(_as_cvec(_require(entry, "x", eloc), f"{eloc}.x"), tol)
            y = PureState(_as_cvec(_require(entry, "y", eloc), f"{eloc}.y"), tol)
            terms.append((p, x, y))
        return SeparableDecomposition(dims, tuple(terms))

    raise SchemaError(f"unknown state type {kind!r}; expected one of {STATE_TYPES}", "$.type")


def loads_state(data: bytes, tol: Tolerance = Tolerance()) -> State:
    """Parse a state file from its bytes.

    A density matrix is read by ``_chunked_density`` where it can be; every
    other file, and every one that reader declines, is decoded by json (see
    the module docstring).  ``parse_state`` runs once, so its result or its
    error is the read's.
    The collector stays off while a decoded tree lives, through decoding
    and parsing: the tree has no cycles, and a collection would only walk
    its lists.  Once parsed, the tree is freed, not collected, before the
    caller's collector state comes back.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return parse_state(_chunked_density(data) or _decode(data), tol)  # no name holds the tree
    finally:
        if gc_was_enabled:
            gc.enable()


_SPACES = rb"[ \t\n\r]*"  # JSON's whitespace; \s would take \f and \v as well
# a "mat" key and the three brackets that open its matrix; the group is the first of them
_MAT_START = re.compile(rb'"mat"' + _SPACES + rb":" + _SPACES + rb"(\[)" + (_SPACES + rb"\[") * 2)
# the greedy ".*" backs up from the end of the file to the last "]" that closes three brackets
_MAT_END = re.compile(rb".*\]" + (_SPACES + rb"\]") * 2, re.DOTALL)
_NOT_SKELETON = b"0123456789.eE+- \t\n\r"  # number bytes and JSON whitespace
# The text of about 11,000 numbers.  A chunk's copies and its list of floats
# add to the reading process's peak: 1 MB chunks read D=1024 at 2 MB more.
_CHUNK_BYTES = 1 << 18
# "[" becomes a tab and "]" a newline, whitespace to orjson, so a number byte
# beside a bracket stays its own token, which orjson refuses, and never joins
# the next number; JSON's whitespace becomes spaces, so brackets stay apart.
_BRACKETS_TO_WHITESPACE = bytes.maketrans(b"[] \t\n\r", b"\t\n    ")
# "[," and ",]", so translated, as 16-bit words: a slot with no number, such
# as a number on the wrong side of its bracket leaves ("[0.5,]0,[")
_EMPTY_SLOTS = (int.from_bytes(b"\t,", "little"), int.from_bytes(b",\n", "little"))
# The number put in the matrix's place when json decodes the rest of the file,
# spelled as no writer spells one, and the marker json's parse_float makes of it
_SLOT = "-0E-0"
_IN_THE_SLOT = object()


def _chunked_density(data: bytes) -> Optional[dict]:
    """json's tree of ``data``, with its ``"mat"`` read by orjson into a complex array.

    None, judging nothing, for a file whose matrix is not a skeleton of
    numbers, whose rest json refuses or does not decode with the slot as its
    ``"mat"``, and for one whose numbers orjson refuses or leave a slot empty
    (see the module docstring).
    """
    found = _MAT_START.search(data)
    if found is None:
        return None
    start = found.start(1)
    closed = _MAT_END.match(data, start)
    if closed is None:
        return None
    end = closed.end()
    skeleton = data.translate(None, _NOT_SKELETON)
    head = len(data[:start].translate(None, _NOT_SKELETON))
    tail = len(data[end:].translate(None, _NOT_SKELETON))
    mat = skeleton[head : len(skeleton) - tail]
    cols = mat.find(b"]]") // 4  # "[[" and then "[,]," for each pair but the last, "[,"
    if cols < 1:
        return None
    rows = (len(mat) - 1) // (4 * cols + 2)
    row = b"[" + b"[,]," * (cols - 1) + b"[,]]"
    if mat != b"[" + (row + b",") * (rows - 1) + row + b"]":
        return None

    rest = data[:start] + _SLOT.encode() + data[end:]
    if rest.count(_SLOT.encode()) != 1:  # json must place this one and no other
        return None
    try:
        tree = _decode(rest, parse_float=lambda s: _IN_THE_SLOT if s == _SLOT else float(s))
    except SchemaError:
        return None
    if not isinstance(tree, dict) or tree.get("mat") is not _IN_THE_SLOT:
        return None

    import orjson  # at first use: importing the CLI, or running verify, never loads it

    matrix = np.empty((rows, cols), dtype=complex)
    values = matrix.reshape(-1).view(float)
    filled = 0
    view = memoryview(data)
    for a, b in _chunks(data, start, end):
        # the chunk and the byte on either side, a comma at a cut, where a slot may end
        text = bytearray(view[a - 1 : b + 1]).translate(_BRACKETS_TO_WHITESPACE)
        packed = text.translate(None, b" ") if b" " in text else text
        words = (np.frombuffer(packed, "<u2", (len(packed) - k) // 2, k) for k in (0, 1))
        if any((w == slot).any() for w in words for slot in _EMPTY_SLOTS):  # at both alignments
            return None
        text[0], text[-1] = ord("["), ord("]")
        try:
            numbers = orjson.loads(text)
        except orjson.JSONDecodeError:
            return None
        values[filled : filled + len(numbers)] = numbers  # each as float() converts it
        filled += len(numbers)
    if not np.isfinite(values).all():
        return None
    tree["mat"] = _HandedOver(matrix)  # held nowhere else, so the density keeps it uncopied
    return tree


def _chunks(data: bytes, at: int, stop: int):
    """``(start, stop)`` of the runs between commas that cover ``data[at:stop]``, a matrix's text.

    A run ends at the last comma within ``_CHUNK_BYTES`` of its start; where
    that window holds none (a number longer than a chunk), at the next comma.
    The skeleton check has proved that every comma separates two slots of
    numbers, so no run splits a number, and each step moves past a comma.
    """
    while stop - at > _CHUNK_BYTES:
        cut = data.rfind(b",", at, at + _CHUNK_BYTES)
        if cut < 0:
            cut = data.find(b",", at, stop)
            if cut < 0:  # the last number
                break
        yield at, cut
        at = cut + 1
    yield at, stop


def _decode(data: bytes, parse_float=None):
    try:
        return json.loads(data.decode("utf-8"), parse_float=parse_float)
    except UnicodeDecodeError as exc:  # a parse error, as for any text json refuses
        raise SchemaError(f"invalid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer literal; too deep nesting
        raise SchemaError(f"invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization


def cvec_to_json(v: np.ndarray) -> list[list[float]]:
    v = np.asarray(v, dtype=complex).ravel()
    return np.column_stack((v.real, v.imag)).tolist()


def cmat_to_json(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def state_to_json(state: State) -> dict:
    """Wire representation of any of the six state types."""
    if isinstance(state, ClassicalState):
        return {
            "type": "classical",
            "space": list(state.space.labels),
            "probs": {label: p for label, p in state.probs.items()},
        }
    if isinstance(state, CompositeClassicalState):
        return {
            "type": "classical2",
            "spaceX": list(state.space_x.labels),
            "spaceY": list(state.space_y.labels),
            "probs": [[x, y, p] for (x, y), p in state.probs.items()],
        }
    if isinstance(state, PureState):
        return {"type": "pure", "vec": state.vec}
    if isinstance(state, DensityOperator):
        return {"type": "density", "dim": state.dim, "mat": list(state.mat)}
    if isinstance(state, BipartiteVector):
        return {"type": "bipartite", "dims": [state.dims.d1, state.dims.d2], "vec": state.vec}
    if isinstance(state, SeparableDecomposition):
        return {
            "type": "separable",
            "dims": [state.dims.d1, state.dims.d2],
            "terms": [{"p": p, "x": x.vec, "y": y.vec} for p, x, y in state.terms],
        }
    raise TypeError(f"cannot serialize {type(state).__name__}")


def schmidt_to_json(dec: SchmidtDecomposition) -> dict:
    return {
        "dims": [dec.dims.d1, dec.dims.d2],
        "coeffs": [float(c) for c in dec.coeffs],
        "rank": dec.rank,
        "left": list(dec.left),
        "right": list(dec.right),
    }


def classical_cert_to_json(cert: ClassicalSeparableCert) -> dict:
    return {
        "kind": "classical-decomposition",
        "terms": [
            {"p": p, "x": fx.support[0], "y": gy.support[0]} for p, fx, gy in cert.terms
        ],
    }


def classification_to_json(c: Classification) -> dict:
    """Wire form of a classification: verdict plus a re-checkable certificate."""
    cert = c.certificate
    if isinstance(cert, ProductCertificate):
        payload = {
            "kind": "product-factors",
            "x": cert.x,
            "y": cert.y,
            "schmidt": schmidt_to_json(cert.schmidt),
        }
    elif isinstance(cert, EntangledCertificate):
        payload = {"kind": "schmidt", "schmidt": schmidt_to_json(cert.schmidt)}
    elif isinstance(cert, SeparableCertificate):
        payload = {
            "kind": "decomposition",
            "decomposition": state_to_json(cert.decomposition),
            "range_criterion_passed": cert.range_criterion_passed,
        }
    elif isinstance(cert, RangeReport):
        payload = {
            "kind": "range-report",
            "range_rank": len(cert.basis),
            "basis": list(cert.basis),
            "schmidt_ranks": list(cert.schmidt_ranks),
            "all_elementary": cert.all_elementary,
        }
    elif isinstance(cert, ClassicalSeparableCert):
        payload = classical_cert_to_json(cert)
    else:
        raise TypeError(f"cannot serialize certificate {type(cert).__name__}")
    return {"verdict": c.verdict.value, "certificate": payload}


# ---------------------------------------------------------------------------
# canonical JSON text


def format_float(x: float) -> str:
    """17-significant-digit decimal form; parses back to the same double."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        x = 0.0  # collapse negative zero
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def dumps_canonical(obj, pretty: bool = False) -> str:
    """Serialize to JSON with deterministic float formatting.

    Key order is preserved as given (all producers in this package emit
    keys in a fixed order), so equal payloads serialize to equal bytes.
    """
    pieces: list[str] = []
    _emit(obj, pieces, 0, pretty)
    return "".join(pieces)


def _emit(obj, out: list[str], depth: int, pretty: bool) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        _emit_items(
            [(json.dumps(str(k)) + (": " if pretty else ":"), v) for k, v in obj.items()],
            out,
            "{}",
            depth,
            pretty,
        )
    elif isinstance(obj, (list, tuple)):
        _emit_items([("", v) for v in obj], out, "[]", depth, pretty)
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "c":
        _emit_pairs(np.ascontiguousarray(obj, dtype=complex).view(float), out, depth, pretty)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _emit_items(items, out: list[str], brackets: str, depth: int, pretty: bool) -> None:
    if not items:
        out.append(brackets)
        return
    open_b, close_b = brackets
    out.append(open_b)
    pad = "  " * (depth + 1) if pretty else ""
    for k, (prefix, value) in enumerate(items):
        if k:
            out.append(",")
        if pretty:
            out.append("\n" + pad)
        out.append(prefix)
        _emit(value, out, depth + 1, pretty)
    if pretty:
        out.append("\n" + "  " * depth)
    out.append(close_b)


def _emit_pairs(values: np.ndarray, out: list[str], depth: int, pretty: bool) -> None:
    """Emit the ``[re, im]`` pairs whose floats, in order, are ``values``.

    The text equals what ``_emit`` writes for the same pairs as lists, entry
    by entry: ``%.17g`` for every float, in one format call, and
    ``format_float`` for the integral ones (which get a ".0" or collapse
    -0.0) and the non-finite ones (which it rejects).
    """
    if not values.size:
        out.append("[]")
        return
    leaves = values.tolist()
    text = (",".join(["%.17g"] * len(leaves)) % tuple(leaves)).split(",")
    for k in np.flatnonzero(~np.isfinite(values) | (values == np.floor(values))).tolist():
        text[k] = format_float(leaves[k])
    if pretty:
        pad0, pad1, pad2 = ("  " * (depth + i) for i in range(3))
        pair, close = f"\n{pad1}[\n{pad2}%s,\n{pad2}%s\n{pad1}]", f"\n{pad0}]"
    else:
        pair, close = "[%s,%s]", "]"
    out.append(("[" + ",".join([pair] * (len(text) // 2)) + close) % tuple(text))
