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

Complex arrays are read in bulk, and a per-entry walk behind the bulk path
defines the contract.  A vector or matrix fills one float array in a single
pass when it is a rectangular array of ``[re, im]`` pairs of finite JSON
numbers (no booleans); anything else goes to the walk, which raises the
SchemaError naming the exact offending element.  Both give the same values,
bit for bit, and the same errors.

Reports carry complex values as the numpy arrays the library holds: the
``*_to_json`` functions pass 1-D complex arrays (a matrix as a list of its
rows), and the writer formats each in one pass from its float view, with
the integral values (and -0.0) sent through ``format_float``.  Lists of
``[re, im]`` pairs are written entry by entry, with the same bytes.

A file's bytes go to orjson undecoded; only the ``json`` fallback decodes
UTF-8 (strictly), and json is the contract for every refusal.  orjson is given
only files without backslashes that nest at most ``_FAST_MAX_DEPTH`` deep: it
recurses on the C stack without a limit, so a deeper file could overflow that
stack or decode where json stops at the interpreter's recursion limit.
Whatever orjson refuses, and every tree of its that ``parse_state`` refuses
with a SchemaError, json decodes again, and that parse gives the result or the
error.  The one difference between the two decoders' trees is that an integer
literal outside 64 bits comes back from orjson as a float of equal value, so
``"dim": 18446744073709551616`` would otherwise be refused as a float.  A
domain ValueError is never re-run: the values are the same.

A density matrix written compactly, ``"mat":[[[re,im],...],...]`` with no
whitespace (as ``dumps_canonical`` writes it), is read in chunks of whole
rows, and no tree of the whole file or of the matrix is built: at D=1024 the
tree held about 3 M objects and doubled the reading process's peak memory.
The matrix's end is the file's last ``]]]``.  With its number bytes
removed, the matrix text must be exactly the rows x cols x 2 skeleton
``[[[,],...],...]``, so it holds only numbers, and a later ``]]]`` (say in
a string) fails this check.  The rest of the file, with ``[]`` in the
matrix's place, is decoded by orjson (after the same depth check) and must
hold that ``[]`` as its one ``"mat"``.  The rows are cut into chunks of
about ``_CHUNK_BYTES`` (a longer row is a chunk of its own); each chunk,
with each bracket made a space, is decoded by orjson as one flat list of
numbers, which fills a slice of one complex array.  The density keeps that
array, checked and made read-only, without a copy.  Any other file, and
one whose numbers orjson refuses, takes the whole-tree path, so the values
are bit for bit those of the whole tree and the refusals are json's.
"""

from __future__ import annotations

import gc
import json
import math
from itertools import chain
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


def _as_dict(value, loc: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"expected an object, got {type(value).__name__}", loc)
    return value


def _as_list(value, loc: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"expected an array, got {type(value).__name__}", loc)
    return value


def _as_str(value, loc: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"expected a string, got {type(value).__name__}", loc)
    return value


def _as_number(value, loc: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"expected a number, got {type(value).__name__}", loc)
    try:
        x = float(value)
    except OverflowError:
        message = f"number does not fit a double: an integer with {len(str(abs(value)))} digits"
        raise SchemaError(message, loc) from None
    if not math.isfinite(x):
        raise SchemaError(f"number must be finite, got {value!r}", loc)
    return x


def _as_int(value, loc: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected an integer, got {type(value).__name__}", loc)
    return value


def _as_complex(value, loc: str) -> complex:
    pair = _as_list(value, loc)
    if len(pair) != 2:
        raise SchemaError(f"complex entry must be a [re, im] pair, got length {len(pair)}", loc)
    return complex(_as_number(pair[0], f"{loc}[0]"), _as_number(pair[1], f"{loc}[1]"))


def _walk_cvec(value, loc: str) -> np.ndarray:
    entries = _as_list(value, loc)
    if not entries:
        raise SchemaError("vector must be non-empty", loc)
    return np.array([_as_complex(e, f"{loc}[{k}]") for k, e in enumerate(entries)])


def _walk_cmat(value, loc: str) -> np.ndarray:
    rows = _as_list(value, loc)
    if not rows:
        raise SchemaError("matrix must be non-empty", loc)
    parsed = [_walk_cvec(row, f"{loc}[{k}]") for k, row in enumerate(rows)]
    width = parsed[0].shape[0]
    for k, row in enumerate(parsed):
        if row.shape[0] != width:
            raise SchemaError(f"row has length {row.shape[0]}, expected {width}", f"{loc}[{k}]")
    return np.array(parsed)


def _nested(value: list, depth: int):
    """Iterator over the items of ``value`` at nesting ``depth``: its own at 0, theirs at 1."""
    items = iter(value)
    for _ in range(depth):
        items = chain.from_iterable(items)
    return items


def _fast_complex(value, ndim: int) -> Optional[np.ndarray]:
    """Convert a well-formed ``ndim``-D array of ``[re, im]`` pairs without the per-entry walk.

    Returns None, judging nothing, unless ``value`` is a non-empty
    rectangular array of JSON numbers that are finite as doubles; the
    per-entry walk then reports the error.  The shape is read level by
    level, the leaf types are checked (a boolean is no number here), and
    the leaves fill one float array, so no nested-list discovery runs.
    ``np.fromiter`` converts an integer leaf exactly as ``float()`` does,
    and raises the same ``OverflowError`` past the double range.
    """
    if not isinstance(value, list):
        return None
    shape = [len(value)]
    for depth in range(ndim):
        if set(map(type, _nested(value, depth))) != {list}:
            return None
        lengths = set(map(len, _nested(value, depth)))
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape += lengths
    if shape[-1] != 2:
        return None
    if not set(map(type, _nested(value, ndim))) <= {float, int}:
        return None
    try:
        arr = np.fromiter(_nested(value, ndim), dtype=float, count=math.prod(shape))
    except OverflowError:
        return None
    if not np.isfinite(arr).all():
        return None
    return arr.reshape(shape).view(complex)[..., 0]  # reinterpreted, not computed: signed zeros survive


def _as_cvec(value, loc: str) -> np.ndarray:
    fast = _fast_complex(value, 1)
    return fast if fast is not None else _walk_cvec(value, loc)


def _as_cmat(value, loc: str) -> np.ndarray:
    if isinstance(value, _HandedOver):  # read in chunks of rows from a compact file
        return value.array
    fast = _fast_complex(value, 2)
    return fast if fast is not None else _walk_cmat(value, loc)


def _as_labels(value, loc: str) -> tuple[str, ...]:
    entries = _as_list(value, loc)
    return tuple(_as_str(e, f"{loc}[{k}]") for k, e in enumerate(entries))


def _as_dims(value, loc: str) -> BipartiteDims:
    pair = _as_list(value, loc)
    if len(pair) != 2:
        raise SchemaError(f"dims must be a [d1, d2] pair, got length {len(pair)}", loc)
    return BipartiteDims(_as_int(pair[0], f"{loc}[0]"), _as_int(pair[1], f"{loc}[1]"))


def parse_state(obj, tol: Tolerance = Tolerance(), loc: str = "$") -> State:
    """Build the domain object described by a decoded JSON payload."""
    obj = _as_dict(obj, loc)
    kind = _as_str(_require(obj, "type", loc), f"{loc}.type")

    if kind == "classical":
        space = PhaseSpace(_as_labels(_require(obj, "space", loc), f"{loc}.space"))
        raw = _as_dict(_require(obj, "probs", loc), f"{loc}.probs")
        probs = {
            _as_str(k, f"{loc}.probs"): _as_number(v, f"{loc}.probs.{k}") for k, v in raw.items()
        }
        return ClassicalState(space, probs)

    if kind == "classical2":
        space_x = PhaseSpace(_as_labels(_require(obj, "spaceX", loc), f"{loc}.spaceX"))
        space_y = PhaseSpace(_as_labels(_require(obj, "spaceY", loc), f"{loc}.spaceY"))
        probs: dict[tuple[str, str], float] = {}
        for k, entry in enumerate(_as_list(_require(obj, "probs", loc), f"{loc}.probs")):
            eloc = f"{loc}.probs[{k}]"
            triple = _as_list(entry, eloc)
            if len(triple) != 3:
                raise SchemaError(f"expected [labelX, labelY, p], got length {len(triple)}", eloc)
            key = (_as_str(triple[0], f"{eloc}[0]"), _as_str(triple[1], f"{eloc}[1]"))
            if key in probs:
                raise SchemaError(f"duplicate point {key!r}", eloc)
            probs[key] = _as_number(triple[2], f"{eloc}[2]")
        return CompositeClassicalState(space_x, space_y, probs)

    if kind == "pure":
        return PureState(_as_cvec(_require(obj, "vec", loc), f"{loc}.vec"), tol)

    if kind == "density":
        dim = _as_int(_require(obj, "dim", loc), f"{loc}.dim")
        raw = _require(obj, "mat", loc)
        mat = _as_cmat(raw, f"{loc}.mat")
        if mat.shape != (dim, dim):
            raise SchemaError(f"matrix shape {mat.shape} does not match dim {dim}", f"{loc}.mat")
        return DensityOperator(raw if isinstance(raw, _HandedOver) else mat, tol)

    if kind == "bipartite":
        dims = _as_dims(_require(obj, "dims", loc), f"{loc}.dims")
        vec = _as_cvec(_require(obj, "vec", loc), f"{loc}.vec")
        if vec.shape[0] != dims.total:
            raise SchemaError(f"vector length {vec.shape[0]} does not match dims {dims}", f"{loc}.vec")
        return BipartiteVector(vec, dims)

    if kind == "separable":
        dims = _as_dims(_require(obj, "dims", loc), f"{loc}.dims")
        terms = []
        for k, entry in enumerate(_as_list(_require(obj, "terms", loc), f"{loc}.terms")):
            eloc = f"{loc}.terms[{k}]"
            entry = _as_dict(entry, eloc)
            p = _as_number(_require(entry, "p", eloc), f"{eloc}.p")
            x = PureState(_as_cvec(_require(entry, "x", eloc), f"{eloc}.x"), tol)
            y = PureState(_as_cvec(_require(entry, "y", eloc), f"{eloc}.y"), tol)
            terms.append((p, x, y))
        return SeparableDecomposition(dims, tuple(terms))

    raise SchemaError(f"unknown state type {kind!r}; expected one of {STATE_TYPES}", f"{loc}.type")


def loads_state(data: bytes, tol: Tolerance = Tolerance()) -> State:
    """Parse a state file from its bytes.

    orjson's tree, with a compact matrix read in chunks of rows, is parsed first;
    a SchemaError on that path, from the decode or the parse, hands the
    bytes to json (see the module docstring).
    The collector stays off while a decoded tree lives, through decoding
    and parsing: the tree has no cycles, and a collection would only walk
    its lists.  Once parsed, the tree is freed, not collected, before the
    caller's collector state comes back.  A refusal's traceback would keep
    the parsing frames, and the tree in their locals, alive; those frames
    are cleared before it propagates.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            return parse_state(_fast_decode(data), tol)  # no name holds the tree
        except SchemaError:
            pass  # leaving the handler frees orjson's tree; json judges the file
        return parse_state(_decode(data), tol)
    except ValueError as exc:  # a refusal
        tb = exc.__traceback__.tb_next  # the frames below this one, which is still running
        while tb is not None:
            tb.tb_frame.clear()
            tb = tb.tb_next
        raise
    finally:
        if gc_was_enabled:
            gc.enable()


# A state file nests 5 deep.  orjson 3.8 overflows the C stack on a
# million nested arrays, and json refuses about 1000 (the recursion limit).
_FAST_MAX_DEPTH = 64
_NOT_STRUCTURAL = bytes(sorted(set(range(256)) - set(b'[]{}"')))
_DEPTH_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")  # +1 and -1 as int8; quotes stay


def _nesting_depth(data: bytes) -> int:
    """How deep arrays and objects nest in ``data``, which holds no backslash.

    A byte scan is exact: no ASCII byte occurs inside a UTF-8 multibyte
    sequence.  Without escapes every ``"`` opens or closes a string, so the
    brackets outside strings are those after an even number of quotes.  For
    bytes that are not JSON this bounds the depth of their longest valid prefix.
    """
    marks = data.translate(_DEPTH_STEPS, _NOT_STRUCTURAL)
    steps = np.frombuffer(b"".join(marks.split(b'"')[::2]), dtype=np.int8)  # outside strings
    return int(steps.cumsum(dtype=np.int32).max(initial=0))


def _fast_decode(data: bytes):
    """orjson's tree of ``data``; SchemaError when json is to judge the file.

    A compact density matrix is read in chunks of rows (``_compact_density``);
    every other file, and one whose numbers are refused, is decoded whole.
    """
    if b"\\" in data:
        raise SchemaError("escapes: decoded by json")
    import orjson  # at first use: importing the CLI, or running verify, never loads it

    tree = _compact_density(data, orjson)
    if tree is not None:
        return tree
    if _nesting_depth(data) > _FAST_MAX_DEPTH:
        raise SchemaError("deep nesting: decoded by json")
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        raise SchemaError("refused by orjson: decoded by json") from None


_NUMBER_BYTES = b"0123456789.eE+-"
_COMPACT_MAT = b'"mat":[[['
_CHUNK_BYTES = 1 << 20  # the text of about 50,000 numbers
# A bracket becomes a space, not nothing, so a number byte beside it stays
# its own token, which orjson refuses, and never joins the next number.
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")


def _compact_density(data: bytes, orjson) -> Optional[dict]:
    """orjson's tree of ``data`` with a compact ``"mat"`` read into a complex array.

    None, judging nothing, for a file not in that layout (see the module
    docstring) and for one whose numbers orjson refuses.  No tree of the
    matrix is built: each chunk of whole rows, its brackets made spaces, is
    decoded as one flat list of numbers, which fills a slice of the array.
    """
    start = data.find(_COMPACT_MAT)
    if start < 0:
        return None
    start += len(_COMPACT_MAT) - 3  # at the matrix's first "["
    end = data.rfind(b"]]]", start) + 3  # the skeleton check proves this "]]]" ends the matrix
    if end < 3:
        return None
    skeleton = data.translate(None, _NUMBER_BYTES)
    head = len(data[:start].translate(None, _NUMBER_BYTES))
    tail = len(data[end:].translate(None, _NUMBER_BYTES))
    mat = skeleton[head : len(skeleton) - tail]
    cols = mat.find(b"]]") // 4  # "[[" and then "[,]," for each pair but the last, "[,"
    if cols < 1:
        return None
    rows = (len(mat) - 1) // (4 * cols + 2)
    row = b"[" + b"[,]," * (cols - 1) + b"[,]]"
    if mat != b"[" + (row + b",") * (rows - 1) + row + b"]":
        return None

    rest = data[:start] + b"[]" + data[end:]
    if rest.count(b'"mat"') != 1 or _nesting_depth(rest) > _FAST_MAX_DEPTH:
        return None
    try:
        tree = orjson.loads(rest)
    except orjson.JSONDecodeError:
        return None
    if not isinstance(tree, dict) or tree.get("mat") != []:
        return None

    matrix = np.empty((rows, cols), dtype=complex)
    values = matrix.reshape(-1).view(float)
    filled = 0
    for a, b in _row_chunks(data, start + 1, end - 1):
        try:
            numbers = orjson.loads(b"[" + data[a:b].translate(_BRACKETS_TO_SPACES) + b"]")
        except orjson.JSONDecodeError:
            return None
        values[filled : filled + len(numbers)] = numbers  # each as float() converts it
        filled += len(numbers)
    if not np.isfinite(values).all():
        return None
    tree["mat"] = _HandedOver(matrix)  # held nowhere else, so the density keeps it uncopied
    return tree


def _row_chunks(data: bytes, at: int, stop: int):
    """``(start, stop)`` of runs of whole rows that cover ``data[at:stop]``, a compact matrix's rows.

    A run ends at the last ``]],`` within ``_CHUNK_BYTES`` of its start; a row
    longer than that is a run of its own.  The skeleton check has proved
    that ``]],`` occurs only between rows, so each run holds whole rows, at
    least one, and the loop ends.
    """
    while stop - at > _CHUNK_BYTES:
        cut = data.rfind(b"]],", at, at + _CHUNK_BYTES)
        if cut < 0:  # the row at ``at`` is longer than a chunk
            cut = data.find(b"]],", at, stop)
            if cut < 0:  # and it is the last
                break
        yield at, cut + 2
        at = cut + 3
    yield at, stop


def _decode(data: bytes):
    try:
        return json.loads(data.decode("utf-8"))
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
