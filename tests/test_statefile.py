"""State-file schemas, canonical serialization, and round trips."""

import json

import numpy as np
import pytest

from entanglekit.bipartite import BipartiteDims, BipartiteVector
from entanglekit.classical import ClassicalState, CompositeClassicalState, PhaseSpace
from entanglekit.errors import SchemaError
from entanglekit.linalg import Tolerance
from entanglekit.quantum import DensityOperator, PureState
from entanglekit.separability import SeparableDecomposition, Verdict, classify
from entanglekit.statefile import (
    classification_to_json,
    dumps_canonical,
    format_float,
    loads_state,
    parse_state,
    state_to_json,
)

S = 1 / np.sqrt(2)

SAMPLES = {
    "classical": {"type": "classical", "space": ["a", "b"], "probs": {"a": 0.3, "b": 0.7}},
    "classical2": {
        "type": "classical2",
        "spaceX": ["a", "b"],
        "spaceY": ["c", "d"],
        "probs": [["a", "c", 0.5], ["b", "d", 0.5]],
    },
    "pure": {"type": "pure", "vec": [[S, 0.0], [S, 0.0]]},
    "density": {
        "type": "density",
        "dim": 2,
        "mat": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
    },
    "bipartite": {
        "type": "bipartite",
        "dims": [2, 2],
        "vec": [[S, 0.0], [0.0, 0.0], [0.0, 0.0], [S, 0.0]],
    },
    "separable": {
        "type": "separable",
        "dims": [2, 2],
        "terms": [
            {"p": 0.5, "x": [[1.0, 0.0], [0.0, 0.0]], "y": [[1.0, 0.0], [0.0, 0.0]]},
            {"p": 0.5, "x": [[0.0, 0.0], [1.0, 0.0]], "y": [[0.0, 0.0], [1.0, 0.0]]},
        ],
    },
}

EXPECTED_TYPES = {
    "classical": ClassicalState,
    "classical2": CompositeClassicalState,
    "pure": PureState,
    "density": DensityOperator,
    "bipartite": BipartiteVector,
    "separable": SeparableDecomposition,
}


class TestParse:
    @pytest.mark.parametrize("kind", sorted(SAMPLES))
    def test_each_schema_parses_to_its_type(self, kind):
        state = parse_state(SAMPLES[kind])
        assert isinstance(state, EXPECTED_TYPES[kind])

    def test_classical_values(self):
        state = parse_state(SAMPLES["classical"])
        assert state.probs == {"a": 0.3, "b": 0.7}

    def test_bipartite_values(self):
        state = parse_state(SAMPLES["bipartite"])
        assert state.dims == BipartiteDims(2, 2)
        np.testing.assert_allclose(state.vec, [S, 0, 0, S], atol=0)

    def test_loads_from_text(self):
        state = loads_state(json.dumps(SAMPLES["density"]).encode())
        assert state.dim == 2


class TestSchemaErrors:
    def test_unknown_type_reports_location(self):
        with pytest.raises(SchemaError, match=r"\$\.type"):
            parse_state({"type": "wavefunction"})

    def test_missing_field(self):
        with pytest.raises(SchemaError, match="missing required field 'vec'"):
            parse_state({"type": "pure"})

    def test_bad_complex_pair_reports_exact_index(self):
        with pytest.raises(SchemaError, match=r"\$\.vec\[1\]"):
            parse_state({"type": "pure", "vec": [[1.0, 0.0], [1.0]]})

    def test_bad_probability_entry(self):
        bad = dict(SAMPLES["classical2"], probs=[["a", "c", 0.5], ["b", "d"]])
        with pytest.raises(SchemaError, match=r"\$\.probs\[1\]"):
            parse_state(bad)

    def test_duplicate_point_rejected(self):
        bad = dict(SAMPLES["classical2"], probs=[["a", "c", 0.5], ["a", "c", 0.5]])
        with pytest.raises(SchemaError, match="duplicate"):
            parse_state(bad)

    def test_shape_mismatch(self):
        bad = dict(SAMPLES["density"], dim=3)
        with pytest.raises(SchemaError, match="does not match dim"):
            parse_state(bad)

    def test_non_finite_number_rejected(self):
        with pytest.raises(SchemaError, match="finite"):
            parse_state({"type": "pure", "vec": [[float("inf"), 0.0], [0.0, 0.0]]})

    def test_invalid_json_reports_position(self):
        with pytest.raises(SchemaError, match="line 1"):
            loads_state(b"{not json")


class TestInvariantErrors:
    def test_non_normalized_pure_is_a_value_error(self):
        bad = {"type": "pure", "vec": [[0.7071, 0.0], [0.7071, 0.0]]}
        with pytest.raises(ValueError, match="unit norm"):
            parse_state(bad)

    def test_loose_tolerance_accepts_it(self):
        bad = {"type": "pure", "vec": [[0.7071, 0.0], [0.7071, 0.0]]}
        assert isinstance(parse_state(bad, Tolerance(1e-3)), PureState)

    def test_bad_probability_sum_is_a_value_error(self):
        bad = {"type": "classical", "space": ["a", "b"], "probs": {"a": 0.5, "b": 0.4}}
        with pytest.raises(ValueError, match="sum to 1"):
            parse_state(bad)

    def test_non_positive_density_is_a_value_error(self):
        bad = {
            "type": "density",
            "dim": 2,
            "mat": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
        }
        with pytest.raises(ValueError, match="positive"):
            parse_state(bad)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", sorted(SAMPLES))
    def test_serialize_parse_serialize_is_stable(self, kind):
        first = dumps_canonical(state_to_json(parse_state(SAMPLES[kind])))
        second = dumps_canonical(state_to_json(loads_state(first.encode())))
        assert first == second

    def test_awkward_floats_survive(self):
        probs = {"a": 0.1, "b": 1 / 3, "c": 1 - 0.1 - 1 / 3}
        state = ClassicalState(PhaseSpace(("a", "b", "c")), probs)
        text = dumps_canonical(state_to_json(state))
        rebuilt = loads_state(text.encode())
        assert rebuilt.probs == state.probs


class TestCanonicalText:
    def test_float_formatting_round_trips(self):
        for x in (0.1, 1 / 3, 1e-300, 2.0, -0.25, 1e-9, np.pi):
            assert float(format_float(x)) == x

    def test_negative_zero_collapses(self):
        assert format_float(-0.0) == "0.0"

    def test_whole_floats_keep_a_decimal_point(self):
        assert format_float(2.0) == "2.0"

    def test_ints_and_bools_and_none(self):
        assert dumps_canonical({"n": 3, "b": True, "x": None}) == '{"n":3,"b":true,"x":null}'

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            dumps_canonical({"x": float("nan")})

    def test_pretty_output_parses_identically(self):
        payload = state_to_json(parse_state(SAMPLES["separable"]))
        compact = dumps_canonical(payload)
        pretty = dumps_canonical(payload, pretty=True)
        assert json.loads(compact) == json.loads(pretty)


class TestClassificationJson:
    def test_entangled_report_shape(self):
        state = parse_state(SAMPLES["bipartite"])
        report = classification_to_json(classify(state))
        assert report["verdict"] == Verdict.QUANTUM_ENTANGLED_PURE.value
        assert report["certificate"]["kind"] == "schmidt"
        assert report["certificate"]["schmidt"]["rank"] == 2

    def test_separable_report_embeds_the_decomposition(self):
        state = parse_state(SAMPLES["separable"])
        report = classification_to_json(classify(state))
        assert report["verdict"] == Verdict.QUANTUM_SEPARABLE_BY_CONSTRUCTION.value
        embedded = report["certificate"]["decomposition"]
        assert isinstance(loads_state(dumps_canonical(embedded).encode()), SeparableDecomposition)

    def test_range_report_for_undetermined(self):
        state = parse_state(
            {
                "type": "density",
                "dim": 4,
                "mat": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
            }
        )
        report = classification_to_json(classify(state, dims=BipartiteDims(2, 2)))
        assert report["verdict"] == Verdict.UNDETERMINED.value
        assert report["certificate"]["range_rank"] == 4
