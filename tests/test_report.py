"""Canonical JSON writer: strict output, bit-exact floats, stable bytes."""

import json
import math
import random
import struct

import pytest

from bci.cli import main
from bci.report import dumps_canonical


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name!r}")


def strict_loads(text):
    """json.loads that refuses the NaN / Infinity extensions."""
    return json.loads(text, parse_constant=_reject_constant)


def bits(x):
    return struct.pack("<d", x)


class TestFloats:
    EDGE = [
        0.0,
        -0.0,
        0.3,
        1e-12,
        5e-324,
        -5e-324,
        2.2250738585072009e-308,  # largest subnormal
        1e-310,
        2.2250738585072014e-308,  # smallest normal
        1.7976931348623157e308,
        -1.7976931348623157e308,
        1.0,
        2.0**53,
        2.0**53 + 2.0,
    ]

    def test_edge_values_round_trip_bit_for_bit(self):
        back = strict_loads(dumps_canonical(self.EDGE))
        assert [bits(x) for x in back] == [bits(x) for x in self.EDGE]
        assert all(isinstance(x, float) for x in back)

    def test_random_doubles_round_trip_bit_for_bit(self):
        rng = random.Random(20261018)
        values = []
        while len(values) < 1000:
            x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if math.isfinite(x):
                values.append(x)
        back = strict_loads(dumps_canonical(values))
        assert [bits(x) for x in back] == [bits(x) for x in values]

    def test_shortest_repr_spelling(self):
        assert dumps_canonical([0.3, 1e-12, 2.0, -0.0]) == "[0.3,1e-12,2.0,-0.0]"

    def test_non_finite_values_become_strings(self):
        doc = {"a": float("nan"), "b": [float("inf"), (1.5, -float("inf"))], "c": 2.5}
        text = dumps_canonical(doc)
        assert text == '{"a":"NaN","b":["Infinity",[1.5,"-Infinity"]],"c":2.5}'
        assert strict_loads(text) == {"a": "NaN", "b": ["Infinity", [1.5, "-Infinity"]], "c": 2.5}

    def test_bare_nan_scalar(self):
        assert dumps_canonical(float("nan")) == '"NaN"'
        strict_loads(dumps_canonical(float("nan")))


class TestStructure:
    def test_insertion_order_and_compact_separators(self):
        doc = {"z": 1, "a": [True, False, None], "m": {"y": "s", "b": 0}}
        assert dumps_canonical(doc) == '{"z":1,"a":[true,false,null],"m":{"y":"s","b":0}}'

    def test_tuples_encode_as_lists(self):
        assert dumps_canonical({"v": (1.0, (2, "x"))}) == '{"v":[1.0,[2,"x"]]}'

    def test_string_escapes_parse_back(self):
        s = 'quote" back\\slash \n tab\t \x01 café'
        assert strict_loads(dumps_canonical({"s": s})) == {"s": s}

    @pytest.mark.parametrize("bad", [object(), {1j: 1.0}, [1j], {"k": {1, 2}}])
    def test_unserialisable_raises_type_error(self, bad):
        with pytest.raises(TypeError):
            dumps_canonical(bad)

    def test_unserialisable_beside_non_finite_raises_type_error(self):
        with pytest.raises(TypeError):
            dumps_canonical([float("nan"), object()])


class TestCliBytes:
    """The CLI's stdout is strict JSON and a fixed point of parse + write."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--alpha", "0.4,0.2", "--beta", "0.7,-0.1", "--theta", "2pi/3"],
            ["eval", "--alpha", "2,0", "--beta", "0.5,0", "--theta", "pi",
             "--methods", "theorem,quadrature,rational:1/2"],
            ["verify", "--seed", "42"],
            ["sweep", "--alpha-mod", "0.5,2", "--alpha-arg", "0.3", "--beta", "0.5", "--theta", "pi"],
        ],
    )
    def test_stdout_is_canonical_strict_json(self, argv, capsys):
        main(argv)
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines and out.endswith("\n")
        for line in lines:
            assert dumps_canonical(strict_loads(line)) == line


class TestVerdict:
    def test_non_finite_gap_never_agrees(self, monkeypatch):
        import bci.report
        from bci import METHOD_CLOSED_FORM, MethodResult, ProblemInstance, evaluate_instance

        def nan_value(inst):
            return MethodResult(complex(math.nan, 0.0), METHOD_CLOSED_FORM, 0.0, {})

        monkeypatch.setattr(bci.report, "eval_closed_form", nan_value)
        report = evaluate_instance(ProblemInstance(alpha=0.3, beta=0.5, theta=2.0))
        assert report.verdict == "Disagree"
        assert report.max_disagreement == math.inf
        # alone, with nothing to disagree with, it is not vouched for either
        alone = evaluate_instance(ProblemInstance(alpha=0.3, beta=0.5, theta=2.0), methods=[METHOD_CLOSED_FORM])
        assert alone.verdict == "Uncertified"
