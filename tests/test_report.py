"""Canonical JSON writer: strict output, bit-exact floats, stable bytes; and
the contract of the records a report is built from."""

import cmath
import copy
import json
import math
import pickle
import random
import struct
from pathlib import Path

import pytest

from bci import (
    EvaluationReport,
    IntegerBeta,
    MethodFailure,
    MethodResult,
    OdeCoefficients,
    OdeResidual,
    ProblemInstance,
    QuadratureResult,
    RationalBeta,
    SeriesResult,
)
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

    def test_repeated_method_is_refused(self):
        # one route listed twice would agree with itself and pass for a cross-check
        from bci import METHOD_QUADRATURE, ProblemInstance, evaluate_instance

        with pytest.raises(ValueError, match="more than once"):
            evaluate_instance(ProblemInstance(alpha=1.5, beta=0.5, theta=2.0), methods=[METHOD_QUADRATURE] * 2)

    @pytest.mark.parametrize("methods", [[], ()])
    def test_no_methods_is_refused(self, methods):
        # a report over no methods would read as every method refused
        from bci import ProblemInstance, evaluate_instance

        with pytest.raises(ValueError, match="^no methods selected$"):
            evaluate_instance(ProblemInstance(alpha=1.5, beta=0.5, theta=2.0), methods=methods)

    @pytest.mark.parametrize("alpha", [0.5 * cmath.exp(1j), 2.0 * cmath.exp(1j), 0.0])
    @pytest.mark.parametrize("rational", [None, RationalBeta(1, 3)])
    def test_default_routes_do_not_fork_on_the_regime(self, alpha, rational):
        # the direct series is the closed form's sum rearranged: no default route
        from bci import evaluate_instance

        report = evaluate_instance(ProblemInstance(alpha=alpha, beta=1 / 3, theta=2.0), rational=rational)
        names = [r.method for r in report.results]
        assert names == ["TheoremHypergeometric", "Quadrature"] + (["RationalLogSum"] if rational else [])
        assert report.verdict == "Agree"


def test_readme_quickstart_is_current(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    after = readme.split("## Library quickstart\n", 1)[1]
    code, rest = after.split("```python\n", 1)[1].split("```\n", 1)
    shown = rest.split("```\n", 1)[1].split("```", 1)[0]
    exec(code, {})
    assert capsys.readouterr().out == shown


_INSTANCE = ProblemInstance(0.4 + 0.2j, 0.5 + 0.1j, 3.0)
_OK = MethodResult(1 + 2j, "Quadrature", 1e-13, {"regime": "inside"})
_FAILURE = MethodFailure("SeriesDirect", "SlowConvergence", "stopped")

#: (record, its repr): each repr is the one the frozen dataclasses these
#: records replaced gave on the same fields.
_RECORDS = [
    (_INSTANCE, "ProblemInstance(alpha=(0.4+0.2j), beta=(0.5+0.1j), theta=3.0, tol=1e-08, exclusion_band=0.02)"),
    (RationalBeta(2, -4), "RationalBeta(m=-1, n=2)"),
    (_OK, "MethodResult(value=(1+2j), method='Quadrature', error_estimate=1e-13, diagnostics={'regime': 'inside'})"),
    (SeriesResult(0.5 + 0.25j, 12, 3e-17), "SeriesResult(value=(0.5+0.25j), terms_used=12, tail_estimate=3e-17)"),
    (
        QuadratureResult(1j, 2e-14, 30, True),
        "QuadratureResult(value=1j, abs_error_estimate=2e-14, subdivisions=30, converged=True)",
    ),
    (
        OdeCoefficients((0j, 1j), (1 + 0j,), 0.5 + 0j, 0j, "inside"),
        "OdeCoefficients(p2=(0j, 1j), p1=((1+0j),), zero_order=(0.5+0j), rhs=0j, regime='inside')",
    ),
    (OdeResidual(1e-12 + 0j, 1e-10, 1e-3), "OdeResidual(lhs_minus_rhs=(1e-12+0j), relative_residual=1e-10, step=0.001)"),
    (_FAILURE, "MethodFailure(method='SeriesDirect', status='SlowConvergence', detail='stopped')"),
    (
        EvaluationReport(_INSTANCE, (_OK, _FAILURE), 0.0, "Partial", {"Quadrature": 1.5}),
        "EvaluationReport(instance=ProblemInstance(alpha=(0.4+0.2j), beta=(0.5+0.1j), theta=3.0, tol=1e-08, "
        "exclusion_band=0.02), results=(MethodResult(value=(1+2j), method='Quadrature', error_estimate=1e-13, "
        "diagnostics={'regime': 'inside'}), MethodFailure(method='SeriesDirect', status='SlowConvergence', "
        "detail='stopped')), max_disagreement=0.0, verdict='Partial', timing_us={'Quadrature': 1.5})",
    ),
]


@pytest.mark.parametrize("record,text", _RECORDS, ids=[type(r).__name__ for r, _ in _RECORDS])
class TestRecords:
    """The nine records are immutable named tuples with the fields, reprs and
    equality of the frozen dataclasses they replaced."""

    def test_fields_cannot_be_assigned(self, record, text):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr(self, record, text):
        assert repr(record) == text

    def test_equality_is_field_for_field(self, record, text):
        fields = {name: getattr(record, name) for name in record._fields}
        assert type(record)(**fields) == record
        assert list(fields.values()) == list(record)

    def test_pickle_and_deepcopy_round_trip(self, record, text):
        for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(again) is type(record) and again == record


class TestValidatedRecords:
    """ProblemInstance and RationalBeta check their fields however they are built."""

    @pytest.mark.parametrize("bad", [{"theta": 10.0}, {"alpha": complex("nan")}])
    def test_instance_refuses_every_construction(self, bad):
        fields = {"alpha": 0.4 + 0.2j, "beta": 0.5, "theta": 3.0, **bad}
        for build in (
            lambda: ProblemInstance(fields["alpha"], fields["beta"], fields["theta"]),
            lambda: ProblemInstance(**fields),
            lambda: _INSTANCE._replace(**bad),
            lambda: ProblemInstance._make((fields["alpha"], fields["beta"], fields["theta"], 1e-8, 0.02)),
        ):
            with pytest.raises(ValueError):
                build()

    def test_instance_normalises_on_replace(self):
        got = _INSTANCE._replace(beta=2, theta=1)
        assert (got.beta, got.theta) == (2 + 0j, 1.0) and type(got.beta) is complex and type(got.theta) is float

    def test_rational_normalises_every_construction(self):
        want = (-1, 2)
        assert RationalBeta(2, -4) == RationalBeta(m=2, n=-4) == RationalBeta(1, 3)._replace(m=2, n=-4) == want
        assert (RationalBeta(2, -4).m, RationalBeta(2, -4).n) == want

    @pytest.mark.parametrize("bad,error", [({"n": 0}, ValueError), ({"n": 1}, IntegerBeta)])
    def test_rational_refuses_every_construction(self, bad, error):
        fields = {"m": 1, "n": 3, **bad}
        for build in (
            lambda: RationalBeta(fields["m"], fields["n"]),
            lambda: RationalBeta(**fields),
            lambda: RationalBeta(1, 3)._replace(**bad),
        ):
            with pytest.raises(error):
                build()
