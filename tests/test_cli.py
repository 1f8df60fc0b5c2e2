"""Command-line behaviour: parsing, schemas, exit codes, determinism."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from bci import RationalBeta
from bci.cli import main, parse_angle, parse_complex, parse_methods


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("pi", math.pi),
            ("2pi", 2 * math.pi),
            ("pi/3", math.pi / 3),
            ("2*pi/3", 2 * math.pi / 3),
            ("0.5pi", math.pi / 2),
            ("-pi/2", -math.pi / 2),
            ("2.1", 2.1),
            (" 3 ", 3.0),
        ],
    )
    def test_forms(self, text, want):
        assert parse_angle(text) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("text", ["", "pie", "pi/0", "2x"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_angle(text)


class TestParseComplex:
    def test_forms(self):
        assert parse_complex("1.5,0.2") == 1.5 + 0.2j
        assert parse_complex("0.7") == 0.7 + 0j
        assert parse_complex("-2") == -2 + 0j
        got = parse_complex("2@pi/3")
        assert got == pytest.approx(2 * complex(math.cos(math.pi / 3), math.sin(math.pi / 3)))

    @pytest.mark.parametrize("text", ["", "a,b", "x@1", "1@y", "1,2,3"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

    def test_python_complex_literals(self):
        assert parse_complex("0.5+0.1j") == 0.5 + 0.1j
        assert parse_complex("-2j") == -2j
        assert parse_complex(" 1.5-2.25j ") == 1.5 - 2.25j


class TestParseMethods:
    def test_tokens(self):
        names, rational = parse_methods("theorem,series,quadrature")
        assert names == ["TheoremHypergeometric", "SeriesDirect", "Quadrature"]
        assert rational is None

    def test_rational_token(self):
        names, rational = parse_methods("rational:-3/4,theorem")
        assert names == ["RationalLogSum", "TheoremHypergeometric"]
        assert rational == RationalBeta(-3, 4)
        # normalisation happens here too
        assert parse_methods("rational:2/4")[1] == RationalBeta(1, 2)

    @pytest.mark.parametrize("text", ["nope", "rational:5", "rational:1/2,rational:1/3", "rational:4/2", ""])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_methods(text)


class TestEvalCommand:
    def test_agreement_and_schema(self, capsys):
        code = main(
            ["eval", "--alpha", "0.3@0.8", "--beta", "0.5", "--theta", "2.0",
             "--methods", "theorem,series,quadrature,rational:1/2"]
        )
        out = capsys.readouterr()
        assert code == 0
        doc = json.loads(out.out)
        assert set(doc) == {"instance", "results", "disagreement", "verdict"}
        assert set(doc["instance"]) == {"alpha", "beta", "theta"}
        assert doc["verdict"] == "Agree"
        methods = [r["method"] for r in doc["results"]]
        assert methods == ["TheoremHypergeometric", "SeriesDirect", "Quadrature", "RationalLogSum"]
        for r in doc["results"]:
            assert set(r) == {"method", "value", "error_estimate", "status"}
            assert r["status"] == "ok"
            assert len(r["value"]) == 2
        # timing goes to stderr only
        err_lines = out.err.strip().splitlines()
        assert err_lines and all(l.startswith("# ") and l.endswith(" us") for l in err_lines)
        assert not any(l.startswith("#") for l in out.out.splitlines())

    def test_all_methods_fail_exits_1(self, capsys):
        code = main(["eval", "--alpha", "1.0", "--beta", "0.5", "--theta", "pi"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert all(r["status"] == "AlphaOnCircle" for r in doc["results"])
        assert all(r["value"] is None for r in doc["results"])

    def test_forced_disagreement_exits_2(self, capsys):
        code = main(
            ["eval", "--alpha", "0.3@0.8", "--beta", "0.5", "--theta", "2.0",
             "--methods", "theorem,quadrature", "--tol", "1e-16"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["verdict"] == "Disagree"

    def test_partial_verdict(self, capsys):
        # series refuses outside; theorem and quadrature survive and agree
        code = main(
            ["eval", "--alpha", "2.0", "--beta", "0.5", "--theta", "pi", "--methods", "theorem,series,quadrature"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["verdict"] == "Partial"
        statuses = {r["method"]: r["status"] for r in doc["results"]}
        assert statuses["SeriesDirect"] == "EvaluationError"
        assert statuses["TheoremHypergeometric"] == "ok"

    def test_bad_input_exits_1(self, capsys):
        assert main(["eval", "--alpha", "zzz", "--beta", "0.5", "--theta", "pi"]) == 1
        assert main(["eval", "--alpha", "0.5", "--beta", "0.5", "--theta", "0"]) == 1
        assert main(["eval", "--alpha", "0.5", "--beta", "0.4", "--theta", "pi",
                     "--methods", "rational:1/2"]) == 1
        capsys.readouterr()

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--alpha", "0.5"])  # missing required flags
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["eval", "--alpha", "0.5", "--beta", "0.5", "--theta", "pi", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(target.read_text())
        assert doc["verdict"] == "Agree"

    def test_deterministic_bytes(self, capsys):
        argv = ["eval", "--alpha", "0.4,0.2", "--beta", "0.7,-0.1", "--theta", "2pi/3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_env_default_tol(self, capsys, monkeypatch):
        monkeypatch.setenv("BCI_DEFAULT_TOL", "1e-15")
        code = main(["eval", "--alpha", "0.3@0.8", "--beta", "0.5", "--theta", "2.0",
                     "--methods", "theorem,quadrature"])
        capsys.readouterr()
        assert code == 2  # the env-tightened tolerance flags the tiny gap
        monkeypatch.setenv("BCI_DEFAULT_TOL", "not-a-number")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--alpha", "0.3", "--beta", "0.5", "--theta", "pi"])
        assert exc.value.code == 1

    def test_uncertified_when_estimates_exceed_tol(self, capsys):
        # the gap (~1e-15) is within 1e-14, but quadrature's estimate (~9e-14) is not
        code = main(["eval", "--alpha", "0.3@0.8", "--beta", "0.5", "--theta", "2.0",
                     "--methods", "theorem,quadrature", "--tol", "1e-14"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["disagreement"] <= 1e-14
        assert doc["verdict"] == "Uncertified"
        assert code == 2

    @pytest.mark.parametrize("methods", [[], ["--methods", "quadrature"], ["--methods", "theorem,series"]])
    def test_overflowing_instance_is_refused(self, methods, capsys):
        # |z^beta| reaches e^{1000 (2 pi - 3)} on the circle: no double holds it
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            code = main(["eval", "--alpha", "0.5", "--beta", "0.5+1000j", "--theta", "3"] + methods)
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["results"] and all(r["status"] == "NonFiniteValue" for r in doc["results"])
        assert doc["verdict"] != "Agree"


class TestSweepCommand:
    def test_uncertified_rows_counted_and_exit_2(self, capsys):
        code = main(["sweep", "--alpha-mod", "0.3", "--alpha-arg", "0.8", "--beta", "0.5", "--theta", "2.0",
                     "--tol", "1e-14"])
        out = capsys.readouterr()
        assert json.loads(out.out)["verdict"] == "Uncertified"
        assert "uncertified=1" in out.err
        assert code == 2

    def test_overflowing_row_is_refused(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--alpha-mod", "0.5", "--alpha-arg", "1", "--beta", "0.5+1000j,0.5",
                         "--theta", "3"])
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["status"] for r in rows[0]["results"]] == ["NonFiniteValue"] * 3
        assert rows[1]["verdict"] == "Agree"
        assert code != 2

    def test_jsonl_grid(self, capsys):
        code = main(
            ["sweep", "--alpha-mod", "0.3,1.5", "--alpha-arg", "0.8", "--beta", "0.5", "--theta", "pi,2.0"]
        )
        out = capsys.readouterr()
        assert code == 0
        rows = [json.loads(line) for line in out.out.splitlines()]
        assert len(rows) == 4
        # cartesian order: alpha-mod outermost, theta innermost
        mods = [abs(complex(*r["instance"]["alpha"])) for r in rows]
        assert mods == pytest.approx([0.3, 0.3, 1.5, 1.5])
        thetas = [r["instance"]["theta"] for r in rows]
        assert thetas == pytest.approx([math.pi, 2.0, math.pi, 2.0])
        assert "rows=4" in out.err

    def test_csv_format(self, capsys):
        code = main(
            ["sweep", "--alpha-mod", "0.3", "--alpha-arg", "0.8", "--beta", "0.5", "--theta", "2.0",
             "--format", "csv"]
        )
        out = capsys.readouterr()
        assert code == 0
        lines = [ln for ln in out.out.splitlines() if ln]
        header = lines[0].split(",")
        assert header[:6] == ["alpha_re", "alpha_im", "beta_re", "beta_im", "theta", "method"]
        assert len(lines) == 4  # header + one row per method (theorem, quadrature, series)

    def test_missing_axis_is_empty_grid(self, capsys):
        code = main(["sweep", "--alpha-mod", "0.3", "--beta", "0.5", "--theta", "2.0"])
        out = capsys.readouterr()
        assert code == 0
        assert out.out == ""
        assert "rows=0" in out.err

    def test_jobs_preserve_order_and_bytes(self, capsys):
        argv = ["sweep", "--alpha-mod", "0.3,0.6,1.5", "--alpha-arg", "0.8,2.2", "--beta", "0.5",
                "--theta", "2.0"]
        main(argv)
        serial = capsys.readouterr().out
        main(argv + ["--jobs", "3"])
        threaded = capsys.readouterr().out
        assert serial == threaded

    def test_complex_literal_beta_is_one_exponent(self, capsys):
        argv = ["sweep", "--alpha-mod", "0.3", "--alpha-arg", "0.8", "--beta", "0.5+0.1j,-2j", "--theta", "2.0"]
        assert main(argv) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["instance"]["beta"] for r in rows] == [[0.5, 0.1], [0.0, -2.0]]

    def test_polar_beta_parses_as_before(self, capsys):
        assert main(["sweep", "--alpha-mod", "0.3", "--alpha-arg", "0.8", "--beta", "0.6@2.5", "--theta", "2.0"]) == 0
        (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert row["instance"]["beta"] == [0.6 * math.cos(2.5), 0.6 * math.sin(2.5)]

    def test_bad_axis_value_exits_1(self, capsys):
        assert main(["sweep", "--alpha-mod", "x", "--alpha-arg", "0", "--beta", "0.5", "--theta", "pi"]) == 1
        capsys.readouterr()


class TestVerifyCommand:
    def test_deterministic_and_passing(self, capsys):
        assert main(["verify", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--seed", "11"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["seed"] == 11
        assert doc["verdict"] == "Agree"
        assert [c["name"] for c in doc["checks"]] == [
            "delta", "reduction", "reconciliation", "ode", "circle", "euler",
        ]
        assert all(c["pass"] for c in doc["checks"])
        assert main(["verify", "--seed", "12"]) == 0
        other = capsys.readouterr().out
        assert other != first

    def test_tol_override_fails_everything(self, capsys):
        code = main(["verify", "--seed", "11", "--tol", "1e-30"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["verdict"] == "Disagree"
        assert all(not c["pass"] for c in doc["checks"])
        assert all(c["threshold"] == 1e-30 for c in doc["checks"])

    def test_check_subset(self, capsys):
        code = main(["verify", "--seed", "5", "--check", "delta", "--check", "euler"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [c["name"] for c in doc["checks"]] == ["delta", "euler"]

    def test_beta_pin(self, capsys):
        assert main(["verify", "--seed", "5", "--check", "ode", "--beta", "1.3,0.2"]) == 0
        capsys.readouterr()
        assert main(["verify", "--seed", "5", "--check", "ode", "--beta", "2"]) == 1
        err = capsys.readouterr().err
        assert "beta" in err

    def test_readme_example_is_current(self, capsys):
        command = "bci verify --seed 7 --check delta --check euler"
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        after = readme.split(f"```sh\n{command}\n```\n", 1)[1]
        shown = after.split("```json\n", 1)[1].split("```", 1)[0]
        assert main(command.split()[1:]) == 0
        assert capsys.readouterr().out == shown

    def test_delta_knobs(self, capsys):
        code = main(["verify", "--seed", "5", "--check", "delta", "--nmax", "8", "--dmax", "16"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["checks"][0]["cases"] == 400


class TestModuleEntry:
    def test_subprocess_byte_identical(self):
        cmd = [sys.executable, "-m", "bci", "verify", "--seed", "3", "--check", "delta"]
        first = subprocess.run(cmd, capture_output=True, timeout=120)
        second = subprocess.run(cmd, capture_output=True, timeout=120)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["verdict"] == "Agree"
