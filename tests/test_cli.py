"""Command-line behaviour: parsing, schemas, exit codes, determinism."""

import csv
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bci.cli
from bci import ProblemInstance, RationalBeta, eval_rational_logsum
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

    @pytest.mark.parametrize("text", ["", "pie", "pi/0", "2x", ".pi", "+.pi", "-.pi", "inf", "-inf", "nan"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_angle(text)

    @pytest.mark.parametrize(
        "flag,text,shown",
        [("--theta", ".pi", "'.pi'"), ("--theta", "+.pi", "'+.pi'"), ("--theta", "-.pi", "'-.pi'"),
         ("--alpha", "1@inf", "'inf'"), ("--alpha", "1@-inf", "'-inf'")],
    )
    def test_message_names_the_input(self, flag, text, shown, capsys):
        given = {"--alpha": "0.5", "--theta": "2", flag: text}
        assert main(["eval", "--alpha", given["--alpha"], "--beta", "0.5", "--theta", given["--theta"]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bci eval: error: ") and shown in err and "convert" not in err and "domain" not in err


class TestParseComplex:
    def test_forms(self):
        assert parse_complex("1.5,0.2") == 1.5 + 0.2j
        assert parse_complex("0.7") == 0.7 + 0j
        assert parse_complex("-2") == -2 + 0j
        got = parse_complex("2@pi/3")
        assert got == pytest.approx(2 * complex(math.cos(math.pi / 3), math.sin(math.pi / 3)))

    @pytest.mark.parametrize("text", ["", "a,b", "x@1", "1@y", "1,2,3", "1@inf", "1@-inf", "1@.pi"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

    def test_polar_form_parses_the_angle_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bci.cli, "parse_angle", lambda text: calls.append(text) or parse_angle(text))
        got = parse_complex("0.3@2pi/3")
        assert calls == ["2pi/3"]
        want = 0.3 * complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

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

    @pytest.mark.parametrize(
        "text",
        ["nope", "rational:5", "rational:1/2,rational:1/3", "rational:4/2", "", "theorem,theorem",
         "quadrature,theorem,quadrature"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_methods(text)


class TestNegativeValues:
    """A flag's value may start with a dash: argparse alone reads only plain
    decimals such as -0.75 as values, and would refuse -2j or -2,0."""

    @pytest.mark.parametrize(
        "flag,text",
        [("--beta", "-2j"), ("--alpha", "-2,0"), ("--alpha", "-0.3+0.2j"), ("--beta", "-1e-3"), ("--beta", "-.5")],
    )
    def test_eval_reads_the_value(self, flag, text, capsys):
        given = {"--alpha": "0.5", "--beta": "0.5", flag: text}
        assert main(["eval", "--alpha", given["--alpha"], "--beta", given["--beta"], "--theta", "2"]) == 0
        z = parse_complex(text)
        assert json.loads(capsys.readouterr().out)["instance"][flag[2:]] == [z.real, z.imag]

    def test_sweep_reads_the_value(self, capsys):
        assert main(["sweep", "--alpha-mod", "0.3", "--alpha-arg", "0.8", "--beta", "-2j", "--theta", "2"]) == 0
        (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert row["instance"]["beta"] == [0.0, -2.0]

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--beta", "--theta", "2"], "argument --beta: expected one argument"),
            (["--beta", "0.5", "--theta", "2", "--bogus"], "unrecognized arguments: --bogus"),
            (["--beta", "0.5", "--theta", "2", "-3"], "unrecognized arguments: -3"),
        ],
    )
    def test_options_and_stray_values_are_still_refused(self, extra, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--alpha", "0.5"] + extra)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err


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

    def test_stderr_times_each_method_then_serialisation(self, capsys):
        argv = ["eval", "--alpha", "0.3@0.8", "--beta", "0.5", "--theta", "2"]
        assert main(argv) == 0
        out = capsys.readouterr()
        names = [line[2:].split(":")[0] for line in out.err.splitlines()]
        assert names == ["TheoremHypergeometric", "Quadrature", "serialise"]
        assert all(float(line.split(": ")[1].removesuffix(" us")) >= 0.0 for line in out.err.splitlines())
        # the timings change nothing on stdout
        assert main(argv) == 0
        assert capsys.readouterr().out == out.out

    def test_all_methods_fail_exits_1(self, capsys):
        code = main(["eval", "--alpha", "1.0", "--beta", "0.5", "--theta", "pi"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert all(r["status"] == "AlphaOnCircle" for r in doc["results"])
        assert all(r["value"] is None for r in doc["results"])

    @pytest.mark.parametrize("alpha,beta", [("1.0", "0.5"), ("0.5", "0.5+1000j")])
    def test_no_survivor_is_refused(self, alpha, beta, capsys):
        code = main(["eval", "--alpha", alpha, "--beta", beta, "--theta", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert (doc["verdict"], doc["disagreement"], code) == ("Refused", 0.0, 1)

    def test_cut_jump_past_the_float_range_is_refused(self, capsys):
        # the parts of the cut jump are finite and its modulus is not: every
        # method refuses with NonFiniteValue, where a traceback once ended eval
        code = main(["eval", "--alpha", "0.5", "--beta", "0.5+129.45j", "--theta", "0.8"])
        doc = json.loads(capsys.readouterr().out)
        assert (doc["verdict"], code) == ("Refused", 1)
        assert {r["status"] for r in doc["results"]} == {"NonFiniteValue"}

    @pytest.mark.parametrize("alpha", ["1.02", "0.98", "1.03"])
    def test_near_band_instance_is_cross_checked(self, alpha, capsys):
        code = main(["eval", "--alpha", alpha, "--beta", "0.5+0.3j", "--theta", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert (doc["verdict"], code) == ("Agree", 0)
        assert sum(r["status"] == "ok" for r in doc["results"]) >= 2
        assert doc["disagreement"] < 1e-12

    def test_tiny_band_still_refuses_the_closed_form(self, capsys):
        code = main(["eval", "--alpha", "1.00001", "--beta", "0.5", "--theta", "2", "--exclusion-band", "1e-5"])
        doc = json.loads(capsys.readouterr().out)
        assert (doc["verdict"], code) == ("Partial", 0)
        assert doc["results"][0]["status"] == "SlowConvergence"

    def test_readme_example_is_current(self, capsys):
        command = "bci eval --alpha 2,0 --beta 0.5,0 --theta pi --methods theorem,quadrature,rational:1/2"
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        after = readme.split(f"```sh\n{command}\n```\n", 1)[1]
        shown = after.split("```json\n", 1)[1].split("```", 1)[0]
        # the README wraps the one-line report; compact JSON has no spaces to lose
        joined = "".join(line.strip() for line in shown.splitlines()) + "\n"
        assert main(command.split()[1:]) == 0
        assert capsys.readouterr().out == joined

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

    @pytest.mark.parametrize("env", ["1e-15", "junk", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--alpha", "0.3@0.8", "--beta", "0.5", "--theta", "2.0", "--methods", "theorem,quadrature"],
            ["sweep", "--alpha-mod", "0.3", "--alpha-arg", "0.8", "--beta", "0.5", "--theta", "2.0"],
        ],
    )
    def test_env_tol_is_not_read(self, argv, env, capsys, monkeypatch):
        # the argv alone sets the bytes: a tolerance of 1e-15 would flag the
        # tiny gap between these methods (exit 2), and junk or inf would exit 1
        want = main(argv), capsys.readouterr().out
        assert want[0] == 0 and want[1]
        monkeypatch.setenv("BCI_DEFAULT_TOL", env)
        assert (main(argv), capsys.readouterr().out) == want

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

    def test_unconverged_series_is_refused(self, capsys):
        # both series reach their term cap far short of the tolerance; quadrature alone answers
        code = main(["eval", "--alpha", "0.9999999998", "--beta", "0.5", "--theta", "2",
                     "--exclusion-band", "1e-10", "--methods", "theorem,quadrature,series"])
        doc = json.loads(capsys.readouterr().out)
        status = [(r["method"], r["status"]) for r in doc["results"]]
        assert status == [
            ("TheoremHypergeometric", "SlowConvergence"), ("Quadrature", "ok"), ("SeriesDirect", "SlowConvergence"),
        ]
        assert (doc["verdict"], code) == ("Partial", 0)


class TestRationalMatch:
    """bci eval --methods rational:m/n refuses exactly the exponents that
    eval_rational_logsum refuses: those further than 1e-9 * max(1, |m/n|)
    from m/n."""

    @pytest.mark.parametrize("m,n,alpha", [(1, 3, "0.5@1"), (-2, 5, "2@1"), (7, 3, "0.5@1"), (-11, 4, "2@1")])
    @pytest.mark.parametrize("step", [1.0, -1.0, 1j])
    @pytest.mark.parametrize("scale,matches", [(1.0 - 1e-5, True), (1.0 + 1e-5, False)])
    def test_library_and_cli_refuse_alike(self, m, n, alpha, step, scale, matches, capsys):
        rational = RationalBeta(m, n)
        beta = rational.value + step * scale * 1e-9 * max(1.0, abs(rational.value))
        assert rational.matches(beta) is matches
        inst = ProblemInstance(alpha=parse_complex(alpha), beta=beta, theta=2.0)
        argv = ["eval", "--alpha", alpha, "--beta", repr(beta), "--theta", "2", "--methods", f"rational:{m}/{n}"]
        code = main(argv)
        out, err = capsys.readouterr()
        if matches:
            assert math.isfinite(eval_rational_logsum(inst, rational).error_estimate)
            (row,) = json.loads(out)["results"]
            assert (row["method"], row["status"], code) == ("RationalLogSum", "ok", 0)
        else:
            with pytest.raises(ValueError, match="does not match"):
                eval_rational_logsum(inst, rational)
            assert (code, out) == (1, "")
            assert "does not equal the requested rational exponent" in err


class TestSweepCommand:
    def test_readme_example_is_current(self, capsys):
        command = "bci sweep --alpha-mod 0.5,2 --alpha-arg 1.0 --beta 0.7 --theta pi --format csv"
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        after = readme.split(f"```sh\n{command}\n```\n", 1)[1]
        shown = after.split("```\n", 1)[1].split("```", 1)[0]
        assert main(command.split()[1:]) == 0
        out, err = capsys.readouterr()
        # the csv rows end in \r\n; the summary line comes from stderr
        assert (out + err).splitlines() == shown.splitlines()

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
        out = capsys.readouterr()
        rows = [json.loads(line) for line in out.out.splitlines()]
        assert [r["status"] for r in rows[0]["results"]] == ["NonFiniteValue"] * 2
        assert rows[0]["verdict"] == "Refused"
        assert rows[1]["verdict"] == "Agree"
        assert "refused=1" in out.err
        assert code == 0  # another row produced values

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize(
        "verdict,mod,arg,beta,theta,extra,code",
        [
            ("Agree", "0.5", "1", "0.5", "3", [], 0),
            ("Partial", "0.9999999998", "0", "0.5", "2", ["--exclusion-band", "1e-10"], 0),
            ("Uncertified", "0.3", "0.8", "0.5", "2.0", ["--tol", "1e-14"], 2),
            ("Disagree", "0.5", "1", "2.00000000001", "2", ["--tol", "1e-17"], 2),
            ("Refused", "0.5", "1", "0.5+1000j", "3", [], 1),
        ],
    )
    def test_one_row_exits_as_eval(self, fmt, verdict, mod, arg, beta, theta, extra, code, capsys):
        eval_code = main(["eval", "--alpha", f"{mod}@{arg}", "--beta", beta, "--theta", theta] + extra)
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == verdict
        instance = ["--alpha-mod", mod, "--alpha-arg", arg, "--beta", beta, "--theta", theta] + extra
        sweep_code = main(["sweep"] + instance + ["--format", fmt])
        out = capsys.readouterr()
        assert "rows=1 " in out.err and f"{verdict.lower()}=1" in out.err
        if fmt == "jsonl":
            assert [json.loads(line) for line in out.out.splitlines()] == [doc]
        else:
            rows = list(csv.DictReader(out.out.splitlines()))
            got = [(r["method"], r["status"], r["verdict"]) for r in rows]
            assert got == [(r["method"], r["status"], verdict) for r in doc["results"]]
        assert sweep_code == eval_code == code

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
        assert len(lines) == 3  # header + one row per method (theorem, quadrature)

    def test_missing_axis_is_empty_grid(self, capsys):
        code = main(["sweep", "--alpha-mod", "0.3", "--beta", "0.5", "--theta", "2.0"])
        out = capsys.readouterr()
        assert code == 0
        assert out.out == ""
        assert "rows=0" in out.err

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

    def test_closed_reader_ends_quietly(self):
        # 256 rows (~100 kB) outgrow the pipe's buffer, so the sweep is still
        # writing when the reader goes away
        axes = ["--alpha-mod", "0.3,0.5,1.5,3", "--alpha-arg", "0.5,1.5,3,4", "--beta", "0.5,0.7,1.3,-0.4",
                "--theta", "1,2,3.5,5"]
        proc = subprocess.Popen([sys.executable, "-m", "bci", "sweep"] + axes,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert json.loads(first)["verdict"] == "Agree"
        assert proc.returncode == 1
        assert b"Traceback" not in err and b"BrokenPipeError" not in err


class TestBranchAngleRefusal:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--alpha", "0.3@0.8", "--beta", "0.5", "--theta", "7"],
            ["sweep", "--alpha-mod", "0.5", "--alpha-arg", "1", "--beta", "0.5", "--theta", "0"],
        ],
    )
    def test_angle_outside_the_open_interval_exits_1(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "branch angle must lie in the open interval (0, 2*pi)" in err


class TestToleranceRefusal:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--alpha", "0.3", "--beta", "0.5", "--theta", "pi", "--tol", "inf"],
            ["sweep", "--alpha-mod", "0.5", "--alpha-arg", "1", "--beta", "0.5", "--theta", "2", "--tol", "inf"],
            ["sweep", "--tol", "inf"],
            ["verify", "--seed", "1", "--tol", "inf"],
            ["verify", "--seed", "1", "--tol", "nan"],
        ],
    )
    def test_non_finite_tol_exits_1(self, argv, capsys):
        # an infinite threshold would pass every comparison and print Agree
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"bci {argv[0]}: error:" in err and "finite and positive" in err


class TestNonFiniteInputRefusal:
    @pytest.mark.parametrize(
        "argv,what",
        [
            (["eval", "--alpha", "nan", "--beta", "0.5", "--theta", "2"], "alpha"),
            (["eval", "--alpha", "inf", "--beta", "0.5", "--theta", "2"], "alpha"),
            (["eval", "--alpha", "0.3", "--beta", "nan", "--theta", "2"], "beta"),
            (["eval", "--alpha", "0.3", "--beta", "0.5+infj", "--theta", "2"], "beta"),
            (["sweep", "--alpha-mod", "inf", "--alpha-arg", "1", "--beta", "0.5", "--theta", "2"], "alpha"),
            (["sweep", "--alpha-mod", "0.5", "--alpha-arg", "1", "--beta", "0.5,nan", "--theta", "2"], "beta"),
            (["verify", "--seed", "1", "--beta", "nan", "--check", "circle"], "beta"),
            (["verify", "--seed", "1", "--beta", "nan", "--check", "euler"], "beta"),
            (["verify", "--seed", "1", "--beta", "0.5+infj"], "beta"),
        ],
    )
    def test_exits_1_with_empty_stdout(self, argv, what, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"bci {argv[0]}: error:" in err and what in err and "finite" in err


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
            "reconciliation", "ode", "circle", "euler",
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
        code = main(["verify", "--seed", "5", "--check", "euler", "--check", "circle"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [c["name"] for c in doc["checks"]] == ["circle", "euler"]

    @pytest.mark.parametrize("check", ["delta", "reduction"])
    def test_deleted_check_is_a_usage_error(self, check, capsys):
        # the root-of-unity filter runs in no route, and the radial integral's
        # reduction compares two unit-interval quadratures eval never runs, so
        # verify has no check of either
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "1", "--check", check])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"invalid choice: '{check}'" in err

    def test_beta_pin(self, capsys):
        assert main(["verify", "--seed", "5", "--check", "ode", "--beta", "1.3,0.2"]) == 0
        capsys.readouterr()
        assert main(["verify", "--seed", "5", "--check", "ode", "--beta", "2"]) == 1
        err = capsys.readouterr().err
        assert "beta" in err

    def test_readme_example_is_current(self, capsys):
        command = "bci verify --seed 7 --check circle --check euler"
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        after = readme.split(f"```sh\n{command}\n```\n", 1)[1]
        shown = after.split("```json\n", 1)[1].split("```", 1)[0]
        assert main(command.split()[1:]) == 0
        assert capsys.readouterr().out == shown

    def test_overflowing_beta_is_refused(self):
        # the reconciliation's cut jump factor overflows at Im(beta) = 250
        cmd = [sys.executable, "-m", "bci", "verify", "--seed", "1", "--beta", "0.5+250j"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr and "overflows" in proc.stderr

    @pytest.mark.parametrize("check,beta", [("reconciliation", "0.5,129.65"), ("ode", "0.5,-137.2")])
    def test_cut_jump_past_the_float_range_is_one_error_line(self, check, beta):
        # the cut jump's parts are finite and its modulus is not
        cmd = [sys.executable, "-m", "bci", "verify", "--seed", "1", "--check", check, "--beta", beta]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        [line] = proc.stderr.splitlines()
        assert line.startswith("bci verify: error: the cut jump or its rounding bound overflows")

    def test_unconverged_quadrature_is_refused(self):
        cmd = [sys.executable, "-m", "bci", "verify", "--seed", "1", "--check", "euler", "--beta", "1e-5+0.2j"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("bci verify: error: the Euler integral stopped unconverged")


class TestModuleEntry:
    def test_subprocess_byte_identical(self):
        cmd = [sys.executable, "-m", "bci", "verify", "--seed", "3", "--check", "euler"]
        first = subprocess.run(cmd, capture_output=True, timeout=120)
        second = subprocess.run(cmd, capture_output=True, timeout=120)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["verdict"] == "Agree"


class TestOutOption:
    COMMANDS = [
        ["eval", "--alpha", "0.3@0.8", "--beta", "0.5", "--theta", "2"],
        ["sweep", "--alpha-mod", "0.5,2", "--alpha-arg", "1", "--beta", "0.7", "--theta", "pi"],
        ["sweep", "--alpha-mod", "0.5,2", "--alpha-arg", "1", "--beta", "0.7", "--theta", "pi", "--format", "csv"],
        ["verify", "--seed", "1", "--check", "euler"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_out_file_holds_the_stdout_bytes(self, argv, tmp_path, capsys):
        assert main(argv) == 0
        printed = capsys.readouterr().out
        target = tmp_path / "f"
        assert main(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == printed.encode()

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_unwritable_out_is_one_error_line(self, argv, tmp_path, capsys):
        target = tmp_path / "missing" / "f"
        assert main(argv + ["--out", str(target)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        [line] = out.err.splitlines()
        assert line.startswith(f"bci {argv[0]}: error: cannot write --out {target}: ")
        assert not target.parent.exists()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full to fail every write")
    @pytest.mark.parametrize("argv", COMMANDS)
    def test_unwritable_stdout_is_one_error_line(self, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "bci"] + argv, stdout=full, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"bci {argv[0]}: error: cannot write stdout: ")
