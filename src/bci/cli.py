"""Command-line front end: eval, sweep, verify.

Exit codes are part of the contract: 0 when methods agree (or the surviving
subset does), 2 when they disagree or cannot certify agreement at the
tolerance (verdict Uncertified), 1 for usage errors or instances where every
method failed.  JSON on stdout is canonical: strict JSON with keys in
a fixed order, floats as their shortest round-trip repr and non-finite
values as the strings "NaN", "Infinity", "-Infinity", so identical inputs
give identical bytes.  Human chatter, timings included, goes to stderr.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import re
import sys
from typing import Any, Sequence

from .branchcut import DEFAULT_EXCLUSION_BAND, ProblemInstance
from .closedform import (
    METHOD_CLOSED_FORM,
    METHOD_QUADRATURE,
    METHOD_RATIONAL,
    METHOD_SERIES,
    RationalBeta,
)
from .errors import EvaluationError
from .report import (
    EvaluationReport,
    MethodResult,
    dumps_canonical,
    evaluate_instance,
    report_to_jsonable,
)
from .verify import CHECK_ORDER, run_verify

__all__ = ["main", "parse_angle", "parse_complex", "parse_methods"]

_PI_FORM = re.compile(r"^([+-]?\d*\.?\d*)\*?pi(?:/(\d*\.?\d+))?$")

_METHOD_TOKENS = {
    "theorem": METHOD_CLOSED_FORM,
    "series": METHOD_SERIES,
    "quadrature": METHOD_QUADRATURE,
}


def parse_angle(text: str) -> float:
    """Angles in radians, with pi shorthand: 'pi', '2pi', 'pi/3', '2*pi/3',
    '0.5pi', or any plain float literal."""
    s = text.strip().lower().replace(" ", "")
    match = _PI_FORM.match(s)
    if match:
        coef_text, div_text = match.groups()
        if coef_text in ("", "+"):
            coef = 1.0
        elif coef_text == "-":
            coef = -1.0
        else:
            coef = float(coef_text)
        div = float(div_text) if div_text else 1.0
        if div == 0.0:
            raise ValueError(f"zero divisor in angle {text!r}")
        return coef * math.pi / div
    try:
        return float(s)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}; try '2.1', 'pi', '2pi/3'") from None


def parse_complex(text: str) -> complex:
    """Complex numbers as 're,im', 'mod@arg' (arg accepts pi forms), or a
    Python complex literal ('0.5+0.1j', '-2j', or a bare real '0.7')."""
    s = text.strip()
    if "@" in s:
        mod_text, _, arg_text = s.partition("@")
        try:
            mod = float(mod_text)
        except ValueError:
            raise ValueError(f"cannot parse modulus in {text!r}") from None
        return mod * complex(math.cos(parse_angle(arg_text)), math.sin(parse_angle(arg_text)))
    if "," in s:
        re_text, _, im_text = s.partition(",")
        try:
            return complex(float(re_text), float(im_text))
        except ValueError:
            raise ValueError(f"cannot parse complex number {text!r}; expected 're,im'") from None
    try:
        return complex(s)  # a real literal gives the same bits as complex(float(s), 0.0)
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}; try '1.5,0.2', '2@pi/3', '0.5+0.1j', '0.7'") from None


def parse_methods(text: str) -> tuple[list[str], RationalBeta | None]:
    """Comma-separated method tokens -> (wire names, rational exponent).

    Tokens: theorem, series, quadrature, rational:m/n (e.g. rational:-3/4).
    """
    names: list[str] = []
    rational: RationalBeta | None = None
    for token in text.split(","):
        tok = token.strip().lower()
        if not tok:
            continue
        if tok in _METHOD_TOKENS:
            names.append(_METHOD_TOKENS[tok])
        elif tok.startswith("rational:"):
            if rational is not None:
                raise ValueError("rational:m/n may appear only once")
            body = tok[len("rational:") :]
            m_text, sep, n_text = body.partition("/")
            if not sep:
                raise ValueError(f"malformed rational exponent {token!r}; expected rational:m/n")
            try:
                rational = RationalBeta(int(m_text), int(n_text))
            except ValueError as exc:
                raise ValueError(f"malformed rational exponent {token!r}: {exc}") from None
            names.append(METHOD_RATIONAL)
        else:
            raise ValueError(
                f"unknown method {token!r}; expected theorem, series, quadrature, rational:m/n"
            )
    if not names:
        raise ValueError("no methods selected")
    return names, rational


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage, which collides with the
    'methods disagree' code; force usage errors onto status 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _default_tol() -> float:
    raw = os.environ.get("BCI_DEFAULT_TOL")
    if raw is None:
        return 1e-8
    try:
        value = float(raw)
    except ValueError:
        print(f"bci: error: BCI_DEFAULT_TOL={raw!r} is not a number", file=sys.stderr)
        raise SystemExit(1) from None
    return value


def _build_parser(default_tol: float) -> _Parser:
    parser = _Parser(prog="bci", description="Contour integrals of z**beta/(z - alpha) on the unit circle.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ev = sub.add_parser("eval", help="evaluate one instance with several methods and compare")
    ev.add_argument("--alpha", required=True, type=str, help="pole: 're,im', 'mod@arg', '0.5+0.1j', or bare real")
    ev.add_argument("--beta", required=True, type=str, help="exponent: same forms as --alpha")
    ev.add_argument("--theta", required=True, type=str, help="cut angle in (0, 2pi); accepts pi forms")
    ev.add_argument("--methods", type=str, default=None, help="comma list: theorem,series,quadrature,rational:m/n")
    ev.add_argument("--tol", type=float, default=default_tol, help="agreement tolerance (env BCI_DEFAULT_TOL)")
    ev.add_argument("--exclusion-band", type=float, default=DEFAULT_EXCLUSION_BAND, help="refusal band around |alpha| = 1")
    ev.add_argument("--format", choices=["json"], default="json")
    ev.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")

    sw = sub.add_parser("sweep", help="evaluate a cartesian grid of instances")
    sw.add_argument("--alpha-mod", action="append", default=None, help="pole moduli (repeatable/comma lists)")
    sw.add_argument("--alpha-arg", action="append", default=None, help="pole arguments (pi forms allowed)")
    sw.add_argument(
        "--beta", action="append", default=None,
        help="exponents: 'mod@arg', '0.5+0.1j' or bare reals (commas separate values, so no 're,im')",
    )
    sw.add_argument("--theta", action="append", default=None, help="cut angles (pi forms allowed)")
    sw.add_argument("--tol", type=float, default=default_tol)
    sw.add_argument("--exclusion-band", type=float, default=DEFAULT_EXCLUSION_BAND)
    sw.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    sw.add_argument("--out", type=str, default=None)
    sw.add_argument("--jobs", type=int, default=1, help="accepted for compatibility (>= 1); rows run in order in one thread")

    vf = sub.add_parser("verify", help="run seeded internal identity checks")
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--check", action="append", default=None, choices=list(CHECK_ORDER), help="run only this check (repeatable)")
    vf.add_argument("--tol", type=float, default=None, help="override every check threshold (diagnostic)")
    vf.add_argument("--nmax", type=int, default=32, help="max filter order for the delta check")
    vf.add_argument("--dmax", type=int, default=128, help="max filter shift for the delta check")
    vf.add_argument("--beta", type=str, default=None, help="pin the exponent across identity checks")
    vf.add_argument("--out", type=str, default=None)
    return parser


def _open_out(path: str | None) -> tuple[Any, bool]:
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _survivors(report: EvaluationReport) -> int:
    return sum(1 for r in report.results if isinstance(r, MethodResult))


def _exit_code(report: EvaluationReport) -> int:
    if _survivors(report) == 0:
        return 1
    if report.verdict in ("Disagree", "Uncertified"):
        return 2
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        alpha = parse_complex(args.alpha)
        beta = parse_complex(args.beta)
        theta = parse_angle(args.theta)
        methods, rational = parse_methods(args.methods) if args.methods else (None, None)
        if rational is not None and abs(beta - rational.value) > 1e-9 * max(1.0, abs(rational.value)):
            raise ValueError(
                f"--beta {args.beta} does not equal the requested rational exponent "
                f"{rational.m}/{rational.n}"
            )
        inst = ProblemInstance(
            alpha=alpha, beta=beta, theta=theta, tol=args.tol, exclusion_band=args.exclusion_band
        )
    except ValueError as exc:
        print(f"bci eval: error: {exc}", file=sys.stderr)
        return 1
    report = evaluate_instance(inst, methods=methods, rational=rational)
    stream, owned = _open_out(args.out)
    try:
        stream.write(dumps_canonical(report_to_jsonable(report)) + "\n")
        stream.flush()
    finally:
        if owned:
            stream.close()
    for name, us in report.timing_us.items():
        print(f"# {name}: {us:.1f} us", file=sys.stderr)
    return _exit_code(report)


def _parse_grid_axis(raw: list[str] | None, parse: Any) -> list[Any]:
    if not raw:
        return []
    out = []
    for chunk in raw:
        for piece in chunk.split(","):
            piece = piece.strip()
            if piece:
                out.append(parse(piece))
    return out


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        mods = _parse_grid_axis(args.alpha_mod, float)
        angles = _parse_grid_axis(args.alpha_arg, parse_angle)
        betas = _parse_grid_axis(args.beta, parse_complex)
        thetas = _parse_grid_axis(args.theta, parse_angle)
        if args.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        instances = [
            ProblemInstance(
                alpha=mod * complex(math.cos(arg), math.sin(arg)),
                beta=beta,
                theta=theta,
                tol=args.tol,
                exclusion_band=args.exclusion_band,
            )
            for mod, arg, beta, theta in itertools.product(mods, angles, betas, thetas)
        ]
    except ValueError as exc:
        print(f"bci sweep: error: {exc}", file=sys.stderr)
        return 1

    reports = [evaluate_instance(inst) for inst in instances]

    stream, owned = _open_out(args.out)
    counts = {"Agree": 0, "Partial": 0, "Disagree": 0, "Uncertified": 0}
    try:
        if args.format == "jsonl":
            for report in reports:
                counts[report.verdict] += 1
                stream.write(dumps_canonical(report_to_jsonable(report)) + "\n")
                stream.flush()
        else:
            writer = csv.writer(stream)
            writer.writerow(
                [
                    "alpha_re", "alpha_im", "beta_re", "beta_im", "theta",
                    "method", "value_re", "value_im", "error_estimate", "status",
                    "disagreement", "verdict",
                ]
            )
            for report in reports:
                counts[report.verdict] += 1
                inst = report.instance
                base = [
                    repr(inst.alpha.real), repr(inst.alpha.imag),
                    repr(inst.beta.real), repr(inst.beta.imag),
                    repr(inst.theta_value),
                ]
                for row in report_to_jsonable(report)["results"]:
                    value = row["value"]
                    writer.writerow(
                        base
                        + [
                            row["method"],
                            "" if value is None else repr(value[0]),
                            "" if value is None else repr(value[1]),
                            "" if row["error_estimate"] is None else repr(row["error_estimate"]),
                            row["status"],
                            repr(report.max_disagreement),
                            report.verdict,
                        ]
                    )
            stream.flush()
    finally:
        if owned:
            stream.close()
    print(
        f"# rows={len(reports)} agree={counts['Agree']} partial={counts['Partial']} "
        f"disagree={counts['Disagree']} uncertified={counts['Uncertified']}",
        file=sys.stderr,
    )
    return 2 if counts["Disagree"] or counts["Uncertified"] else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        beta = parse_complex(args.beta) if args.beta is not None else None
        checks = tuple(args.check) if args.check else None
        report = run_verify(
            seed=args.seed, checks=checks, tol=args.tol, nmax=args.nmax, dmax=args.dmax, beta=beta
        )
    except (ValueError, EvaluationError) as exc:
        print(f"bci verify: error: {exc}", file=sys.stderr)
        return 1
    stream, owned = _open_out(args.out)
    try:
        stream.write(dumps_canonical(report) + "\n")
        stream.flush()
    finally:
        if owned:
            stream.close()
    return 0 if report["verdict"] == "Agree" else 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser(_default_tol())
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
