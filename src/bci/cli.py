"""Command-line front end: eval, sweep, verify.

Exit codes are part of the contract: 0 when methods agree (or the surviving
subset does), 2 when they disagree or cannot certify agreement at the
tolerance (verdict Uncertified), 1 for usage errors or instances where every
method failed (verdict Refused).  A sweep exits 2 when any row would, else 1
when every row is Refused, else 0, so a one-row sweep exits as eval does.
A reader that closes stdout early (`bci sweep ... | head -1`) ends the
command quietly with status 1; any other stdout write error gives one error
line on stderr and status 1.  JSON on stdout is canonical: strict JSON
with keys in a fixed order, floats as their shortest round-trip repr and
non-finite values as the strings "NaN", "Infinity", "-Infinity", so
identical inputs give identical bytes.  Human chatter, timings included,
goes to stderr.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import re
import sys
import time
from typing import Any, Callable, Sequence

from .branchcut import DEFAULT_EXCLUSION_BAND, ProblemInstance, require_tol
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
    dumps_canonical,
    evaluate_instance,
    report_to_jsonable,
)
from .verify import CHECK_ORDER, run_verify

__all__ = ["main", "parse_angle", "parse_complex", "parse_methods"]

_PI_FORM = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\*?pi(?:/(\d*\.?\d+))?$")

_METHOD_TOKENS = {
    "theorem": METHOD_CLOSED_FORM,
    "series": METHOD_SERIES,
    "quadrature": METHOD_QUADRATURE,
}


def parse_angle(text: str) -> float:
    """Angles in radians, with pi shorthand: 'pi', '2pi', 'pi/3', '2*pi/3',
    '0.5pi', or any finite float literal."""
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
        angle = float(s)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}; try '2.1', 'pi', '2pi/3'") from None
    if not math.isfinite(angle):
        raise ValueError(f"angle {text!r} is not finite")
    return angle


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
        angle = parse_angle(arg_text)
        return mod * complex(math.cos(angle), math.sin(angle))
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

    Tokens: theorem, series, quadrature, rational:m/n (e.g. rational:-3/4),
    each at most once: a route listed twice would only agree with itself.
    """
    names: list[str] = []
    rational: RationalBeta | None = None
    for token in text.split(","):
        tok = token.strip().lower()
        if not tok:
            continue
        if tok in _METHOD_TOKENS:
            name = _METHOD_TOKENS[tok]
        elif tok.startswith("rational:"):
            body = tok[len("rational:") :]
            m_text, sep, n_text = body.partition("/")
            if not sep:
                raise ValueError(f"malformed rational exponent {token!r}; expected rational:m/n")
            try:
                rational = RationalBeta(int(m_text), int(n_text))
            except ValueError as exc:
                raise ValueError(f"malformed rational exponent {token!r}: {exc}") from None
            name = METHOD_RATIONAL
        else:
            raise ValueError(
                f"unknown method {token!r}; expected theorem, series, quadrature, rational:m/n"
            )
        if name in names:
            raise ValueError(f"method {tok.partition(':')[0]!r} appears more than once")
        names.append(name)
    if not names:
        raise ValueError("no methods selected")
    return names, rational


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage, which collides with the
    'methods disagree' code; force usage errors onto status 1.  argparse
    takes a token for an option unless it is a plain decimal such as -0.75,
    so -2j, -2,0 and -1e-3 would be refused as values; any token of a dash
    and then a digit or a dot is a value here."""

    def _parse_optional(self, arg_string: str):
        if re.match(r"-[\d.]", arg_string):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bci", description="Contour integrals of z**beta/(z - alpha) on the unit circle.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ev = sub.add_parser("eval", help="evaluate one instance with several methods and compare")
    ev.add_argument("--alpha", required=True, type=str, help="pole: 're,im', 'mod@arg', '0.5+0.1j', or bare real")
    ev.add_argument("--beta", required=True, type=str, help="exponent: same forms as --alpha")
    ev.add_argument("--theta", required=True, type=str, help="cut angle in (0, 2pi); accepts pi forms")
    ev.add_argument("--methods", type=str, default=None, help="comma list of theorem,series,quadrature,rational:m/n (default theorem,quadrature)")
    ev.add_argument("--tol", type=float, default=1e-8, help="agreement tolerance (default %(default)s)")
    ev.add_argument("--exclusion-band", type=float, default=DEFAULT_EXCLUSION_BAND, help="refusal band around |alpha| = 1")
    ev.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")

    sw = sub.add_parser("sweep", help="evaluate a cartesian grid of instances")
    sw.add_argument("--alpha-mod", action="append", default=None, help="pole moduli (repeatable/comma lists)")
    sw.add_argument("--alpha-arg", action="append", default=None, help="pole arguments (pi forms allowed)")
    sw.add_argument(
        "--beta", action="append", default=None,
        help="exponents: 'mod@arg', '0.5+0.1j' or bare reals (commas separate values, so no 're,im')",
    )
    sw.add_argument("--theta", action="append", default=None, help="cut angles (pi forms allowed)")
    sw.add_argument("--tol", type=float, default=1e-8)
    sw.add_argument("--exclusion-band", type=float, default=DEFAULT_EXCLUSION_BAND)
    sw.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    sw.add_argument("--out", type=str, default=None)

    vf = sub.add_parser("verify", help="run seeded internal identity checks")
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--check", action="append", default=None, choices=list(CHECK_ORDER), help="run only this check (repeatable)")
    vf.add_argument("--tol", type=float, default=None, help="override every check threshold (diagnostic)")
    vf.add_argument("--beta", type=str, default=None, help="pin the exponent across identity checks")
    vf.add_argument("--out", type=str, default=None)
    return parser


def _emit(cmd: str, path: str | None, write: Callable[[Any], None]) -> bool:
    """write(stream) on stdout, or on the file at path; False when the stream
    cannot be opened or written.  That gives one error line on stderr, except
    for a reader that closed a pipe early, which ends the command quietly."""
    try:
        if path is None:
            write(sys.stdout)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="") as stream:
                write(stream)
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):
            where = "stdout" if path is None else f"--out {path}"
            print(f"bci {cmd}: error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        if path is None:
            # as the Python docs advise for SIGPIPE: point stdout at devnull, so
            # the flush at exit cannot raise again on what is still buffered
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def _exit_code(reports: list[EvaluationReport]) -> int:
    """2 when any report disagrees or is uncertified, else 1 when every one is
    Refused, else 0: eval passes its one report, sweep its rows."""
    verdicts = {report.verdict for report in reports}
    if verdicts & {"Disagree", "Uncertified"}:
        return 2
    return 1 if verdicts == {"Refused"} else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        alpha = parse_complex(args.alpha)
        beta = parse_complex(args.beta)
        theta = parse_angle(args.theta)
        methods, rational = parse_methods(args.methods) if args.methods else (None, None)
        inst = ProblemInstance(
            alpha=alpha, beta=beta, theta=theta, tol=args.tol, exclusion_band=args.exclusion_band
        )
        if rational is not None and not rational.matches(beta):
            raise ValueError(
                f"--beta {args.beta} does not equal the requested rational exponent "
                f"{rational.m}/{rational.n}"
            )
    except ValueError as exc:
        print(f"bci eval: error: {exc}", file=sys.stderr)
        return 1
    report = evaluate_instance(inst, methods=methods, rational=rational)
    start = time.perf_counter()
    line = dumps_canonical(report_to_jsonable(report)) + "\n"
    timing_us = {**report.timing_us, "serialise": (time.perf_counter() - start) * 1e6}
    if not _emit("eval", args.out, lambda stream: stream.write(line)):
        return 1
    for name, us in timing_us.items():
        print(f"# {name}: {us:.1f} us", file=sys.stderr)
    return _exit_code([report])


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


def _write_jsonl(stream: Any, reports: list[EvaluationReport]) -> None:
    for report in reports:
        stream.write(dumps_canonical(report_to_jsonable(report)) + "\n")


def _write_csv(stream: Any, reports: list[EvaluationReport]) -> None:
    writer = csv.writer(stream)
    writer.writerow(
        [
            "alpha_re", "alpha_im", "beta_re", "beta_im", "theta",
            "method", "value_re", "value_im", "error_estimate", "status",
            "disagreement", "verdict",
        ]
    )
    for report in reports:
        inst = report.instance
        base = [repr(x) for x in (inst.alpha.real, inst.alpha.imag, inst.beta.real, inst.beta.imag, inst.theta)]
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        require_tol(args.tol)  # also on an empty grid
        mods = _parse_grid_axis(args.alpha_mod, float)
        angles = _parse_grid_axis(args.alpha_arg, parse_angle)
        betas = _parse_grid_axis(args.beta, parse_complex)
        thetas = _parse_grid_axis(args.theta, parse_angle)
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
    counts = {"Agree": 0, "Partial": 0, "Disagree": 0, "Uncertified": 0, "Refused": 0}
    for report in reports:
        counts[report.verdict] += 1
    write = _write_jsonl if args.format == "jsonl" else _write_csv
    if not _emit("sweep", args.out, lambda stream: write(stream, reports)):
        return 1
    print(
        f"# rows={len(reports)} agree={counts['Agree']} partial={counts['Partial']} "
        f"disagree={counts['Disagree']} uncertified={counts['Uncertified']} refused={counts['Refused']}",
        file=sys.stderr,
    )
    return _exit_code(reports)


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        beta = parse_complex(args.beta) if args.beta is not None else None
        checks = tuple(args.check) if args.check else None
        report = run_verify(seed=args.seed, checks=checks, tol=args.tol, beta=beta)
    except (ValueError, EvaluationError) as exc:
        print(f"bci verify: error: {exc}", file=sys.stderr)
        return 1
    if not _emit("verify", args.out, lambda stream: stream.write(dumps_canonical(report) + "\n")):
        return 1
    return 0 if report["verdict"] == "Agree" else 2


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(list(argv) if argv is not None else None)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
