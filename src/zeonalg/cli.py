"""Command-line interface: one binary, one JSON value in, one out.

Subcommands read a JSON payload from a path argument or stdin and write
either JSON (default) or a human-readable rendering. Exit codes: 0 on
success, 1 on malformed input or usage, 2 on domain errors (singular
input, non-splitting polynomial, not self-adjoint, ...) with a
machine-readable {"error": code, "detail": ...} object on stdout.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys

from . import poly, spectral
from .algebra import ZeonElement
from .errors import NonFiniteResultError, ParseError, ZeonError
from .linalg import ZeonMatrix, determinant, eliminate, mat_inverse
from .tolerances import DEFAULT, Tolerances


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to the malformed-input exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(json.dumps({"error": "usage", "detail": message}))
        raise SystemExit(1)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            value = complex(*map(float, parts))
            if cmath.isfinite(value):
                return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected 're' or 're,im' with finite float parts, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", nargs="?", metavar="PATH",
                        help="JSON input file (default: stdin; '-' also means stdin)")
    common.add_argument("-o", "--output", metavar="PATH",
                        help="write the result here instead of stdout")
    common.add_argument("--tol-prune", type=float, metavar="X",
                        help=f"prune tolerance (default {DEFAULT.prune:g})")
    common.add_argument("--tol-compare", type=float, metavar="X",
                        help=f"comparison tolerance (default {DEFAULT.compare:g})")
    common.add_argument("--tol-scalar", type=float, metavar="X",
                        help=f"scalar-zero tolerance (default {DEFAULT.scalar_zero:g})")
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true", default=True,
                     help="emit JSON (default)")
    fmt.add_argument("--pretty", dest="as_json", action="store_false",
                     help="emit a human-readable rendering")

    parser = _Parser(prog="zeon",
                     description="Computer algebra for the complex zeon algebra.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def cmd(name, help_text, **kwargs):
        return sub.add_parser(name, parents=[common], help=help_text,
                              description=help_text, **kwargs)

    cmd("inv", "invert a zeon element")
    p_root = cmd("root", "principal kth root of a zeon element")
    p_root.add_argument("-k", type=int, required=True, metavar="K",
                        help="root order, a positive integer")
    cmd("polydiv", "divide polynomials: input {\"dividend\": ..., \"divisor\": ...}")
    p_zero = cmd("polyzero", "zeros of a zeon polynomial")
    p_zero.add_argument("--lambda0", type=_parse_complex, metavar="RE[,IM]",
                        help="lift the zeon zero above this simple shadow zero; "
                             "without it, report the shadow zeros")
    cmd("split", "all zeon zeros when the shadow has only simple zeros")
    cmd("det", "determinant of a square zeon matrix")
    cmd("matinv", "inverse of a zeon matrix with invertible scalar part")
    cmd("eliminate", "Gaussian elimination report for a zeon matrix")
    cmd("charpoly", "characteristic polynomial of a square zeon matrix")
    cmd("eigen", "lifted eigenvalues and eigenvectors (self-adjointness not required)")
    cmd("spectral", "full spectral decomposition of a self-adjoint zeon matrix")
    return parser


def _load_payload(args) -> object:
    if args.input and args.input != "-":
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.input}: {exc}") from exc
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _tolerances(args) -> Tolerances:
    def given(value, default):
        return default if value is None else value

    try:
        return Tolerances(given(args.tol_prune, DEFAULT.prune),
                          given(args.tol_compare, DEFAULT.compare),
                          given(args.tol_scalar, DEFAULT.scalar_zero))
    except ValueError as exc:
        raise ParseError(f"bad tolerances: {exc}") from exc


SIG = 6  # significant figures for pretty output


def _pretty_ops(ops) -> str:
    lines = []
    for op in ops:
        if op.kind == "swap":
            lines.append(f"swap rows {op.i} and {op.j}")
        else:
            lines.append(f"add ({op.factor.pretty(SIG)}) * row {op.i} to row {op.j}")
    return "\n".join(lines) if lines else "(none)"


def _run_command(args, tol: Tolerances) -> tuple[dict, str]:
    """Returns (json payload, pretty text) for the requested command."""
    payload = _load_payload(args)
    name = args.command

    if name == "inv":
        result = ZeonElement.from_json(payload, tol).inverse(tol)
        return result.to_json(), result.pretty(SIG)

    if name == "root":
        if args.k < 1:
            raise ParseError("-k must be a positive integer")
        result = ZeonElement.from_json(payload, tol).kth_root(args.k, tol)
        return result.to_json(), result.pretty(SIG)

    if name == "polydiv":
        if not isinstance(payload, dict) or "dividend" not in payload or "divisor" not in payload:
            raise ParseError("polydiv input must be {\"dividend\": ..., \"divisor\": ...}")
        dividend = poly.ZeonPolynomial.from_json(payload["dividend"], tol)
        divisor = poly.ZeonPolynomial.from_json(payload["divisor"], tol)
        quotient, remainder = poly.poly_divide(dividend, divisor, tol)
        obj = {"quotient": quotient.to_json(), "remainder": remainder.to_json()}
        text = f"quotient: {quotient.pretty(SIG)}\nremainder: {remainder.pretty(SIG)}"
        return obj, text

    if name == "polyzero":
        phi = poly.ZeonPolynomial.from_json(payload, tol)
        if args.lambda0 is not None:
            result = poly.lift_simple_zero(phi, args.lambda0, tol)
            return result.to_json(), result.pretty(SIG)
        report = poly.complex_roots(phi, tol)
        lines = [f"{r.to_json()['re']:.6g}{r.to_json()['im']:+.6g}j  "
                 f"multiplicity {r.multiplicity}  "
                 f"{'simple' if r.simple else 'not simple'}" for r in report.roots]
        lines.append(f"residual: {report.residual:.3g}")
        return report.to_json(), "\n".join(lines)

    if name == "split":
        zeros = poly.split(poly.ZeonPolynomial.from_json(payload, tol), tol)
        obj = {"zeros": [z.to_json() for z in zeros]}
        return obj, "\n".join(z.pretty(SIG) for z in zeros)

    if name == "det":
        result = determinant(ZeonMatrix.from_json(payload, tol), tol)
        return result.to_json(), result.pretty(SIG)

    if name == "matinv":
        result = mat_inverse(ZeonMatrix.from_json(payload, tol), tol)
        return result.to_json(), result.pretty(SIG)

    if name == "eliminate":
        report = eliminate(ZeonMatrix.from_json(payload, tol), tol)
        text = "\n".join([
            "upper:", report.upper.pretty(SIG),
            f"det_factor: {report.det_factor.pretty(SIG)}",
            f"pivot_count: {report.pivot_count}",
            "ops:", _pretty_ops(report.ops),
        ])
        return report.to_json(), text

    if name == "charpoly":
        chi = spectral.char_poly(ZeonMatrix.from_json(payload, tol), tol)
        return chi.to_json(), chi.pretty(SIG)

    if name == "eigen":
        matrix = ZeonMatrix.from_json(payload, tol)
        pairs = spectral._eigenpairs(matrix, tol)
        # root multiplicities sum to m, so only an all-simple spectrum lifts m values
        simple = len(pairs) == matrix.rows
        obj = {"eigenvalues": [lam.to_json() for lam, _ in pairs],
               "eigenvectors": [vec.to_json() for _, vec in pairs],
               "spectrally_simple": simple}
        lines = []
        for lam, vec in pairs:
            lines.append(f"lambda = {lam.pretty(SIG)}")
            lines.append(f"  vector = {vec.pretty(SIG)}")
        lines.append(f"spectrally_simple: {str(simple).lower()}")
        return obj, "\n".join(lines)

    if name == "spectral":
        decomposition = spectral.spectral_decompose(ZeonMatrix.from_json(payload, tol), tol)
        obj = decomposition.to_json()
        lines = []
        for pair, proj in zip(decomposition.eigenpairs, decomposition.projections):
            lines.append(f"lambda = {pair.value.pretty(SIG)}")
            lines.append(f"  normalized vector = {pair.normalized.pretty(SIG)}")
        for key, val in decomposition.checks.items():
            lines.append(f"check {key}: {val:.3g}")
        return obj, "\n".join(lines)

    raise ParseError(f"unknown command {name!r}")


def _result_json(obj) -> str:
    """The result as JSON; a NaN or infinite coefficient makes it a domain error.

    Such a value comes from overflow (a determinant of entries near 1e100,
    say), and JSON has no literal for it, so no format prints it as a result.
    """
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResultError(
            "the result has a NaN or infinite coefficient (overflow); "
            "it is not a valid zeon value") from exc


def _emit(args, text: str) -> int:
    """Writes the result; an unwritable output path is a usage error (exit 1)."""
    if not args.output:
        print(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        print(json.dumps({"error": "usage", "detail": f"cannot write {args.output}: {exc}"}))
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        tol = _tolerances(args)
        obj, pretty_text = _run_command(args, tol)
        json_text = _result_json(obj)
    except ParseError as exc:
        print(json.dumps({"error": "parse", "detail": str(exc)}))
        return 1
    except ZeonError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}))
        return 2
    return _emit(args, json_text if args.as_json else pretty_text)


def run_main() -> None:
    """Runs main; a reader that closed stdout makes it exit 1 silently, like an unwritable -o."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull so that is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run_main()
