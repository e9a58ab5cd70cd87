"""Command-line front end: every operation as a subcommand with JSON/CSV output.

Exit codes: 0 success, 1 internal error (any other exception, reported on one
line as ``error: internal: <Type>: <message>``), 2 input validation, 3 domain
violation (interpolation, coverage, boundary zeros), 4 numerical
non-convergence.  All floats are printed with 17 significant digits and JSON
keys are emitted in a fixed order, so identical invocations produce
byte-identical output.

Each ``_cmd_*`` returns what it prints: a JSON-able value, CSV text, or an
``_Output`` that adds files and stderr text to follow the payload.  ``main``
alone writes it, to stdout or ``--out``, and only after the subcommand has
returned, so no refusal leaves a partial file behind.  It opens every file
target before it writes anything: one that cannot be written exits 2 with
nothing printed and no file changed.

A process pays only for the subcommand it runs.  This module imports the
standard library, ``coefficients``, ``closedforms`` and ``errors``, none of
which loads numpy, so ``regularity``, ``normalize``, ``equispaced``,
``two-term`` and ``fourier-matrix`` run without numpy.  ``extend`` and
``residual --shifts`` load ``_floats`` and run there, in Python floats, when
the boundary, the extension's least breakpoint count and the grid's reads
are within its limits.  ``_floats`` holds the strip loop both engines
build with, so its numbers and its refusals (incompatible data, vanishing
strips, a seam mismatch, overflowing values, a residual sum that is not
finite) are the numpy engine's bit for bit.  Past those limits, or on
anything it hands over (invalid or non-finite data, a domain not exactly
[0, bN], a non-finite range width, a build past its node cap, a read
outside coverage), they load numpy and ``extension`` as ``popoviciu`` and
``residual --coeffs`` always do.
``periodicity`` loads numpy and ``periodicity``; ``zeros`` and
``mora-solution`` load numpy and ``expsums``.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
import warnings
from typing import NamedTuple

from . import closedforms, coefficients
from .errors import DomainViolation, InvalidInput, Nonconvergence


# -- serialization -------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    # numpy registers its integer and floating scalars with these ABCs
    if isinstance(x, numbers.Integral):
        return str(int(x))
    if isinstance(x, numbers.Real):
        return format(float(x), ".17g")
    raise TypeError(f"cannot format {type(x)!r}")


def to_json(obj) -> str:
    """Minimal JSON emitter with deterministic 17-digit float formatting."""
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(to_json(v) for v in obj) + "]"
    return _fmt(obj)


def _csv(header: str, rows) -> str:
    """``header`` plus one line per row, every cell with 17 significant digits.

    ``rows`` yields tuples of Python floats, one cell per header column;
    ``%.17g`` prints a float exactly as ``format(v, ".17g")`` does.
    """
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    return header + "\n" + "".join(line % row for row in rows)


class _Output(NamedTuple):
    """A payload, then ``(path, text)`` files and stderr text written after it."""

    payload: object
    files: tuple = ()
    stderr: str = ""


def _check_writable(paths) -> None:
    """Refuse, before any is written, a path that cannot be opened for writing.

    Each path is opened for appending, which changes no file; a file made
    here is removed again when a later path fails, which raises InvalidInput.
    """
    made = []
    for path in paths:
        new = not os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            for done in made:
                os.remove(done)
            raise InvalidInput(f"cannot write {path}: {exc.strerror or exc}") from None
        if new:
            made.append(path)


# -- input parsing -------------------------------------------------------------

def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc


def _number_list(obj, what: str) -> list[float]:
    # JSON true and false load as bool, a subclass of int: not numbers here
    if not isinstance(obj, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj
    ):
        raise InvalidInput(f"{what} must be a JSON array of numbers")
    return [float(v) for v in obj]


def _parse_vector(text: str, what: str) -> list[float]:
    """A vector given inline as a JSON array or as a path to a JSON file."""
    if text.lstrip().startswith("["):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"inline {what} is not valid JSON: {exc}") from exc
    else:
        obj = _read_json(text)
    return _number_list(obj, what)


def _shifts(text: str) -> coefficients.ShiftVector:
    return coefficients.ShiftVector(tuple(_parse_vector(text, "shifts")))


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise InvalidInput(f"--samples must be at least 1, got {samples}")


def _range(args) -> tuple[float, float]:
    lo, hi = args.range
    if not lo < hi:
        raise InvalidInput("range must satisfy lo < hi")
    return lo, hi


def _sampled_range(args, shifts) -> tuple[float, float]:
    """``--range`` of ``extend`` and ``residual``, after ``--samples`` and its budget."""
    from . import _floats

    _check_samples(args.samples)
    # each sample reads the extension at N + 1 points, before any is built
    _floats._check_reads(args.samples, len(shifts.entries))
    return _range(args)


def _boundary(args) -> tuple[list[float], list[float]]:
    """Breakpoints and values of ``--boundary``."""
    obj = _read_json(args.boundary)
    if not isinstance(obj, dict) or "breakpoints" not in obj or "values" not in obj:
        raise InvalidInput(f"{args.boundary} must be an object with 'breakpoints' and 'values'")
    return _number_list(obj["breakpoints"], "breakpoints"), _number_list(obj["values"], "values")


def _tol(args) -> float:
    from . import _floats

    return args.tol if args.tol is not None else _floats.INTERPOLATION_TOL


def _extension(args, shifts, lo: float, hi: float, data=None):
    """``--boundary`` (or its ``data``) and its extension over (min(lo, 0), max(hi, bN))."""
    from . import extension

    boundary = extension.PiecewiseLinear(*(data or _boundary(args)))
    target = (min(lo, 0.0), max(hi, shifts.largest))
    return boundary, extension.extend(boundary, shifts, target, tol=_tol(args))


def _additive(args, shifts):
    """The extension of ``--boundary`` on ``--range`` and ``--samples``.

    Returns the compatibility residual, the grid, the extension's values on
    it and its largest additive residual there, from ``_floats`` when it
    takes the sizes and the data, else from numpy and ``extension``.
    """
    from . import _floats

    lo, hi = _sampled_range(args, shifts)
    data = _boundary(args)
    b_n = shifts.largest
    target = (min(lo, 0.0), max(hi + b_n, b_n))
    out = _floats.sampled(*data, shifts.entries, target, _tol(args), lo, hi, args.samples)
    if out is not None:
        return out
    import numpy as np

    from . import extension

    boundary, sol = _extension(args, shifts, lo, hi + b_n, data)
    grid = np.linspace(lo, hi, args.samples)
    # the residual's own first read: either raises what the other would
    values = sol(grid).tolist()
    return (
        extension.check_interpolation(boundary, shifts),
        grid.tolist(),
        values,
        extension.residual_additive(sol, shifts, grid),
    )


# -- subcommands ----------------------------------------------------------------

def _cmd_regularity(args):
    vec = coefficients.normalize(_parse_vector(args.coeffs, "coefficients"))
    ri = coefficients.regularity_index(vec)
    return {
        "m": ri.m,
        "contraction": ri.contraction,
        "lower_bound": ri.lower_bound,
        "upper_bound": ri.upper_bound,
    }


def _cmd_normalize(args):
    vec = coefficients.normalize(_parse_vector(args.coeffs, "coefficients"))
    return {"entries": list(vec.entries), "shifts": list(coefficients.to_additive(vec).entries)}


def _cmd_extend(args):
    residual, grid, values, peak = _additive(args, _shifts(args.shifts))
    report = {"interpolation_residual": residual, "max_additive_residual": peak}
    return _Output(_csv("w,value", zip(grid, values)), stderr=to_json(report) + "\n")


def _cmd_residual(args):
    if (args.shifts is None) == (args.coeffs is None):
        raise InvalidInput("give exactly one of --shifts or --coeffs")
    if args.shifts is not None:
        residual, _, _, peak = _additive(args, _shifts(args.shifts))
        return {"max_residual": peak, "interpolation_residual": residual}
    import numpy as np

    from . import extension

    vec = coefficients.normalize(_parse_vector(args.coeffs, "coefficients"))
    shifts = coefficients.to_additive(vec)
    lo, hi = _sampled_range(args, shifts)
    if lo <= 0.0:
        raise InvalidInput("multiplicative grid must be positive")
    boundary, sol = _extension(args, shifts, math.log(lo), math.log(hi) + shifts.largest)
    grid = np.geomspace(lo, hi, args.samples)
    return {
        "max_residual": extension.residual_multiplicative(lambda x: sol(np.log(x)), vec, grid),
        "interpolation_residual": extension.check_interpolation(boundary, shifts),
    }


def _cmd_periodicity(args):
    from . import periodicity

    shifts = _parse_vector(args.shifts, "shifts")
    tol = args.tol if args.tol is not None else periodicity.CERTIFICATE_TOL
    certs = periodicity.find_periodic_alphas(
        shifts, args.alpha_max, grid_step=args.grid_step, tol=tol
    )
    return [{"alpha": c.alpha, "period": c.period, "residual": c.system_residual} for c in certs]


def _cmd_equispaced(args):
    return closedforms.equispaced_alphas(args.n, args.d, args.m_max)


def _cmd_two_term(args):
    verdict = closedforms.two_term_periodic_exists(args.p, args.q)
    witness = list(verdict.witness) if verdict.witness is not None else None
    return {"exists": verdict.exists, "witness": witness}


def _cmd_fourier_matrix(args):
    mat = closedforms.fourier_matrix(args.k, args.theta, _parse_vector(args.shifts, "shifts"))
    return {"entries": [list(r) for r in mat.entries], "det": mat.det}


def _cmd_zeros(args):
    from . import expsums

    rect = expsums.SearchRectangle(
        args.re_min, args.re_max, args.im_min, args.im_max, args.grid_re, args.grid_im
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        zeros = expsums.find_zeros(args.n, rect)
    payload = [
        {"re": z.z.real, "im": z.z.imag, "residual": z.modulus_residual, "N": z.n}
        for z in zeros
    ]
    files = ()
    if args.scan_csv:
        # the search seeds without a full scan, so the CSV takes the only one
        re, im, mod = expsums.scan_modulus(args.n, rect)
        re = re.tolist()
        rows = (
            (x, y, m) for y, mod_row in zip(im.tolist(), mod.tolist()) for x, m in zip(re, mod_row)
        )
        files = ((args.scan_csv, _csv("re,im,abs", rows)),)
    return _Output(payload, files, "".join(f"warning: {w.message}\n" for w in caught))


def _cmd_mora_solution(args):
    import numpy as np

    from . import expsums

    if not (math.isfinite(args.re) and math.isfinite(args.im)):
        raise InvalidInput("--re and --im must be finite")
    _check_samples(args.samples)
    # n terms per sum, and n per sample of the residual, before any is evaluated
    expsums._check_terms(args.n, args.samples)
    alpha = complex(args.re, args.im)
    # inf where the modulus overflows though the sum's parts are finite
    residual = expsums._modulus(expsums.power_sum(args.n, alpha))
    # written so that a NaN residual fails too
    if not residual <= expsums.ZERO_RESIDUAL_TOL:
        raise DomainViolation(
            f"{alpha} is not a zero: |sum| = {residual:.3g} exceeds "
            f"{expsums.ZERO_RESIDUAL_TOL:.0e}"
        )
    sol = expsums.solution_from_zero(
        expsums.ComplexZero(z=alpha, modulus_residual=residual, n=args.n)
    )
    if not (math.isfinite(args.range[0]) and math.isfinite(args.range[1])):
        raise InvalidInput("--range must be finite")
    lo, hi = _range(args)
    # linspace's hi - lo would overflow, and each sample read inf or NaN
    if math.isinf(hi - lo):
        raise InvalidInput(f"--range {lo!r} {hi!r} is wider than a float holds")
    x = np.linspace(lo, hi, args.samples)
    check = x[x < 0.0]
    if not sol.continuous_at_zero:
        check = check[np.abs(check) >= 0.01]
    report = {
        "continuous_at_zero": sol.continuous_at_zero,
        "equation_residual": expsums.residual_integer_equation(sol, args.n, check),
    }
    table = _csv("x,value", zip(x.tolist(), sol(x).tolist()))
    return _Output(table, stderr=to_json(report) + "\n")


def _cmd_popoviciu(args):
    from . import extension

    # before the span, which an order no float holds would overflow
    extension._check_order(args.order)
    shifts = _shifts(args.shifts)
    span = 2 * args.order * args.h
    _, sol = _extension(args, shifts, min(args.x, args.x + span), max(args.x, args.x + span))
    return {"det": extension.popoviciu_determinant(sol, args.x, args.h, args.order)}


# -- parser ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every float literal as a value.

    Plain argparse takes ``-1e1`` or ``-inf`` for an option, so
    ``--range -1e1 5`` fails with "expected 2 arguments" while ``--range -10 5``
    works.  No option here looks like a number, so a token that ``float``
    parses is always a value.  Subparsers inherit the class.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this file instead of stdout")
    # only the subcommands that read a tolerance accept one
    tolerant = argparse.ArgumentParser(add_help=False, parents=[common])
    tolerant.add_argument("--tol", type=float, help="override the subcommand's tolerance")

    parser = _Parser(
        prog="dilateq",
        description="Solutions of f(x) + f(a1 x) + ... + f(aN x) = 0 from the shell.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("regularity", parents=[common], help="regularity index and bounds")
    p.add_argument("coeffs", help="JSON array of dilation factors (inline or path)")
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("normalize", parents=[common], help="canonical coefficient form")
    p.add_argument("coeffs")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("extend", parents=[tolerant], help="extend boundary data, dump CSV")
    p.add_argument("boundary", help="JSON file with breakpoints/values on [0, bN]")
    p.add_argument("--shifts", required=True, help="JSON array of shifts (inline or path)")
    p.add_argument("--range", nargs=2, type=float, required=True, metavar=("LO", "HI"))
    p.add_argument("--samples", type=int, default=1001)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("residual", parents=[tolerant], help="max equation residual on a grid")
    p.add_argument("--boundary", required=True)
    p.add_argument("--shifts", help="additive form: JSON array of shifts")
    p.add_argument("--coeffs", help="multiplicative form: JSON array of factors")
    p.add_argument("--range", nargs=2, type=float, required=True, metavar=("LO", "HI"))
    p.add_argument("--samples", type=int, default=10001)
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser("periodicity", parents=[tolerant], help="periodic-solution certificates")
    p.add_argument("--shifts", required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--grid-step", type=float, default=None)
    p.set_defaults(func=_cmd_periodicity)

    p = sub.add_parser("equispaced", parents=[common], help="closed-form frequencies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.set_defaults(func=_cmd_equispaced)

    p = sub.add_parser("two-term", parents=[common], help="two-shift rational criterion")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_two_term)

    p = sub.add_parser("fourier-matrix", parents=[common], help="harmonic coupling matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--shifts", required=True)
    p.set_defaults(func=_cmd_fourier_matrix)

    p = sub.add_parser("zeros", parents=[common], help="zeros of 1 + 2^z + ... + N^z")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--re-min", type=float, default=-3.0)
    p.add_argument("--re-max", type=float, default=2.0)
    p.add_argument("--im-min", type=float, default=0.0)
    p.add_argument("--im-max", type=float, default=30.0)
    p.add_argument("--grid-re", type=int, default=61)
    p.add_argument("--grid-im", type=int, default=241)
    p.add_argument("--scan-csv", help="also dump |sum| on the scan grid to this CSV")
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("mora-solution", parents=[common], help="one-sided power solution")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--re", type=float, required=True, help="real part of the zero")
    p.add_argument("--im", type=float, required=True, help="imaginary part of the zero")
    p.add_argument("--range", nargs=2, type=float, default=(-5.0, 5.0), metavar=("LO", "HI"))
    p.add_argument("--samples", type=int, default=1001)
    p.set_defaults(func=_cmd_mora_solution)

    p = sub.add_parser("popoviciu", parents=[tolerant], help="Hankel determinant of an extension")
    p.add_argument("--boundary", required=True)
    p.add_argument("--shifts", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_popoviciu)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    tol = getattr(args, "tol", None)
    if tol is not None and not tol > 0.0:
        sys.stderr.write("error: --tol must be positive\n")
        return 2
    try:
        out = args.func(args)
        if not isinstance(out, _Output):
            out = _Output(out)
        payload = out.payload
        text = payload if isinstance(payload, str) else to_json(payload) + "\n"
        files = (((args.out, text),) if args.out else ()) + out.files
        _check_writable(path for path, _ in files)
        if not args.out:
            sys.stdout.write(text)
        # in order: where two targets are one file, the later text remains
        for path, content in files:
            with open(path, "w") as fh:
                fh.write(content)
        sys.stderr.write(out.stderr)
    except InvalidInput as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DomainViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except Nonconvergence as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except Exception as exc:
        # a defect, or a resource such as memory running out: one line, no traceback
        message = " ".join(str(exc).split())
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {message}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
