"""Command-line front end.

Subcommands: classify, invariants, ordres, profile, reduce-at, find-crucial,
verify, sweep, each declared in one place, the table COMMANDS.  Every
command takes -p <prime>, refused unless prime, and emits either a
human-readable listing or, with --json, a single-line JSON document with a
stable schema (field "schema": 1).  Rationals are rendered as strings
"num/den" (plain "num" for integers) so consumers never lose precision.
Exit codes: 0 success, 1 input error, 2 consistency failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from enum import Enum
from fractions import Fraction
from itertools import product
from math import prod

from .classifier import W2, classify_residue, multiplier_valuations, stratum
from .crucial import distinct_fixed_lift, multiple_fixed_lift, verify_consistency
from .errors import ConsistencyFailure, QuadberkError
from .invariants import sigma_invariants
from .padic import INF, PrimeCtx
from .parsing import parse_map
from .quadmap import TypeIIPoint, find_crucial_on_segment, ord_res_at, ord_res_profile, reduce_at
from .value import Value

SCHEMA = 1


def fmt_rat(x) -> str:
    return str(Fraction(x))


def _detail_json(value):
    """A ConsistencyFailure detail as JSON: rationals via fmt_rat, value
    objects as objects of their fields, enums by their value."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, Fraction)):
        return fmt_rat(value)
    if isinstance(value, (list, tuple)):
        return [_detail_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _detail_json(v) for k, v in value.items()}
    if isinstance(value, Value):
        return {name: _detail_json(getattr(value, name)) for name in value.__slots__}
    if isinstance(value, Enum):
        return value.value
    return repr(value)


#: largest decimal exponent parse_rat reads: Fraction() expands 1e3000000 in full
_MAX_EXPONENT = 10_000
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*$")


def parse_rat(text: str) -> Fraction:
    """An ASCII rational in any form Fraction() reads, exponent <= _MAX_EXPONENT."""
    if not text.isascii():
        raise QuadberkError(f"invalid rational {text!r}: not ASCII")
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        # more digits than the cap has is above it, whatever they are
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise QuadberkError(
                f"invalid rational {text!r}: exponent above {_MAX_EXPONENT} in magnitude"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise QuadberkError(f"invalid rational {text!r}: {exc}") from exc


def _emit(args, fields: dict) -> None:
    """One command's fields: as JSON under the schema, or as text."""
    if args.json:
        print(json.dumps({"schema": SCHEMA, **fields}))
    elif "results" in fields:  # a sweep: one line per row
        for row in fields["results"]:
            bits = [f"{key}={row[key]}" for key in ("l1", "l2") if key in row]
            if "error" in row:
                bits.append(row["error"])
            else:
                bits.append(f"stratum={row['stratum']}")
                if "x_tilde" in row:
                    bits.append(f"x_tilde={row['x_tilde']}")
                bits.append(f"xi=({row['xi']['center']}, {row['xi']['rexp']})")
                bits.append(f"min_ord_res={row['min_ord_res']}")
            print("  ".join(bits))
    else:
        for key, value in fields.items():
            print(f"{key}: {json.dumps(value) if isinstance(value, (list, dict)) else value}")


def _point_dict(point: TypeIIPoint) -> dict:
    return {"center": fmt_rat(point.center), "rexp": fmt_rat(point.radius_exp)}


def _stratum_fields(strat) -> dict:
    fields = {"stratum": strat.tag}
    if strat.tag == W2:
        fields["x_tilde"] = str(strat.x_tilde)
    return fields


def _sigma_fields(sigma) -> dict:
    return {
        "sigma1": fmt_rat(sigma.sigma1),
        "sigma2": fmt_rat(sigma.sigma2),
        "sigma3": fmt_rat(sigma.sigma3),
    }


def _residue_fields(rc) -> dict:
    fields = {"residue_class": rc.kind.value}
    if rc.x_tilde is not None:
        fields["residue_x_tilde"] = str(rc.x_tilde)
    return fields


def cmd_classify(args, ctx: PrimeCtx) -> dict:
    sigma = sigma_invariants(parse_map(args.map))
    fields = _stratum_fields(stratum(sigma, ctx))
    fields.update(_sigma_fields(sigma))
    fields["multiplier_valuations"] = [
        "inf" if v == INF else fmt_rat(v) for v in multiplier_valuations(sigma, ctx)
    ]
    return fields


def cmd_invariants(args, ctx: PrimeCtx) -> dict:
    return _sigma_fields(sigma_invariants(parse_map(args.map)))


def _point_from_args(args) -> TypeIIPoint:
    rexp = parse_rat(args.rexp)
    return TypeIIPoint(parse_rat(args.center), rexp)


def cmd_ordres(args, ctx: PrimeCtx) -> dict:
    point = _point_from_args(args)
    value = ord_res_at(parse_map(args.map), point, ctx)
    return {"point": _point_dict(point), "ord_res": fmt_rat(value)}


def cmd_profile(args, ctx: PrimeCtx) -> dict:
    lift, center = parse_map(args.map), parse_rat(args.center)
    pieces = ord_res_profile(lift, center, ctx)
    return {
        "center": fmt_rat(center),
        # adjacent pieces meet where their lines cross
        "breakpoints": [fmt_rat(Fraction(b1 - b2, k2 - k1))
                        for (k1, b1), (k2, b2) in zip(pieces, pieces[1:])],
        "pieces": [{"slope": fmt_rat(k), "intercept": fmt_rat(b)} for k, b in pieces],
    }


def cmd_reduce_at(args, ctx: PrimeCtx) -> dict:
    point = _point_from_args(args)
    residue = reduce_at(parse_map(args.map), point, ctx)
    fields = {
        "point": _point_dict(point),
        "degree": residue.degree,
        "f_tilde": list(residue.ftilde),
        "g_tilde": list(residue.gtilde),
    }
    fields.update(_residue_fields(classify_residue(residue)))
    return fields


def cmd_find_crucial(args, ctx: PrimeCtx) -> dict:
    lift, center = parse_map(args.map), parse_rat(args.center)
    argmin, value = find_crucial_on_segment(lift, center, ctx)
    return {"center": fmt_rat(center), "argmin": fmt_rat(argmin), "min_value": fmt_rat(value)}


def cmd_verify(args, ctx: PrimeCtx) -> dict:
    centers = [parse_rat(c) for c in args.center] if args.center else None
    report = verify_consistency(parse_map(args.map), ctx, centers=centers)
    fields = {"consistent": True, "xi": _point_dict(report.xi)}
    fields.update(_stratum_fields(report.stratum))
    if report.residue_class is not None:
        fields.update(_residue_fields(report.residue_class))
    else:
        fields["residue_class"] = "Unavailable"
        fields["residue_unavailable"] = report.residue_unavailable
    fields["min_ord_res"] = fmt_rat(report.min_ord_res)
    fields.update(_sigma_fields(report.sigma))
    return fields


#: values in one sweep, and in any one range of it
_MAX_SWEEP = 100_000


def _check_sweep_size(count: int, what: str) -> None:
    if count > _MAX_SWEEP:
        raise QuadberkError(f"{what} has {count} values; a sweep takes at most {_MAX_SWEEP}")


def _parse_range(text: str) -> list:
    """Comma list of rationals, or "start:stop[:step]" (inclusive ends) of
    at most _MAX_SWEEP values, counted before one is built."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise QuadberkError(f"bad range {text!r}")
        start, stop = parse_rat(parts[0]), parse_rat(parts[1])
        step = parse_rat(parts[2]) if len(parts) == 3 else Fraction(1)
        if step <= 0:
            raise QuadberkError("range step must be positive")
        count = max((stop - start) // step + 1, 0)
        _check_sweep_size(count, f"range {text!r}")
        return [start + i * step for i in range(count)]
    return [parse_rat(part) for part in text.split(",") if part.strip()]


def cmd_sweep(args, ctx: PrimeCtx) -> dict:
    if args.form == "A" and args.l2:
        raise QuadberkError("--l2 does not apply to form A (one parameter s)")
    if args.form == "B" and not args.l2:
        raise QuadberkError("form B needs both --l1 and --l2")
    texts = [args.l1] if args.form == "A" else [args.l1, args.l2]
    axes = [sorted(set(_parse_range(text))) for text in texts]
    _check_sweep_size(prod(map(len, axes)), "the sweep")
    rows = []
    for params in product(*axes):
        row = dict(zip(("l1", "l2"), map(fmt_rat, params)))
        try:
            lift = multiple_fixed_lift(*params) if args.form == "A" else distinct_fixed_lift(*params)
            report = verify_consistency(lift, ctx)
        except ConsistencyFailure:
            raise
        except QuadberkError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        else:
            row.update(_stratum_fields(report.stratum))
            row["xi"] = _point_dict(report.xi)
            row["min_ord_res"] = fmt_rat(report.min_ord_res)
            row["consistent"] = True
        rows.append(row)
    return {"form": args.form, "results": rows}


_MAP = ("--map", {"required": True, "help": 'map expression, e.g. "z + 1/5 + 1/z"'})
_CENTER = ("--center", {"default": "0"})
_REXP = ("--rexp", {"default": "0", "help": "radius exponent m (integer)"})

#: every subcommand: name, help, its options after -p and --json as
#: (flag, add_argument keywords), and its function (args, ctx) -> fields
COMMANDS = (
    ("classify", "stratum W1-W4 and sigma invariants", (_MAP,), cmd_classify),
    ("invariants", "sigma invariants only", (_MAP,), cmd_invariants),
    ("ordres", "ordRes at one type II point", (_MAP, _CENTER, _REXP), cmd_ordres),
    ("profile", "exact piecewise-affine ordRes profile", (_MAP, _CENTER), cmd_profile),
    ("reduce-at", "residue map at one type II point", (_MAP, _CENTER, _REXP), cmd_reduce_at),
    ("find-crucial", "minimize the ordRes profile on a segment", (_MAP, _CENTER), cmd_find_crucial),
    ("verify", "cross-check all computation routes", (_MAP, ("--center", {
        "action": "append", "help": "segment center for maps not in normal form (repeatable)",
    })), cmd_verify),
    ("sweep", "batch verification over normal-form parameters", (
        ("--form", {"choices": ("A", "B"), "required": True,
                    "help": "A: z + s + 1/z; B: (z^2 + l1 z)/(l2 z + 1)"}),
        ("--l1", {"required": True, "help": "values for s (form A) or lambda1 (form B)"}),
        ("--l2", {"help": "values for lambda2 (form B only)"}),
    ), cmd_sweep),
)


def _ascii_int(text: str) -> int:
    """int(text) for ASCII text: int() alone also reads fullwidth,
    Arabic-Indic and other Unicode digits."""
    if not text.isascii():
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}: not ASCII")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadberk",
        description="Exact p-adic reduction types of quadratic rational maps over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options, func in COMMANDS:
        c = sub.add_parser(name, help=help_text)
        c.add_argument("-p", type=_ascii_int, required=True, help="prime p")
        c.add_argument("--json", action="store_true", help="emit JSON on stdout")
        for flag, keywords in options:
            c.add_argument(flag, **keywords)
        c.set_defaults(func=func)
    return parser


#: options whose value is a map, a rational or a range of rationals: every
#: option of the table but --form, whose value is a choice
_VALUE_OPTIONS = {
    flag for _, _, options, _ in COMMANDS for flag, keywords in options if "choices" not in keywords
}


def _attach_negative_values(argv: list) -> list:
    """Write "--l1 -2:2:1/2" as "--l1=-2:2:1/2" and "--map -z^2+1" as
    "--map=-z^2+1": argparse reads a value such as -1/2, -.5, -2:2 or
    -(z+1) that follows an option as an option of its own.  No option of
    the parser starts with "-" and a digit, ".", "z" or "("."""
    out = []
    for token in argv:
        head = token[1:2]
        if out and out[-1] in _VALUE_OPTIONS and token[:1] == "-" and (head.isdigit() or head in (".", "z", "(")):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def run(argv=None) -> int:
    """Run one command; returns its exit code.

    Exact answers can have more digits than Python converts between int and
    str by default (4,300), so the limit is lifted while the command runs
    and restored before run returns.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        _emit(args, args.func(args, PrimeCtx(args.p)))
        return 0
    except ConsistencyFailure as exc:
        if args.json:
            _emit(args, {"consistent": False, "detail": str(exc), "details": _detail_json(exc.details)})
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2
    except (QuadberkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
