"""Command-line front end: analyze, predict, lpseries, converge, compare."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from functools import partial

import numpy as np

from .asymptotics import PhaseChoice, lp_solve_quadratic
from .corrector import convergence_study, ConvergenceRecord
from .errors import BthomError
from .model import ModelError, builtin_model, parse_model, HH_BT_STATE, HH_BT_ALPHA
from .nfcoeffs import analyze_bt
from .predictor import Method, make_mesh, sample_predictor, lift_parameters, planar_series

EXIT_USAGE = 2
EXIT_NUMERIC = 3

_BUILTIN_POINTS = {
    "bt_nf": (np.zeros(2), np.zeros(2)),
    "hh": (HH_BT_STATE, HH_BT_ALPHA),
}

# --methods names, as the study CSV writes them
_METHODS = {m.label: m for m in (
    Method("rp"), Method("rp", PhaseChoice.L2), Method("lp"),
    Method("lp", PhaseChoice.ALTGAMMA), Method("lp", lp_xi_identity=True))}


class UsageError(argparse.ArgumentTypeError):
    """Bad command-line input; raised by an argument's type, argparse reports it."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _number(option: str, text: str, kind=float):
    """kind(text), which must be finite: anything else is a usage error naming option."""
    try:
        value = kind(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise UsageError(f"bad {option} value {text!r}")


def _emit(path, text: str, note: str | None = None) -> None:
    """Print text, or write it to path and print note; an unwritable path is a usage error."""
    if not path:
        print(text, end="")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from None
    if note:
        print(note)


def _load_model(args):
    name = args.model
    coeffs = {}
    for item in args.coeff or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise UsageError(f"bad --coeff {item!r}; expected KEY=VALUE")
        coeffs[key] = _number("--coeff", val)
    if name in ("bt_nf", "hh"):
        try:
            return builtin_model(name, **coeffs)
        except (TypeError, ValueError) as exc:      # a coefficient the builtin lacks
            raise UsageError(f"--coeff: {exc}") from None
    if coeffs:
        raise UsageError("--coeff applies to the builtin bt_nf model only; "
                         "a model file sets its constants with 'fix'")
    try:
        with open(name, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read model file: {exc}") from None
    return parse_model(text, name=name)


def _bt_point(args, model):
    if (args.x0 is None) != (args.alpha0 is None):
        raise UsageError("--x0 and --alpha0 must be given together")
    if args.x0 is not None:
        x0 = np.array([_number("--x0", v) for v in args.x0.split(",")])
        alpha0 = np.array([_number("--alpha0", v) for v in args.alpha0.split(",")])
        return x0, alpha0
    if model.name in _BUILTIN_POINTS:
        return _BUILTIN_POINTS[model.name]
    raise UsageError("need --x0 and --alpha0 for a user model")


def _add_point_args(p):
    p.add_argument("--model", required=True,
                   help="model file path or builtin name (bt_nf, hh)")
    p.add_argument("--coeff", action="append", metavar="KEY=VALUE",
                   help="builtin bt_nf coefficient (a, b, c1, d, e, a1, b1)")
    p.add_argument("--x0", help="comma-separated approximate BT state")
    p.add_argument("--alpha0", help="comma-separated BT parameter values")


def _mesh(args):
    if args.ntst < 2 or args.ncol < 2:
        raise UsageError("--ntst and --ncol must be at least 2")
    return make_mesh(args.ntst, args.ncol)


def _method(args) -> Method:
    if not 0 <= args.order <= 3:
        raise UsageError("--order must be in 0..3")
    phase = PhaseChoice(args.phase)
    return Method(kind=args.method, phase=phase, order=args.order)


def _check_phase(option: str, expansion, method: Method) -> None:
    try:
        planar_series(expansion, method, 0.0, 0.0)
    except ValueError as exc:      # a phase the series or normal form lacks
        raise UsageError(f"{option}: {exc}") from None


def cmd_analyze(args) -> int:
    model = _load_model(args)
    x0, alpha0 = _bt_point(args, model)
    variants = [args.variant] if args.variant != "all" else ["orbital", "smooth", "hyper"]
    out = {}
    for var in variants:
        oracle, ex = analyze_bt(model, x0, alpha0, var)
        report = ex.as_dict() | {name: getattr(ex.eig, name).tolist()
                                 for name in ("x0", "alpha0", "q0", "q1", "p0", "p1")}
        report["eig_residuals"] = ex.eig.residuals(oracle.A)
        out[var] = report
        print(f"variant {var}: a = {_fmt(ex.a)}  b = {_fmt(ex.b)}  "
              f"theta1000 = {_fmt(ex.theta1000)}  theta0001 = {_fmt(ex.theta0001)}")
        if var != "orbital":
            print(f"  a1 = {_fmt(ex.a1)}  b1 = {_fmt(ex.b1)}  "
                  f"d = {_fmt(ex.d)}  e = {_fmt(ex.e)}")
        print(f"  max bordered-solve residual: {_fmt(ex.max_solve_residual)}")
    if args.coeffs or args.out:
        _emit(args.out, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_predict(args) -> int:
    if args.eps <= 0:
        raise UsageError("--eps must be positive")
    method = _method(args)
    model = _load_model(args)
    x0, alpha0 = _bt_point(args, model)
    _, ex = analyze_bt(model, x0, alpha0, args.variant)
    _check_phase("--phase", ex, method)
    mesh = _mesh(args)
    try:
        pred = sample_predictor(ex, method, args.eps, mesh, k=args.k)
    except ValueError as exc:   # the end distance k is outside (0, A0)
        msg = f"--k: {exc}" if args.k is not None else (
            f"the default end distance k = eps*1e-4: {exc}; give a smaller --k")
        raise UsageError(msg) from None
    _emit(args.out, json.dumps(pred.as_dict(), indent=2) + "\n")
    return 0


def cmd_lpseries(args) -> int:
    if args.order < 1:
        raise UsageError("--order must be at least 1")
    series = lp_solve_quadratic(args.order)
    lines = ["i,tau_i,sigma_i"]
    for i in range(args.order):
        tau = series.tau[i]
        sig = series.sigma[i] if i < len(series.sigma) else ""
        lines.append(f"{i},{tau},{sig}")
    csv = "\n".join(lines) + "\n"
    omega = {f"omega{i}": [str(c) for c in p] for i, p in enumerate(series.omega)}
    side = args.out and os.path.splitext(args.out)[0] + ".json"
    if side and side == args.out:
        raise UsageError(f"--out {args.out!r} is the path of the omega sidecar; "
                         "give it another extension")
    _emit(args.out, csv)
    _emit(side, json.dumps(omega, indent=2) + "\n", f"wrote {args.out} and {side}")
    return 0


def _parse_amplitudes(option: str, spec: str):
    if spec.count(":") == 2:
        lo, hi, cnt = spec.split(":")
        lo, hi, cnt = _number(option, lo), _number(option, hi), _number(option, cnt, int)
        if not (lo > 0 and hi > 0 and cnt >= 1):
            raise UsageError(f"{option} lo:hi:count needs lo, hi > 0 and count >= 1")
        return np.logspace(np.log10(lo), np.log10(hi), cnt)
    return np.array([_number(option, v) for v in spec.split(",")])


def cmd_converge(args) -> int:
    model = _load_model(args)
    x0, alpha0 = _bt_point(args, model)
    _, ex = analyze_bt(model, x0, alpha0, args.variant)
    methods = []
    for name in map(str.strip, args.methods.split(",")):
        if name not in _METHODS:
            raise UsageError(f"unknown method {name!r}")
        methods.append(_METHODS[name])
        _check_phase("--methods", ex, methods[-1])
    orders = [_number("--orders", v, int) for v in args.orders.split(",")]
    if not all(0 <= o <= 3 for o in orders):
        raise UsageError("--orders must be in 0..3")
    amplitudes = _parse_amplitudes("--amplitudes", args.amplitudes)
    mesh = _mesh(args)
    try:
        records = convergence_study(model, ex, methods, orders, amplitudes,
                                    mesh=mesh, k_factor=args.k_factor)
    except ValueError as exc:   # an end distance k_factor * eps outside (0, A0)
        raise UsageError(f"--k-factor or --amplitudes: {exc}") from None
    lines = [ConvergenceRecord.CSV_HEADER] + [r.csv_row() for r in records]
    _emit(args.out, "\n".join(lines) + "\n", f"wrote {args.out} ({len(records)} rows)")
    return 0


def cmd_compare(args) -> int:
    model = _load_model(args)
    x0, alpha0 = _bt_point(args, model)
    expansions = {var: analyze_bt(model, x0, alpha0, var)[1]
                  for var in ("orbital", "smooth", "hyper")}
    orbital = expansions["orbital"]      # the negative control drops K11 and K03
    expansions["orbital-wrongK"] = dataclasses.replace(
        orbital, K=orbital.K | {"K11": np.zeros(2), "K03": np.zeros(2)})

    eps_values = _parse_amplitudes("--eps-range", args.eps_range)
    lines = ["variant,order,eps,alpha1,alpha2"]
    for var, ex in expansions.items():
        for order in (2, 3):
            for eps in eps_values:
                al = lift_parameters(ex, Method("lp", order=order), float(eps))
                lines.append(f"{var},{order},{_fmt(float(eps))},{_fmt(al[0])},{_fmt(al[1])}")
    _emit(args.out, "\n".join(lines) + "\n", f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bthom",
        description="Third-order homoclinic predictors near Bogdanov-Takens points")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="BT eigendata and center-manifold coefficients")
    _add_point_args(p)
    p.add_argument("--variant", default="orbital",
                   choices=["orbital", "smooth", "hyper", "all"])
    p.add_argument("--coeffs", action="store_true", help="print the JSON coefficient dump")
    p.add_argument("--out", help="write the JSON dump to this path")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("predict", help="emit a collocation-ready homoclinic predictor")
    _add_point_args(p)
    p.add_argument("--variant", default="orbital", choices=["orbital", "smooth", "hyper"])
    p.add_argument("--method", default="lp", choices=["rp", "lp"])
    p.add_argument("--phase", default="vzero", choices=["vzero", "l2", "altgamma"])
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--eps", type=partial(_number, "--eps"), default=0.1)
    p.add_argument("--k", type=partial(_number, "--k"), help="end distance (default eps*1e-4)")
    p.add_argument("--ntst", type=int, default=40)
    p.add_argument("--ncol", type=int, default=4)
    p.add_argument("--out", help="predictor JSON path")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("lpseries", help="exact-rational Lindstedt-Poincare series")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", help="CSV path (omega polynomials go to a .json sidecar)")
    p.set_defaults(fn=cmd_lpseries)

    p = sub.add_parser("converge", help="predictor-vs-corrected convergence study")
    _add_point_args(p)
    p.add_argument("--variant", default="orbital", choices=["orbital", "smooth", "hyper"])
    p.add_argument("--methods", default="rp,lp",
                   help="comma list from " + ", ".join(_METHODS))
    p.add_argument("--orders", default="0,1,2,3")
    p.add_argument("--amplitudes", default="1e-3:1e-1:8",
                   help="lo:hi:count (log-spaced) or comma list")
    p.add_argument("--ntst", type=int, default=40)
    p.add_argument("--ncol", type=int, default=4)
    p.add_argument("--k-factor", type=partial(_number, "--k-factor"), default=1e-4)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("compare", help="parameter predictors across variants and orders")
    _add_point_args(p)
    p.add_argument("--eps-range", default="1e-2:2e-1:9")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=cmd_compare)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        parser.exit(EXIT_USAGE, f"{parser.prog} {args.command}: error: {exc}\n")
    except BthomError as exc:     # a bad model is bad input; the rest is numeric
        kind = "model error" if isinstance(exc, ModelError) else "error"
        print(f"{kind}: {exc} (stage: {exc.stage})", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ModelError) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
