"""The benchmark's workloads: seeded op inputs, one op, and its output checks.

One op is one corrected homoclinic orbit.  An op's inputs come only from the
workload seed, through :func:`design`.  The checks never trust the
corrector's own convergence report: they recompute the defining-system
residual from the returned unknowns.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import bthom
import bthom.corrector
from bthom.asymptotics import PhaseChoice
from bthom.model import HH_BT_ALPHA, HH_BT_STATE

# Critical coefficients of the HH BT point as computed by the finite-difference
# oracle of the first commit.  The oracle step moves them in the 5th-6th
# significant digit, so the check allows 1e-3 relative: an exact-derivative
# oracle must still pass it.
HH_A = 2.5515413762011495e-05
HH_B = -0.007458954860087554
HH_AB_RTOL = 1e-3
# bt_nf with default coefficients has a = b = 1 exactly; the oracle is exact
# on quadratics up to rounding in its second differences.
NF_AB_RTOL = 1e-6

# Newton tolerance of every workload: the convergence-study default, tight
# enough that every HH op takes at least one Newton step.
TOL = 1e-11

NF_METHODS = {
    "rp": bthom.Method("rp"),
    "rp-l2": bthom.Method("rp", phase=PhaseChoice.L2),
    "lp": bthom.Method("lp"),
    "lp-xid": bthom.Method("lp", lp_xi_identity=True),
}


# 1/golden ratio: the additive recurrence u_k = frac(u_0 + k/phi) spreads any
# number of consecutive points almost evenly over [0, 1).
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def design(seed: int, cells: list[dict], log_lo: float, log_hi: float, shuffle: bool):
    """Endless, seeded stream of rounds of op inputs over a grid of cells.

    A round is a list that holds each cell once, in a seeded order when
    ``shuffle``, else in list order.  Each cell's amplitude is log-uniform in
    [10**log_lo, 10**log_hi]: the cell draws a seeded start u_0 and its k-th
    round takes u_k = frac(u_0 + k/phi) of the log range.  Each u_k is uniform,
    yet any number of whole rounds covers the range almost evenly, so the mix
    of Newton iteration counts (1, 2 or 3 steps, which sets the op time) is the
    same from seed to seed and whatever the run length.  That is what keeps
    the per-run medians steady.
    """
    rng = random.Random(seed)
    starts = [rng.random() for _ in cells]
    k = 0
    while True:
        order = rng.sample(range(len(cells)), len(cells)) if shuffle else range(len(cells))
        yield [dict(cells[c], amplitude=10.0 ** (
                   log_lo + (log_hi - log_lo) * ((starts[c] + k * INV_PHI) % 1.0)))
               for c in order]
        k += 1


@dataclass
class Outcome:
    """What one op returned, for the checks and the trace counters."""

    pred: object
    bvp: object
    z: np.ndarray
    iters: int
    a: float
    b: float
    delta: float = 0.0


def _check_ab(a: float, b: float, a_ref: float, b_ref: float, rtol: float) -> list[str]:
    bad = []
    for name, val, ref in (("a", a, a_ref), ("b", b, b_ref)):
        if not abs(val - ref) <= rtol * abs(ref):
            bad.append(f"{name} = {val!r}, expected {ref!r} (rtol {rtol:g})")
    return bad


def check_outcome(out: Outcome, ab_ref: tuple[float, float], ab_rtol: float) -> list[str]:
    """Reasons the op's output is wrong; empty when every check passes."""
    bad = _check_ab(out.a, out.b, *ab_ref, ab_rtol)
    if not np.all(np.isfinite(out.z)):
        bad.append("corrected orbit or parameters not finite")
        return bad
    pred = out.pred
    # Newton's own stopping scale, 1 + max|z0|; the Riccati blocks of z0 are 0
    z0_max = max(float(np.max(np.abs(pred.orbit))), float(np.max(np.abs(pred.s0))),
                 float(np.max(np.abs(pred.alpha))), abs(pred.eps0), abs(pred.eps1))
    limit = TOL * (1.0 + z0_max)
    resid = float(np.linalg.norm(bthom.bvp_residual(out.bvp, out.z)))
    if not resid <= limit:
        bad.append(f"|bvp_residual| = {resid:.3e} > {limit:.3e}")
    if not math.isfinite(out.delta):
        bad.append("predictor-vs-corrected distance not finite")
    return bad


@dataclass
class Workload:
    name: str
    cells: list[dict]
    log_amplitude: tuple[float, float]
    shuffle: bool
    setup: Callable[[], dict]
    op: Callable[[dict, dict], Outcome]
    ab_ref: tuple[float, float]
    ab_rtol: float

    def rounds(self, seed: int):
        return design(seed, self.cells, *self.log_amplitude, shuffle=self.shuffle)

    def check(self, out: Outcome) -> list[str]:
        return check_outcome(out, self.ab_ref, self.ab_rtol)


# -- Hodgkin-Huxley: analyze, predict and correct in every op ----------------

def _hh_setup(ntst: int, ncol: int) -> dict:
    return {"model": bthom.builtin_model("hh"), "mesh": bthom.make_mesh(ntst, ncol)}


def _hh_op(ctx: dict, inp: dict) -> Outcome:
    model = ctx["model"]
    _, ex = bthom.analyze_bt(model, HH_BT_STATE, HH_BT_ALPHA, inp["variant"])
    eps = bthom.amplitude_to_eps(inp["amplitude"], ex.a, ex.b, ex.variant)
    method = bthom.Method(inp["method"], order=inp["order"])
    pred = bthom.sample_predictor(ex, method, eps, ctx["mesh"], k=eps * 1e-4)
    bvp, z, iters = bthom.correct_predictor(model, pred, tol=TOL)
    return Outcome(pred=pred, bvp=bvp, z=z, iters=iters, a=ex.a, b=ex.b)


# -- bt_nf: one convergence_study cell per op, expansion shared --------------

def _capture_corrections(captured: list) -> None:
    """Make ``convergence_study`` hand its corrections to the checks.

    The study returns only the distance delta; the checks need the corrected
    unknowns, so the ``correct_predictor`` it calls is wrapped to keep them.
    """
    orig = bthom.corrector.correct_predictor

    def correct_predictor(model, pred, *args, **kwargs):
        bvp, z, iters = orig(model, pred, *args, **kwargs)
        captured.append((pred, bvp, z, iters))
        return bvp, z, iters

    bthom.corrector.correct_predictor = correct_predictor


def _nf_setup() -> dict:
    model = bthom.builtin_model("bt_nf")
    _, ex = bthom.analyze_bt(model, [0.0, 0.0], [0.0, 0.0], "orbital")
    bad = _check_ab(ex.a, ex.b, 1.0, 1.0, NF_AB_RTOL)
    if bad:
        raise RuntimeError("bt_nf setup: " + "; ".join(bad))
    captured = []
    _capture_corrections(captured)
    return {"model": model, "expansion": ex, "mesh": bthom.make_mesh(40, 7),
            "captured": captured}


def _nf_op(ctx: dict, inp: dict) -> Outcome:
    ex = ctx["expansion"]
    captured = ctx["captured"]
    captured.clear()
    (rec,) = bthom.convergence_study(ctx["model"], ex, [NF_METHODS[inp["method"]]],
                                     [inp["order"]], [inp["amplitude"]],
                                     mesh=ctx["mesh"], k_factor=1e-6, tol=TOL)
    if not rec.converged:
        raise bthom.NoConvergenceError("convergence_study cell did not converge")
    if len(captured) != 1:
        raise RuntimeError(f"expected 1 correction in the cell, saw {len(captured)}")
    pred, bvp, z, iters = captured[0]
    return Outcome(pred=pred, bvp=bvp, z=z, iters=iters, a=ex.a, b=ex.b, delta=rec.delta)


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="hh_orbital_40x4",
            cells=[{"variant": "orbital", "method": m, "order": o}
                   for m in ("rp", "lp") for o in range(4)],
            log_amplitude=(math.log10(3e-3), math.log10(3e-2)),
            shuffle=True,
            setup=lambda: _hh_setup(40, 4),
            op=_hh_op,
            ab_ref=(HH_A, HH_B), ab_rtol=HH_AB_RTOL,
        ),
        Workload(
            name="hh_smooth_160x4",
            cells=[{"variant": v, "method": m, "order": 3}
                   for m in ("rp", "lp") for v in ("smooth", "hyper")],
            log_amplitude=(math.log10(3e-3), math.log10(3e-2)),
            shuffle=False,
            setup=lambda: _hh_setup(160, 4),
            op=_hh_op,
            ab_ref=(HH_A, HH_B), ab_rtol=HH_AB_RTOL,
        ),
        Workload(
            name="nf_sweep_40x7",
            cells=[{"variant": "orbital", "method": m, "order": o}
                   for m in NF_METHODS for o in range(4)],
            log_amplitude=(-2.6, -1.0),
            shuffle=False,
            setup=_nf_setup,
            op=_nf_op,
            ab_ref=(1.0, 1.0), ab_rtol=NF_AB_RTOL,
        ),
    ]
}
