"""Lift planar homoclinic asymptotics to the n-dimensional phase space.

A predictor method is the pair (series method, phase condition) plus a
truncation order; the normal-form variant lives on the CmExpansion.  The lift
evaluates x = x0 + H(w(eta), beta) on a collocation mesh together with the
parameter pair alpha = alpha0 + K(beta), the saddle, the half-return time and
the orientation data needed to start continuation.

All variants share the smooth blow-up (see _smooth_family).  The planar
series run at eps itself: the orbital family (a, b, 0, 0, 0, 0) at (a/b) eps is
the UNIT series at eps, where the orbital time map and the orbital-only L2 and
alternative-gamma phases live too.  One series pass per time point gives the
orbit and the time map together (_blow_up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics as asy
from .asymptotics import PhaseChoice
from .errors import BthomError
from .jet import Jet
from .nfcoeffs import CmExpansion, Variant

__all__ = [
    "NoConvergenceError",
    "Method",
    "Mesh",
    "HomPredictor",
    "make_mesh",
    "planar_series",
    "lift_orbit",
    "lift_parameters",
    "time_reparam",
    "invert_time",
    "saddle_point",
    "amplitude_to_eps",
    "ttol_to_T",
    "sample_predictor",
    "tangent_orientation",
    "d_alpha_d_eps",
]


class NoConvergenceError(BthomError):
    """An iterative solve (time inversion, Newton correction) did not converge."""

    stage = "newton"


@dataclass(frozen=True)
class Method:
    """Planar-series selection: RP or LP, phase condition, truncation order.

    ``lp_xi_identity`` drops the higher-order time transform of the LP method
    (the historical predictor that degrades to zeroth-order accuracy).  A
    selection that names no series is a ValueError (`asymptotics.check_series`).
    """

    kind: str = "lp"
    phase: PhaseChoice = PhaseChoice.VZERO
    order: int = 3
    lp_xi_identity: bool = False

    def __post_init__(self):
        asy.check_series(self.kind, self.phase, self.order, self.lp_xi_identity)

    @property
    def label(self) -> str:
        """The name in the CLI and the study CSV: rp, rp-l2, lp, lp-alt, lp-xid."""
        phase = {PhaseChoice.VZERO: "", PhaseChoice.L2: "-l2", PhaseChoice.ALTGAMMA: "-alt"}
        return self.kind + phase[self.phase] + ("-xid" if self.lp_xi_identity else "")


@dataclass(frozen=True)
class Mesh:
    """Uniform collocation mesh on [0, 1]: ntst intervals, ncol Gauss points."""

    ntst: int
    ncol: int
    fine: np.ndarray = field(repr=False)
    gauss: np.ndarray = field(repr=False)
    gauss_weights: np.ndarray = field(repr=False)


def make_mesh(ntst: int = 40, ncol: int = 4) -> Mesh:
    if ntst < 2 or ncol < 2:
        raise ValueError("need ntst >= 2 and ncol >= 2")
    fine = np.linspace(0.0, 1.0, ntst * ncol + 1)
    nodes, weights = np.polynomial.legendre.leggauss(ncol)
    return Mesh(ntst=ntst, ncol=ncol, fine=fine,
                gauss=0.5 * (nodes + 1.0), gauss_weights=0.5 * weights)


@dataclass
class HomPredictor:
    method: Method
    variant: Variant
    eps: float
    alpha: np.ndarray
    T: float
    mesh: Mesh
    orbit: np.ndarray          # (ntst*ncol+1, n)
    s0: np.ndarray
    eps0: float
    eps1: float
    tangent_sign: float        # sign of d(alpha_1)/d(eps)

    def as_dict(self) -> dict:
        return {
            "method": self.method.kind,
            "phase": self.method.phase.value,
            "order": self.method.order,
            "variant": self.variant.value,
            "eps": self.eps,
            "alpha": self.alpha.tolist(),
            "T": self.T,
            "ntst": self.mesh.ntst,
            "ncol": self.mesh.ncol,
            "mesh": self.mesh.fine.tolist(),
            "orbit": self.orbit.tolist(),
            "s0": self.s0.tolist(),
            "eps0": self.eps0,
            "eps1": self.eps1,
            "tangent_sign": self.tangent_sign,
        }


# ---------------------------------------------------------------------------
# planar series and blow-up scalings
# ---------------------------------------------------------------------------

def _smooth_family(expansion: CmExpansion, eps):
    """Smooth-family coefficients (a, b, a1, b1, d, e) of a variant and the eps_s
    its smooth series run at: the orbital one is (a, b, 0, 0, 0, 0) at (a/b) eps."""
    a, b = expansion.a, expansion.b
    if expansion.variant is Variant.ORBITAL:
        return (a, b, 0.0, 0.0, 0.0, 0.0), (a / b) * eps
    return (a, b, expansion.a1, expansion.b1, expansion.d, expansion.e), eps


def planar_series(expansion: CmExpansion, method, eps, s, integral: bool = False):
    """One pass of this variant's planar series at time s, summed at eps: (u, v)
    and, with ``integral``, int_0^s u ds.  The orbital series is the UNIT one
    (the family (a, b, 0, 0, 0, 0) at eps_s = (a/b) eps, seen at eps)."""
    if expansion.variant is Variant.ORBITAL:
        coeffs = asy.UNIT
    elif method.phase is not PhaseChoice.VZERO:
        raise ValueError(f"the {method.phase.value} phase exists for the orbital variant only")
    else:
        coeffs = _smooth_family(expansion, eps)[0]
    return asy.planar_pass(s, eps, method.kind, method.phase, method.order,
                           method.lp_xi_identity, coeffs, integral)


def _beta(expansion: CmExpansion, method, eps):
    """Blow-up: (beta1, beta2) at eps, which may be a Jet."""
    coeffs, es = _smooth_family(expansion, eps)
    tau = asy.smooth_tau(es, coeffs, order=method.order)
    return -4.0 / expansion.a * es ** 4, (expansion.b / expansion.a) * tau * es ** 2


def _blow_up(expansion: CmExpansion, method, eps: float, eta, lifted: bool = True):
    """The predictor at normal-form time eta from at most one series pass:
    (w0, w1, beta1, beta2, t), t(eta) the time map with t(0) = 0; eta may be a
    Jet.  w0 and w1 are None unless ``lifted`` or t needs the pass.

    dt/deta = theta(w0, beta2) = 1 + theta1000 w0 + theta0001 beta2.  Only the
    orbital normal form has theta1000 != 0; there t integrates the series it
    lifts: t = eta (1 + theta0001 beta2) + theta1000 (eps_s / a) int_0^s u ds.
    """
    es, a = _smooth_family(expansion, eps)[1], expansion.a
    if not isinstance(eta, Jet):
        eta = np.asarray(eta, float)
    integral = expansion.theta1000 != 0.0
    w0 = w1 = None
    if lifted or integral:
        u, v, *U = planar_series(expansion, method, eps, es * eta, integral)
        w0, w1 = u / a * es ** 2, v / a * es ** 3
    b1, b2 = _beta(expansion, method, eps)
    t = eta * (1.0 + expansion.theta0001 * b2)
    if integral:
        t = t + expansion.theta1000 * (es / a) * U[0]
    return w0, w1, b1, b2, t


def _lift(expansion: CmExpansion, w0, w1, b1, b2):
    return expansion.x0 + expansion.H_eval(w0[..., None], w1[..., None], b1, b2)


def lift_orbit(expansion: CmExpansion, method, eps: float, eta):
    """Phase-space predictor x(eta) = x0 + H(w(eta), beta), one row per eta."""
    return _lift(expansion, *_blow_up(expansion, method, eps, eta)[:4])


def lift_parameters(expansion: CmExpansion, method, eps) -> np.ndarray:
    """Parameter predictor alpha(eps) = alpha0 + K(beta(eps)); eps may be a Jet.
    A blow-up that is not finite is a predictor-stage BthomError."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            alpha = expansion.alpha0 + expansion.K_eval(*_beta(expansion, method, eps))
    except OverflowError:       # a float power of eps
        alpha = np.inf
    if not np.all(np.isfinite(alpha.f if isinstance(alpha, Jet) else alpha)):
        eps = float(eps.f) if isinstance(eps, Jet) else eps
        raise BthomError(f"the blow-up at eps = {eps!r} is not finite", stage="predictor")
    return alpha


# ---------------------------------------------------------------------------
# time reparametrization
# ---------------------------------------------------------------------------

def time_reparam(expansion: CmExpansion, method, eps: float, eta):
    """Original-system time t(eta) with t(0) = 0; eta may be a Jet.

    dt/deta = theta(w0, beta2).  Only the orbital normal form has theta1000 != 0
    and takes a series pass, for int w0 deta at (UNIT, eps); the others read beta2.
    """
    return _blow_up(expansion, method, eps, eta, lifted=False)[4]


def _invert(expansion: CmExpansion, method, eps: float, t, max_iter: int):
    """`invert_time`, and the blow-up (w0, w1, beta1, beta2) of its last
    iterate: the series pass that finds every entry converged is the lift's."""
    t = np.asarray(t, float)
    target = t.ravel()
    eta = target / (1.0 + expansion.theta0001 * _beta(expansion, method, eps)[1])
    tol = 1e-12 * (1.0 + np.abs(target))
    lo = np.full_like(eta, np.nan)     # NaN: no bracket end found yet
    hi = np.full_like(eta, np.nan)
    todo = np.ones(eta.shape, bool)
    for _ in range(max_iter):
        w0, w1, b1, b2, tj = _blow_up(expansion, method, eps, eta)
        r = tj - target
        todo = ~(np.abs(r) <= tol)
        if not todo.any():
            return eta.reshape(t.shape)[()], (w0, w1, b1, b2)
        above = r > 0
        hi = np.where(todo & above, np.fmin(hi, eta), hi)
        lo = np.where(todo & ~above, np.fmax(lo, eta), lo)
        slope = expansion.theta_eval(w0, b2)
        new = eta + np.divide(-r, slope, out=-r, where=slope > 1e-12)
        mid = 0.5 * (lo + hi)
        new = np.where(np.isnan(mid) | ((lo < new) & (new < hi)), new, mid)
        eta = np.where(todo, new, eta)
    raise NoConvergenceError(
        f"time inversion did not converge for {np.count_nonzero(todo)} of "
        f"{todo.size} times (first t = {target[todo][0]!r})", stage="predictor")


def invert_time(expansion: CmExpansion, method, eps: float, t, max_iter: int = 100):
    """Solve time_reparam(eta) = t for every entry of t by safeguarded Newton.

    The slope is the one the time map is defined by, dt/deta = theta(w0, beta2)
    = 1 + theta1000 w0 + theta0001 beta2, read from the same series pass as
    t(eta), and the start is eta = t / (1 + theta0001 beta2).  For rp, rp-l2
    and lp-xid theta is t' up to rounding.  For lp and lp-alt the time map
    integrates u / omega through the truncated xi(s), so theta differs from t'
    by O(eps^(order + 1)) relative, and the iteration converges linearly with
    that ratio, far below the quadratic term at these eps.  Each entry keeps its
    own bisection bracket and tolerance 1e-12 (1 + |t|) and stops changing once
    converged; the result has the shape of t.
    """
    return _invert(expansion, method, eps, t, max_iter)[0]


# ---------------------------------------------------------------------------
# saddle, eps and T selection, tangent orientation
# ---------------------------------------------------------------------------

def saddle_point(expansion: CmExpansion, method, eps: float) -> np.ndarray:
    """Saddle approximation: the eta -> infinity limit of the lifted orbit."""
    (a, b, a1, _, d, _), es = _smooth_family(expansion, eps)
    w0_inf = (1.0 / a) * es ** 2 * (2.0 - (2.0 * (5.0 * a1 * b + 7.0 * d)
                                           / (7.0 * a ** 2)) * es ** 2
                                    * (1.0 if method.order >= 2 else 0.0))
    return expansion.x0 + expansion.H_eval(w0_inf, 0.0, *_beta(expansion, method, eps))


def amplitude_to_eps(A0: float, a: float, b: float, variant: Variant | str) -> float:
    """Perturbation parameter from the requested orbit amplitude."""
    if A0 <= 0:
        raise ValueError("amplitude must be positive")
    if isinstance(variant, str):
        variant = Variant(variant)
    if variant is Variant.ORBITAL:
        return abs(b) * math.sqrt(A0 / (6.0 * abs(a)))
    return math.sqrt(A0 * abs(a) / 6.0)


def ttol_to_T(k: float, eps: float, A0: float, expansion: CmExpansion,
              method) -> float:
    """Half-return time from the end-point distance k (TTolerance)."""
    if not 0.0 < k < A0:
        raise ValueError(f"need 0 < k < A0, got k = {k:.6g} and A0 = {A0:.6g}")
    eta_end = float(np.arccosh(math.sqrt(A0 / k))) / abs(_smooth_family(expansion, eps)[1])
    return float(time_reparam(expansion, method, eps, eta_end))


def d_alpha_d_eps(expansion: CmExpansion, method, eps: float) -> np.ndarray:
    """Derivative of the parameter predictor along the branch."""
    return lift_parameters(expansion, method, Jet.variable(eps, 1)).d


def tangent_orientation(tangent_alpha1: float, expansion: CmExpansion, method,
                        eps: float) -> int:
    """+1 if the alpha_1 tangent component points away from the BT point."""
    if tangent_alpha1 == 0.0:
        raise ValueError("tangent has vanishing alpha_1 component")
    da1 = float(d_alpha_d_eps(expansion, method, eps)[0])
    if da1 == 0.0:
        raise ValueError("d(alpha_1)/d(eps) vanishes (eps = 0?)")
    return 1 if tangent_alpha1 * da1 > 0 else -1


def sample_predictor(expansion: CmExpansion, method, eps: float,
                     mesh: Mesh | None = None, k: float | None = None) -> HomPredictor:
    """Assemble the full predictor on a collocation mesh.  A blow-up, T, eps0 or
    eps1 that is not finite and > 0 is a predictor-stage BthomError."""
    if mesh is None:
        mesh = make_mesh()
    alpha = lift_parameters(expansion, method, Jet.variable(eps, 1))
    A0 = 6.0 * _smooth_family(expansion, eps)[1] ** 2 / abs(expansion.a)
    if k is None:
        k = eps * 1e-4
    T = ttol_to_T(k, eps, A0, expansion, method)
    if not 0.0 < T < math.inf:
        raise BthomError(f"half-return time T = {T!r} at k = {k!r}", stage="predictor")

    orbit = _lift(expansion, *_invert(expansion, method, eps, -T + 2.0 * T * mesh.fine, 100)[1])
    s0 = saddle_point(expansion, method, eps)
    eps0 = float(np.linalg.norm(orbit[0] - s0))
    eps1 = float(np.linalg.norm(orbit[-1] - s0))
    if not (0.0 < eps0 < math.inf and 0.0 < eps1 < math.inf):
        raise BthomError(f"end distances eps0 = {eps0!r}, eps1 = {eps1!r}", stage="predictor")
    sign = float(np.sign(alpha.d[0]))
    return HomPredictor(method=method, variant=expansion.variant, eps=eps,
                        alpha=alpha.f, T=T, mesh=mesh, orbit=orbit, s0=s0,
                        eps0=eps0, eps1=eps1, tangent_sign=sign)
