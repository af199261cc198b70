"""Planar homoclinic asymptotics for the Bogdanov-Takens oscillator.

Everything here lives on the blown-up planar oscillator

    u'' = -4 + u^2 + eps * u' * (u + tau)           (orbital normal form)

and its smooth-normal-form counterpart: the regular-perturbation (RP) and
Lindstedt-Poincare (LP) series, the time transform xi(s), the integrals of u
that feed the time reparametrization, the exact-rational LP recursion and the
closed-form log-sech integrals.

Each series is one family keyed by a phase condition and the smooth-normal-form
coefficients; the orbital oscillator is the family at UNIT.  v(0) = 0 reads the
smooth closed forms; the L2 (RP) and alternative-gamma (LP) phases exist at
UNIT only.  LP is the source of truth: RP, its integral and L2 (the v(0) = 0
series at a shifted time) are read from the LP series expanded in eps.

Polynomials in zeta = tanh(xi) are `numpy.polynomial.polynomial` coefficient
arrays, lowest degree first; the exact-rational engine holds Fractions in
object arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import comb

import numpy as np
from numpy.polynomial import polynomial as P

from .jet import Jet, elementary, sech, tanh

__all__ = [
    "PhaseChoice",
    "logcosh",
    "LN2",
    "ZETA2",
    "ZETA3",
    "GAMMA1_L2",
    "GAMMA3_L2",
    "ALT_GAMMA1",
    "u0",
    "rp_orbit",
    "In_closed",
    "In_closed_parts",
    "LpSeries",
    "lp_solve_quadratic",
    "lp_orbit_third",
    "xi_of_s",
    "lp_orbit_of_s",
    "smooth_tau",
    "rp_int_u",
    "lp_int_u",
    "planar_pass",
]

LN2 = 0.6931471805599453094172321214581765680755
ZETA2 = 1.6449340668482264364724151666460251892190   # pi^2 / 6
ZETA3 = 1.2020569031595942853997381615114499907650

# L2 phase constants of the regular-perturbation chain
GAMMA1_L2 = -(3.0 / 245.0) * (70.0 * LN2 - 59.0)
GAMMA3_L2 = (264.0 * ZETA3 / 343.0 - 884895199.0 / 7147176750.0
             - 100.0 * math.pi ** 2 / 3087.0 - 1104228.0 * LN2 / 420175.0)
# The L2 series is the v(0)=0 one at s + sigma, truncated in eps, with the
# time shift sigma = GAMMA1_L2 eps + SIGMA3_L2 eps^3 (no eps^2 term).
SIGMA3_L2 = GAMMA3_L2 + (38206980.0 * LN2 - 6634827.0) / 14706125.0

# Alternative Lindstedt-Poincare phase constant: the real root of
# 12005 g^3 + 4116 g^2 + 2205 g - 252 = 0.
_ALT_C = (836.0 + 15.0 * math.sqrt(4019.0)) ** (1.0 / 3.0)
ALT_GAMMA1 = (-4.0 - 59.0 / _ALT_C + _ALT_C) / 35.0

# the orbital oscillator's smooth-normal-form coefficients (a, b, a1, b1, d, e)
UNIT = (1.0, 1.0, 0.0, 0.0, 0.0, 0.0)


class PhaseChoice(enum.Enum):
    """Phase condition selecting one representative homoclinic solution."""

    VZERO = "vzero"        # v(0) = 0, i.e. u'(0) = 0
    L2 = "l2"              # L2-distance minimization (regular perturbation)
    ALTGAMMA = "altgamma"  # alternative LP phase with gamma_1 != 0


def _check_family(phase: PhaseChoice, coeffs) -> None:
    if coeffs[0] == 0 or coeffs[1] == 0:
        raise ValueError("a and b must be nonzero")
    if phase is not PhaseChoice.VZERO and tuple(coeffs) != UNIT:
        raise ValueError(f"the {phase.value} phase exists at the coefficients UNIT only")


def _series(terms, eps: float, order: int):
    """terms[0] + sum_{i=1..order} terms[i] eps^i, summed left to right.

    Terms beyond the last one given are zero.
    """
    acc = terms[0]
    for i in range(1, min(order, len(terms) - 1) + 1):
        acc = acc + terms[i] * eps ** i
    return acc


def _eps_jet(terms, order: int) -> Jet:
    """The jet in eps at eps = 0 of terms[0] + sum_i terms[i] eps^i, truncated
    at eps^order.  A term that is a jet is itself a jet in eps (whose
    coefficients may be jets in another variable) and moves up i coefficients;
    any other term is a constant.
    """
    c = [0.0] * (order + 1)
    for i, term in enumerate(terms[:order + 1]):
        for k, ck in enumerate(term.c[:order + 1 - i] if isinstance(term, Jet) else (term,)):
            c[i + k] = c[i + k] + ck
    return Jet(*c)


def _logcosh(x):
    """log(cosh(x)), accurate near 0 and stable far out, each branch on its own points."""
    a = np.abs(x)
    near = a < 1.0
    if not near.any():
        return a + np.log1p(np.exp(-2.0 * a)) - LN2
    if near.all():
        h = np.sinh(0.5 * a)                    # cosh x = 1 + 2 sinh^2(x/2)
        return np.log1p(2.0 * h * h)
    out = np.empty_like(a)
    out[near], out[~near] = _logcosh(a[near]), _logcosh(a[~near])
    return out


@elementary(_logcosh)
def logcosh(x0, order):
    """log(cosh(x)); its derivative is tanh."""
    t = tanh(Jet.variable(x0, order - 1)).c if order else ()
    return [tk / (k + 1) for k, tk in enumerate(t)]


# ---------------------------------------------------------------------------
# zeroth order
# ---------------------------------------------------------------------------

def u0(s):
    """Explicit homoclinic solution of the Hamiltonian limit: (u, u')."""
    u = _u0_jet(Jet.variable(s, 1))
    return u.f, u.d


def _u0_jet(s):
    t = tanh(s)
    return t * t * 6.0 - 4.0


# ---------------------------------------------------------------------------
# closed-form integrals I_n = int_0^inf log^3(2 cosh s) sech^n s ds
# ---------------------------------------------------------------------------

def In_closed_parts(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact decomposition I_n = r0 + r2*pi^2 + r3*zeta(3) (rationals)."""
    if n % 2 != 0 or n < 4 or n > 64:
        raise ValueError("n must be an even integer with 4 <= n <= 64")
    m = n // 2
    r0 = Fraction(0)
    r2 = Fraction(0)
    r3 = Fraction(0)
    pref = Fraction(2) ** (n - 3) * 3
    for k in range(m):
        c = pref * comb(m - 1, k) * (-1) ** k
        mk = m + k
        h1 = sum(Fraction(1, j) for j in range(1, mk + 1))
        h2 = sum(Fraction(1, j * j) for j in range(1, mk + 1))
        h3 = sum(Fraction(1, j ** 3) for j in range(1, mk + 1))
        q = 2 * k + n
        r0 += c * (Fraction(1, mk ** 4)
                   + Fraction(8, q) * (h1 / q ** 2 + h2 / (2 * q) + h3 / 4))
        # zeta(2) = pi^2/6 enters through -zeta(2)/(2q) inside the 8/q bracket
        r2 += c * Fraction(-8, q) * Fraction(1, 12 * q)
        r3 += c * Fraction(-8, q) * Fraction(1, 4)
    return r0, r2, r3


def In_closed(n: int) -> float:
    r0, r2, r3 = In_closed_parts(n)
    return float(r0) + float(r2) * math.pi ** 2 + float(r3) * ZETA3


# ---------------------------------------------------------------------------
# the Lindstedt-Poincare recursion on polynomials in zeta = tanh(xi)
# ---------------------------------------------------------------------------

def _peval_eps_jet(polys, x, order: int) -> Jet:
    """The eps-jet (see `_eps_jet`) of sum_k eps^k polys[k](x), k <= order.  An
    eps-jet x enters term k truncated at eps^(order - k), all that term needs."""
    return _eps_jet([P.polyval(Jet(*x.c[:order + 1 - k]) if isinstance(x, Jet) else x, p)
                     for k, p in enumerate(polys[:order + 1])], order)


def _pdivexact(num, den, exact: bool):
    """The quotient num / den, whose remainder must vanish: exactly for Fraction
    coefficients, to 1e-9 of the quotient's scale for floats."""
    q, r = P.polydiv(num, den)
    if exact:
        if any(r != 0):
            raise ArithmeticError("inexact polynomial division in LP recursion")
    elif np.max(np.abs(r)) > 1e-9 * (np.max(np.abs(q)) + 1.0):
        raise ArithmeticError("polynomial division remainder too large")
    return q


@dataclass
class LpSeries:
    """Exact coefficients of the polynomial Lindstedt-Poincare recursion.

    tau has entries tau_0..tau_{order-1}; sigma and delta run through index
    order-2; omega holds the polynomials omega_0..omega_{order-1} as ascending
    coefficient lists in zeta.
    """

    order: int
    tau: list
    sigma: list
    delta: list
    omega: list


def _lp_recursion(order: int, gamma=None, exact: bool = True):
    if order < 1:
        raise ValueError("order must be >= 1")
    one = Fraction(1) if exact else 1.0
    zero = 0 * one
    gamma = list(gamma) if gamma is not None else []
    gamma += [zero] * (order - len(gamma))
    if exact and any(g != 0 for g in gamma):
        raise ValueError("the exact engine implements the gamma = 0 phase")

    one_m = [one, zero, -one]                       # 1 - zeta^2
    u0p = [zero, 12 * one]                          # u0' = 12 zeta
    lhs_fac = [12 * one, zero, -36 * one]           # ((1-z^2) u0')'
    denom = P.polymul(P.polymul(one_m, u0p), P.polymul(one_m, u0p))
    p_int = P.polyint(P.polymul(one_m, P.polymul(u0p, u0p)))  # int (1-z^2) u0'^2

    u = [[-4 * one, zero, 6 * one]]
    up = [u0p]
    om = [[one]]
    tau = []
    sig = [6 * one]
    delt = [-4 * one]

    for i in range(1, order + 1):
        # z_i per the quadratic normal-form recursion
        acc = [zero]
        for k in range(1, i):
            acc = P.polyadd(acc, P.polymul(u[k], u[i - k]))
        inner = [zero]
        for l in range(1, i):
            inner = P.polyadd(inner, tau[i - 1 - l] * up[l])
        for k in range(1, i):
            for l in range(0, i - k):
                inner = P.polyadd(inner, tau[i - 1 - l - k] * P.polymul(om[k], up[l]))
        for k in range(0, i):
            for l in range(0, i - k):
                inner = P.polyadd(inner, P.polymul(P.polymul(om[k], up[l]), u[i - 1 - l - k]))
        for l in range(1, i):
            inner = P.polysub(inner, P.polymul(om[l], P.polyder(P.polymul(one_m, up[i - l]))))
        for k in range(1, i):
            for l in range(0, i - k + 1):
                inner = P.polysub(inner, P.polymul(
                    om[l], P.polyder(P.polymul(one_m, P.polymul(om[k], up[i - l - k])))))
        z = P.polyadd(acc, P.polymul(one_m, inner))

        gtilde = P.polyint(P.polymul(u0p, z))
        g1, gm1 = P.polyval(one, gtilde), P.polyval(-one, gtilde)
        tau_i = -(5 * one / 192) * (g1 - gm1)
        tau.append(tau_i)
        if exact and i % 2 == 0 and tau_i != 0:
            raise ArithmeticError(f"tau_{i-1} expected to vanish by symmetry")
        if i == order:
            break

        g = P.polyadd(tau_i * p_int, gtilde)
        g_at_1 = P.polyval(one, g)
        delta_i = g_at_1 / 12
        sigma_i = -delta_i - P.polyval(one, z) / 4
        if exact:
            if i % 2 == 1 and (sigma_i != 0 or delta_i != 0):
                raise ArithmeticError(f"sigma_{i}/delta_{i} expected to vanish by symmetry")
            if sigma_i != -delta_i:
                raise ArithmeticError(f"sigma_{i} != -delta_{i} on the quadratic normal form")
        sig.append(sigma_i)
        delt.append(delta_i)

        gi = gamma[i]
        ui = P.polyadd([delta_i, 12 * gi, sigma_i], [zero, zero, zero, -12 * gi])
        upi = P.polyder(ui)
        numer = P.polyadd(
            P.polysub(P.polymul(P.polymul(one_m, lhs_fac), ui),
                      P.polymul(P.polymul(one_m, one_m), P.polymul(u0p, upi))),
            P.polysub(g, [g_at_1]))
        om_i = _pdivexact(numer, denom, exact)
        if len(om_i) > 2 * i + 2:
            raise ArithmeticError(f"deg omega_{i} = {len(om_i)-1} above the 2i+1 bound")
        u.append(ui)
        up.append(upi)
        om.append(om_i)

    return tau, sig, delt, om, u


@lru_cache(maxsize=None)
def lp_solve_quadratic(order: int) -> LpSeries:
    """Exact-rational LP series of the quadratic BT normal form up to eps^order."""
    tau, sig, delt, om, _ = _lp_recursion(order, exact=True)
    return LpSeries(order=order, tau=tau, sigma=sig[:order - 1] if order > 1 else sig[:1],
                    delta=delt[:order - 1] if order > 1 else delt[:1],
                    omega=[list(p) for p in om])


@lru_cache(maxsize=None)
def _lp_float_series(phase: PhaseChoice, order: int = 4):
    """Floating tau_i and u_i / omega_i polynomial coefficients through eps^3."""
    gamma = [0.0, ALT_GAMMA1, 0.0, 0.0] if phase is PhaseChoice.ALTGAMMA else None
    tau, _, _, om, u_polys = _lp_recursion(order, gamma=gamma, exact=False)
    return tuple(float(t) for t in tau), tuple(tuple(map(float, p)) for p in u_polys), \
        tuple(tuple(map(float, p)) for p in om)


def _frozen(polys):
    """Read-only float coefficient arrays of polys."""
    arrays = tuple(np.array(p, float) for p in polys)
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=64)
def _lp_parts(phase: PhaseChoice, coeffs: tuple = UNIT):
    """The u_i(zeta), omega_i(zeta) and u_i'(zeta) coefficient arrays (i = 0..3,
    read-only) and the xi_i(s) terms (i = 1..3) of an LP series."""
    _check_family(phase, coeffs)
    if phase is PhaseChoice.VZERO:
        u, om = _smooth_u_polys(coeffs), _smooth_omega_polys(coeffs)
        xi = partial(_smooth_xi_terms, coeffs=coeffs)
    elif phase is PhaseChoice.ALTGAMMA:
        (_, u, om), xi = _lp_float_series(phase), _xi_terms_altgamma
    else:
        raise ValueError("LP supports the VZERO and ALTGAMMA phases only; L2 is an RP phase")
    return _frozen(u), _frozen(om), _frozen(map(P.polyder, u)), xi


def _lp_jets(zeta, phase: PhaseChoice, order: int, coeffs):
    """The LP orbit (u, v) at zeta as jets in eps at 0, truncated at eps^order;
    zeta may itself be an eps-jet."""
    u, om, up, _ = _lp_parts(phase, tuple(coeffs))
    series = partial(_peval_eps_jet, x=zeta, order=min(order, 3))
    return series(u), (1.0 - zeta * zeta) * series(om) * series(up)


def lp_orbit_third(zeta, eps: float, phase: PhaseChoice = PhaseChoice.VZERO,
                   order: int = 3, coeffs=UNIT):
    """Third-order LP orbit (u, v) as a function of the transformed time zeta.

    v = (1 - zeta^2) omega(zeta) u'(zeta), truncated at eps^order like u.
    """
    u, v = _lp_jets(np.asarray(zeta, float), phase, order, coeffs)
    return _series(u.c, eps, order), _series(v.c, eps, order)


# ---------------------------------------------------------------------------
# the nonlinear time transform xi(s)
# ---------------------------------------------------------------------------

def _xi_terms_altgamma(s):
    # The second-order term needs a -((6/7)g + (3/2)g^2) tanh(s) shift relative
    # to the v(0)=0 phase; with it the third-order closed form is consistent
    # with the omega recursion for the gamma_1-modified family.
    g = ALT_GAMMA1
    t, S, L = tanh(s), sech(s), logcosh(s)
    xi1, xi2, _ = _smooth_xi_terms(s, UNIT)
    xi2 = xi2 - t * (6.0 * g / 7.0 + 1.5 * g * g)
    xi3 = ((L * (-92.0) + s * t * 84.0 + (49.0 * g * (7.0 * g + 4.0) - 105.0)) * 18.0
           - S * S * (L * (-18.0 * (7.0 * g * (7.0 * g + 4.0) + 9.0))
                      + L * L * 216.0
                      + (-7.0 * g * (7.0 * g - 3.0) * (35.0 * g + 9.0) - 234.0)) * 7.0
           ) * (1.0 / 4802.0)
    return xi1, xi2, xi3


def xi_of_s(s, eps: float, phase: PhaseChoice = PhaseChoice.VZERO,
            order: int = 3, coeffs=UNIT):
    """xi(s) = s + sum_i xi_i(s) eps^i with the phase-appropriate constants."""
    return _series((s,) + _lp_parts(phase, tuple(coeffs))[3](s), eps, order)


def lp_orbit_of_s(s, eps: float, phase: PhaseChoice = PhaseChoice.VZERO,
                  order: int = 3, xi_identity: bool = False, coeffs=UNIT):
    """LP orbit (u, v) as a function of the original time s.

    With ``xi_identity`` the higher-order time transform is dropped (xi = s),
    which reproduces the historical predictor that loses the uniform accuracy.
    """
    return planar_pass(s, eps, "lp", phase, order, xi_identity, coeffs)


# ---------------------------------------------------------------------------
# smooth normal-form asymptotics (coefficients a, b, a1, b1, d, e)
# ---------------------------------------------------------------------------

def smooth_tau(eps: float, coeffs, order: int = 3) -> float:
    a, b, a1, b1, d, e = coeffs
    tau = 10.0 / 7.0
    if order >= 2:
        tau += ((98.0 * b * (50.0 * a * b1 + 73.0 * d) - 9604.0 * a * e
                 - 2450.0 * a1 * b ** 2 + 288.0 * b ** 3)
                / (2401.0 * a ** 2 * b)) * eps * eps
    return tau


def _smooth_omega_polys(coeffs):
    a, b, a1, b1, d, e = coeffs
    om0 = [1.0]
    om1 = [0.0, -6.0 * b / (7.0 * a)]
    om2 = [(70.0 * a1 * b + 18.0 * b * b - 245.0 * d) / (196.0 * a * a),
           0.0,
           (54.0 * b * b + 441.0 * d) / (196.0 * a * a)]
    c3 = 1.0 / (2401.0 * a ** 3)
    om3 = [0.0,
           c3 * (-147.0 * b * (20.0 * a * b1 + 11.0 * d) + 9604.0 * a * e
                 + 1470.0 * a1 * b * b - 198.0 * b ** 3),
           0.0,
           c3 * (147.0 * b * 7.0 * d - 9604.0 * a * e + 126.0 * b ** 3)]
    return om0, om1, om2, om3


def _smooth_u_polys(coeffs):
    a, b, a1, b1, d, e = coeffs
    u0p = [-4.0, 0.0, 6.0]
    u2 = [(140.0 * a1 * b - 18.0 * b * b - 245.0 * d) / (49.0 * a * a),
          0.0,
          (-210.0 * a1 * b + 18.0 * b * b + 147.0 * d) / (49.0 * a * a)]
    return u0p, [0.0], u2, [0.0]


def _smooth_xi_terms(s, coeffs):
    a, b, a1, b1, d, e = coeffs
    t, S, L = tanh(s), sech(s), logcosh(s)
    xi1 = L * (-6.0 * b / (7.0 * a))
    xi2 = (s * (2.0 * (35.0 * a1 * b - 36.0 * b * b + 98.0 * d))
           + t * (L * (16.0 * b * b) + 10.0 * b * b - 49.0 * d) * 9.0) * (1.0 / (196.0 * a * a))
    xi3 = (S * S * (L * (-27.0 * b * (6.0 * b * b + 49.0 * d))
                    + L * L * (216.0 * b ** 3)
                    + (1372.0 * a * e - 234.0 * b ** 3 - 147.0 * b * d)) * (-7.0)
           + L * (-5880.0 * a * b * b1 + 4410.0 * a1 * b * b
                  - 1656.0 * b ** 3 + 2940.0 * b * d)
           + s * t * (42.0 * b * (-35.0 * a1 * b + 36.0 * b * b - 98.0 * d))
           + 9604.0 * a * e - 1638.0 * b ** 3 - 1029.0 * b * d) * (1.0 / (4802.0 * a ** 3))
    return xi1, xi2, xi3


# ---------------------------------------------------------------------------
# integrals of u feeding the orbital time reparametrization
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lp_int_parts(phase: PhaseChoice, order: int, xi_identity: bool):
    """(int_0 q, c0, c1) per eps^k, where the eps^k term of u / omega (of u when
    xi = s) is q(zeta) (1 - zeta^2) + c1 zeta + c0."""
    u, om = _lp_parts(phase)[:2]
    om = [[1.0]] + [[0.0]] * 3 if xi_identity else om
    y, parts = [], []                       # y: u / omega as a series in eps
    for k in range(order + 1):              # y_k = u_k - sum_m omega_m y_(k-m)
        y.append(reduce(P.polysub, [P.polymul(om[m], y[k - m]) for m in range(1, k + 1)],
                        u[k]))
        at1, at_m1 = P.polyval(1.0, y[k]), P.polyval(-1.0, y[k])
        c0, c1 = (at1 + at_m1) / 2.0, (at1 - at_m1) / 2.0
        q = _pdivexact(P.polysub(y[k], [c0, c1]), [1.0, 0.0, -1.0], exact=False)
        parts.append((P.polyint(q), c0, c1))
    return tuple(parts)


def _lp_int_jet(xi, zeta, phase: PhaseChoice, order: int, xi_identity: bool) -> Jet:
    """`lp_int_u` as a jet in eps at eps = 0, truncated at eps^min(order, 3), at
    xi and zeta = tanh(xi); xi is an eps-jet or a value free of eps."""
    order = min(order, 3)
    Q, c0, c1 = zip(*_lp_int_parts(phase, order, xi_identity))
    return (_peval_eps_jet(Q, zeta, order) + logcosh(xi) * _eps_jet(c1, order)
            + xi * _eps_jet(c0, order))


def lp_int_u(xi, eps: float, phase: PhaseChoice = PhaseChoice.VZERO, order: int = 3,
             xi_identity: bool = False):
    """int u ds of the LP orbit at UNIT as a function of xi, zero at xi = 0.

    u ds is (u / omega) dxi, or u dxi when xi = s.  With zeta = tanh(xi),
    dzeta = (1 - zeta^2) dxi, so the eps^k term q(zeta) (1 - zeta^2) + c1 zeta + c0
    of the integrand integrates to int_0^zeta q + c0 xi + c1 log cosh xi.
    """
    xi = Jet(xi)
    return _series(_lp_int_jet(xi, tanh(xi), phase, order, xi_identity).c, eps, order)


# ---------------------------------------------------------------------------
# regular perturbation: the eps-expansion of the LP series
# ---------------------------------------------------------------------------
# The RP terms are the eps-Taylor coefficients of the LP orbit and of its
# integral at xi(s, eps), read by pushing jets in eps at eps = 0 through them.

def _rp_xi(s, phase: PhaseChoice, order: int, coeffs=UNIT) -> Jet:
    """xi(s, eps) of the v(0) = 0 series as an eps-jet, order <= 3; s may be a
    jet (in another variable, so a constant in eps).  L2 is that series at the
    time s + sigma, sigma = GAMMA1_L2 eps + SIGMA3_L2 eps^3."""
    if phase not in (PhaseChoice.VZERO, PhaseChoice.L2):
        raise ValueError("regular perturbation supports the VZERO and L2 phases only")
    _check_family(phase, coeffs)
    if isinstance(s, Jet):
        s = Jet(s)
    if phase is PhaseChoice.L2:
        s = s + _eps_jet((0.0, GAMMA1_L2, 0.0, SIGMA3_L2), order)
    return _eps_jet((s,) + _lp_parts(PhaseChoice.VZERO, tuple(coeffs))[3](s), order)


def _pass_jets(s, eps: float, kind: str, phase: PhaseChoice, order: int,
               xi_identity: bool, coeffs, integral: bool):
    """`planar_pass` before its sum at eps: the eps-jets at eps = 0 of u, v and,
    with ``integral``, of int_0^s u ds.  For rp their coefficients are the RP
    terms, read from the LP series at the eps-jet xi(s, eps)."""
    order = min(order, 3)
    if kind == "rp":
        xi = _rp_xi(s, phase, order, coeffs)
        lp_phase = PhaseChoice.VZERO
    else:
        xi = s if xi_identity else xi_of_s(s, eps, phase, order, coeffs)
        if isinstance(xi, Jet):     # a jet in another variable: a constant in eps
            xi = Jet(xi)
        lp_phase = phase
    zeta = tanh(xi)
    jets = _lp_jets(zeta, lp_phase, order, coeffs)
    if not integral:
        return jets
    if tuple(coeffs) != UNIT:
        raise ValueError("int u ds is implemented at the coefficients UNIT only")
    U = _lp_int_jet(xi, zeta, lp_phase, order, xi_identity)
    return jets + ((U - _rp_int_at0(phase, order)) if kind == "rp" else U,)


@lru_cache(maxsize=None)
def _rp_int_at0(phase: PhaseChoice, order: int) -> Jet:
    """The LP integral of u at xi(0, eps) as an eps-jet at eps = 0, at UNIT."""
    xi = _rp_xi(0.0, phase, order)
    return _lp_int_jet(xi, tanh(xi), PhaseChoice.VZERO, order, False)


def planar_pass(s, eps: float, kind: str, phase: PhaseChoice = PhaseChoice.VZERO,
                order: int = 3, xi_identity: bool = False, coeffs=UNIT,
                integral: bool = False):
    """The rp or lp orbit (u, v) at time s and, with ``integral``, int_0^s u ds
    (at UNIT), truncated at eps^order, all from one time transform xi(s) and
    one zeta = tanh(xi).  xi is the eps-jet of xi(s, eps) at eps = 0 for rp,
    xi(s) summed at eps for lp, and s itself with ``xi_identity`` (lp only).
    s may be a jet in another variable.

    The rp orbit at s is the v(0) = 0 one at s + sigma (sigma = 0 at v(0) = 0),
    so its integral is U(s + sigma) - U(sigma), U the LP integral at xi(s, eps);
    the lp integral vanishes at xi = 0 by itself.
    """
    return tuple(_series(j.c, eps, order)
                 for j in _pass_jets(s, eps, kind, phase, order, xi_identity, coeffs, integral))


def _rp_terms(phase: PhaseChoice, coeffs=UNIT):
    """u_0..u_3 of the regular-perturbation series, each a function of s."""
    return tuple(lambda s, i=i: _pass_jets(s, 0.0, "rp", phase, 3, False, coeffs, False)[0].c[i]
                 for i in range(4))


def rp_orbit(s, eps: float, phase: PhaseChoice = PhaseChoice.VZERO,
             order: int = 3, coeffs=UNIT):
    """Regular-perturbation orbit (u, u') at time s, truncated at eps^order."""
    return planar_pass(s, eps, "rp", phase, order, coeffs=coeffs)


def rp_int_u(s, eps: float, phase: PhaseChoice = PhaseChoice.VZERO, order: int = 3):
    """int_0^s u ds of the regular-perturbation orbit at UNIT, truncated at eps^order."""
    return planar_pass(s, eps, "rp", phase, order, integral=True)[2]
