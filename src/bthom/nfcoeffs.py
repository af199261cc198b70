"""Parameter-dependent center-manifold transformation at a Bogdanov-Takens point.

Computes the coefficients of the embedding H, the parameter map K, the time
rescaling theta and the normal-form coefficients, for three normal-form
variants:

* ``orbital`` - quadratic normal form up to a time reparametrization
  (theta1000, theta0001 nonzero; no cubic normal-form coefficients),
* ``smooth``  - no time reparametrization, normal-form coefficients
  a1, b1, d, e,
* ``hyper``   - smooth with e and b1 removed by hypernormalization.

Every coefficient is obtained from an individually consistent bordered solve;
no coupled "big" system is assembled.
"""

from __future__ import annotations

import enum
import math
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import BthomError
from .jet import Jet
from .linalg import BTData, bordered_solver, bt_eigenstructure
from .model import MultilinearOracle, OdeModel, build_oracle, derivatives, eval_rhs

__all__ = [
    "Variant",
    "NonGenericBTError",
    "CmExpansion",
    "critical_coefficients",
    "homological_residual",
    "analyze_bt",
]


class NonGenericBTError(BthomError):
    """Genericity (a*b != 0) or transversality violated at the BT point."""

    stage = "cm"


class Variant(enum.Enum):
    ORBITAL = "orbital"
    SMOOTH = "smooth"
    HYPER = "hyper"


@lru_cache(maxsize=None)
def _exponents(names: tuple) -> tuple:
    """The (variable, exponent) pairs of each name's nonzero exponents, the
    digits after its letter (H2100 is w0^2 w1)."""
    return tuple(tuple((k, int(ch)) for k, ch in enumerate(name[1:]) if ch != "0")
                 for name in names)


def _taylor(terms: dict, z):
    """Sum of c * prod_k z_k^m_k / m_k! over the (name, c) pairs of terms.

    The exponents m_k are the digits of the name after its letter (H2100 is
    w0^2 w1 / 2!).  Each z_k^m / m! is formed once per call.  The z_k may be
    Jets.
    """
    powers = {}
    out = 0.0
    for factors, c in zip(_exponents(tuple(terms)), terms.values()):
        for k, m in factors:
            if (k, m) not in powers:
                powers[k, m] = z[k] ** m / math.factorial(m)
        out = out + c * reduce(operator.mul, [powers[f] for f in factors])
    return out


@dataclass
class CmExpansion:
    """All transformation coefficients for one normal-form variant."""

    variant: Variant
    eig: BTData
    a: float
    b: float
    # smooth/hyper normal-form coefficients (None for the orbital variant)
    a1: float | None
    b1: float | None
    d: float | None
    e: float | None
    theta1000: float
    theta0001: float
    H: dict[str, np.ndarray]
    K: dict[str, np.ndarray]
    gamma: tuple[float, ...]   # gamma1..gamma6
    delta: tuple[float, ...]   # delta1..delta3
    max_solve_residual: float = 0.0

    @property
    def n(self) -> int:
        return self.eig.q0.size

    @property
    def x0(self) -> np.ndarray:
        return self.eig.x0

    @property
    def alpha0(self) -> np.ndarray:
        return self.eig.alpha0

    @property
    def _H_terms(self) -> dict[str, np.ndarray]:
        return {"H1000": self.eig.q0, "H0100": self.eig.q1, **self.H}

    def H_eval(self, w0, w1, beta1, beta2) -> np.ndarray:
        """The embedding H(w, beta) with all implemented terms."""
        return _taylor(self._H_terms, (w0, w1, beta1, beta2))

    def H_w(self, w0, w1, beta1, beta2) -> np.ndarray:
        """Jacobian of H with respect to (w0, w1), an n x 2 matrix."""
        return np.stack([self.H_eval(Jet.variable(w0, 1), w1, beta1, beta2).d,
                         self.H_eval(w0, Jet.variable(w1, 1), beta1, beta2).d], axis=-1)

    def K_eval(self, beta1, beta2) -> np.ndarray:
        """The parameter map K(beta) relative to alpha0."""
        return _taylor(self.K, (beta1, beta2))

    def theta_eval(self, w0: float, beta2: float) -> float:
        return 1.0 + self.theta1000 * w0 + self.theta0001 * beta2

    def G_eval(self, w0: float, w1: float, beta1: float, beta2: float) -> np.ndarray:
        """The planar normal form associated with this variant."""
        if self.variant is Variant.ORBITAL:
            g2 = beta1 + beta2 * w1 + self.a * w0 * w0 + self.b * w0 * w1
        else:
            g2 = (beta1 + beta2 * w1 + (self.a + self.a1 * beta2) * w0 * w0
                  + (self.b + self.b1 * beta2) * w0 * w1
                  + self.e * w0 * w0 * w1 + self.d * w0 ** 3)
        return np.array([w1, g2])

    def as_dict(self) -> dict:
        out = {
            "variant": self.variant.value,
            "a": self.a, "b": self.b,
            "theta1000": self.theta1000, "theta0001": self.theta0001,
        }
        if self.variant is not Variant.ORBITAL:
            out.update(a1=self.a1, b1=self.b1, d=self.d, e=self.e)
        for name, c in (self.H | self.K).items():
            out[name] = c.tolist()
        for i, g in enumerate(self.gamma, 1):
            out[f"gamma{i}"] = g
        for i, dl in enumerate(self.delta, 1):
            out[f"delta{i}"] = dl
        out["max_solve_residual"] = self.max_solve_residual
        return out


def critical_coefficients(oracle: MultilinearOracle, eig: BTData) -> tuple[float, float]:
    """Critical normal-form coefficients a = p1 B(q0,q0)/2, b = p1 B(q0,q1) + p0 B(q0,q0)."""
    q0, q1, p1, p0 = eig.q0, eig.q1, eig.p1, eig.p0
    Bq0q0 = oracle.B(q0, q0)
    a = 0.5 * float(p1 @ Bq0q0)
    b = float(p1 @ oracle.B(q0, q1) + p0 @ Bq0q0)
    scale = 1.0 + np.linalg.norm(Bq0q0)
    if abs(a) < 1e-10 * scale or abs(b) < 1e-10 * scale:
        raise NonGenericBTError(f"critical coefficient vanishes: a = {a:.3e}, b = {b:.3e}")
    return a, b


def _compute_cm(oracle: MultilinearOracle, eig: BTData, variant: Variant) -> CmExpansion:
    q0, q1, p1, p0 = eig.q0, eig.q1, eig.p1, eig.p0
    A, J1 = oracle.A, oracle.J1
    B, C = oracle.B, oracle.C
    A1, J2, B1, A2, J3 = oracle.A1, oracle.J2, oracle.B1, oracle.A2, oracle.J3
    orbital = variant is Variant.ORBITAL
    hyper = variant is Variant.HYPER

    a, b = critical_coefficients(oracle, eig)
    # certificate scale: 1 + ||A||_F + the largest right-hand side seen
    max_s = [0.0]
    max_y = [0.0]
    bordered = bordered_solver(A, p1, q0)

    def ainv(y):
        x, s = bordered(y)
        max_s[0] = max(max_s[0], abs(s))
        max_y[0] = max(max_y[0], float(np.linalg.norm(y)))
        return x

    # -- quadratic and cubic terms in w --------------------------------------
    H2000h = -ainv(B(q0, q0) - 2 * a * q1)
    H1100h = -ainv(B(q0, q1) - b * q1 - H2000h)

    if orbital:
        theta1000 = (-(p1 @ (3 * B(H2000h, q0) + C(q0, q0, q0))) / (12 * a)
                     + 0.5 * (p1 @ H1100h))
    else:
        theta1000 = 0.0

    gamma1 = float(p0 @ (B(q0, q1) - H2000h) + 0.5 * (p1 @ B(q1, q1)) + theta1000)
    H2000 = H2000h + gamma1 * q0

    if orbital:
        d_nf = None
    else:
        d_nf = float((p1 @ (3 * B(H2000, q0) + C(q0, q0, q0))
                      - 6 * a * (p1 @ H1100h + gamma1)) / 6.0)

    if variant is Variant.SMOOTH:
        gamma2 = 0.0
    else:
        gamma2 = float((p1 @ (2 * B(H1100h, q0) + B(H2000h, q1) + C(q0, q0, q1))
                        + 2 * a * (p0 @ B(q1, q1))
                        + 2 * b * (p0 @ (B(q0, q1) - H2000h))
                        + p0 @ (3 * B(H2000h, q0) + C(q0, q0, q0))
                        + gamma1 * b - 10 * a * (p0 @ H1100h)
                        + 2 * b * theta1000) / (6 * a))

    H1100 = H1100h + (gamma1 - theta1000) * q1 + gamma2 * q0
    H0200 = -ainv(B(q1, q1) - 2 * H1100)

    if orbital:
        H3000 = -ainv(3 * B(H2000, q0) + C(q0, q0, q0) + 6 * a * theta1000 * q1
                      - 6 * a * H1100)
    else:
        H3000 = -ainv(3 * B(H2000, q0) + C(q0, q0, q0) - 6 * d_nf * q1 - 6 * a * H1100)

    rhs2100_core = (-2 * a * H0200 - 2 * b * H1100 - H3000 + 2 * B(H1100, q0)
                    + B(H2000, q1) + C(q0, q0, q1))
    if orbital:
        H2100 = -ainv(rhs2100_core + 2 * theta1000 * (b * q1 - theta1000 * q0 + H2000))
        e_nf = None
    elif hyper:
        e_nf = 0.0
        H2100 = -ainv(rhs2100_core)
    else:
        e_nf = 0.5 * float(p1 @ rhs2100_core)
        H2100 = -ainv(rhs2100_core - 2 * e_nf * q1)

    # -- linear terms in beta -------------------------------------------------
    nu = (p1 @ J1).astype(float)
    if np.linalg.norm(nu) < 1e-10 * (1.0 + np.linalg.norm(J1)):
        raise NonGenericBTError("transversality violated: p1 J1 = 0")
    K10h = nu / (nu @ nu)
    H0010h = ainv(q1 - J1 @ K10h)
    K01h = np.array([-K10h[1], K10h[0]])
    H0001h = -ainv(J1 @ K01h)

    r01_q0 = B(H0001h, q0) + A1(q0, K01h)
    r01_q1 = B(H0001h, q1) + A1(q1, K01h)
    gamma3 = float(-(p1 @ r01_q0) / (2 * a))
    delta1 = float(1.0 / (p1 @ r01_q1 + p0 @ r01_q0 + gamma3 * b))
    K01 = delta1 * K01h
    H0001 = delta1 * (H0001h + gamma3 * q0)

    r10_q0 = B(H0010h, q0) + A1(q0, K10h)
    r10_q1 = B(H0010h, q1) + A1(q1, K10h)
    gamma4 = float((p1 @ H1100 - theta1000 - p1 @ r10_q0) / (2 * a))
    delta2 = float(-(p1 @ r10_q1) - gamma4 * b + p1 @ H0200
                   - p0 @ (r10_q0 - H1100))
    K10 = K10h + delta2 * K01
    H0010 = H0010h + delta2 * H0001 + gamma4 * q0

    H1010 = -ainv(B(H0010, q0) + A1(q0, K10) - H1100 + theta1000 * q1)
    H0110 = -ainv(B(H0010, q1) + A1(q1, K10) - H0200 - H1010)

    # -- w*beta2 terms: (gamma5, theta0001), H1001, H0101, H2001, H1101 -------
    H1001h = -ainv(B(H0001, q0) + A1(q0, K01))
    H0101h = -ainv(B(H0001, q1) + A1(q1, K01) - H1001h - q1)

    zeta1_core = (A1(H2000, K01) + B(H0001, H2000) + 2 * B(H1001h, q0)
                  + B1(q0, q0, K01) + C(H0001, q0, q0))
    zeta1 = float(p1 @ (-2 * a * H0101h + zeta1_core))
    zeta2 = float(p1 @ (-b * H0101h - H1100 + A1(H1100, K01)
                        + theta1000 * (H1001h + q1) + B(H0001, H1100)
                        + B(H0101h, q0) + B(H1001h, q1) + B1(q0, q1, K01)
                        + C(H0001, q0, q1))
                  + p0 @ (-2 * a * H0101h + zeta1_core))

    if orbital:
        M = np.array([[-2 * a, -4 * a], [-b, -b]])
        if abs(np.linalg.det(M)) < 1e-12 * (1 + a * a + b * b):
            raise NonGenericBTError("singular system for (gamma5, theta0001)")
        gamma5, theta0001 = np.linalg.solve(M, [zeta1, zeta2])
        gamma5, theta0001 = float(gamma5), float(theta0001)
    elif hyper:
        gamma5, theta0001 = -zeta2 / b, 0.0
    else:
        gamma5, theta0001 = 0.0, 0.0

    H1001 = H1001h + gamma5 * q0
    H0101 = H0101h + (gamma5 - theta0001) * q1

    rhs2001_core = (-2 * a * H0101 + A1(H2000, K01) + B(H0001, H2000)
                    + 2 * B(H1001, q0) + B1(q0, q0, K01) + C(H0001, q0, q0))
    if orbital:
        a1_nf = None
        H2001 = -ainv(rhs2001_core + 2 * a * theta0001 * q1)
    else:
        a1_nf = 0.5 * float(p1 @ rhs2001_core)
        H2001 = -ainv(rhs2001_core - 2 * a1_nf * q1)

    rhs1101_core = (-b * H0101 - H1100 - H2001 + A1(H1100, K01)
                    + B(H0001, H1100) + B(H0101, q0) + B(H1001, q1)
                    + B1(q0, q1, K01) + C(H0001, q0, q1))
    if orbital:
        b1_nf = None
        H1101 = -ainv(rhs1101_core
                      + theta1000 * (H1001 + q1 - theta0001 * q0)
                      + theta0001 * (H2000 + b * q1 - theta1000 * q0))
    elif hyper:
        b1_nf = 0.0
        H1101 = -ainv(rhs1101_core)
    else:
        b1_nf = float(p1 @ rhs1101_core)
        H1101 = -ainv(rhs1101_core - b1_nf * q1)

    # -- beta1*beta2 terms ----------------------------------------------------
    r11 = (A1(H0001, K10) + A1(H0010, K01) + B(H0010, H0001) + J2(K10, K01)
           + theta0001 * q1 - H0101)
    K11 = -float(p1 @ r11) * K10
    H0011 = -ainv(J1 @ K11 + r11)

    # -- beta2^2 terms (hypernormalization) -----------------------------------
    r02 = 2 * A1(H0001, K01) + B(H0001, H0001) + J2(K01, K01)
    K02h = -float(p1 @ r02) * K10
    H0002h = -ainv(J1 @ K02h + r02)

    r1002h = (2 * A1(H1001, K01) + A1(q0, K02h) + A2(q0, K01, K01)
              + B(q0, H0002h) + 2 * B(H0001, H1001) + 2 * B1(q0, H0001, K01)
              + C(q0, H0001, H0001))
    gamma6 = float(-(p1 @ r1002h) / (2 * a))
    r0102h = (2 * A1(H0101, K01) + A1(q1, K02h) + A2(q1, K01, K01)
              + B(q1, H0002h) + 2 * B(H0001, H0101) + 2 * B1(q1, H0001, K01)
              + C(q1, H0001, H0001) + 2 * theta0001 * (H1001 + q1) - 2 * H0101)
    delta3 = float(-(p1 @ r0102h) - p0 @ r1002h - gamma6 * b)

    K02 = K02h + delta3 * K01
    H0002 = H0002h + delta3 * H0001 + gamma6 * q0

    H1002 = -ainv(2 * A1(H1001, K01) + A1(q0, K02) + A2(q0, K01, K01)
                  + B(q0, H0002) + 2 * B(H0001, H1001) + 2 * B1(q0, H0001, K01)
                  + C(q0, H0001, H0001))
    H0102 = -ainv(2 * A1(H0101, K01) + A1(q1, K02) + A2(q1, K01, K01)
                  + B(q1, H0002) + 2 * B(H0001, H0101) + 2 * B1(q1, H0001, K01)
                  + C(q1, H0001, H0001)
                  + 2 * theta0001 * (H1001 + q1 - theta0001 * q0)
                  - 2 * H0101 - H1002)

    # -- beta2^3 terms ---------------------------------------------------------
    r03 = (3 * A1(H0001, K02) + 3 * A1(H0002, K01) + 3 * B(H0001, H0002)
           + 3 * J2(K01, K02) + 3 * A2(H0001, K01, K01)
           + 3 * B1(H0001, H0001, K01) + C(H0001, H0001, H0001)
           + J3(K01, K01, K01))
    K03 = -float(p1 @ r03) * K10
    H0003 = -ainv(J1 @ K03 + r03)

    solve_res = max_s[0] / (1.0 + np.linalg.norm(A, "fro") + max_y[0])
    if solve_res > 1e-5:
        warnings.warn("center-manifold systems satisfied only to "
                      f"{solve_res:.2e}; the BT point may be close to "
                      "degenerate or the equilibrium inexact", stacklevel=3)

    H = dict(H0010=H0010, H0001=H0001, H2000=H2000, H1100=H1100, H0200=H0200,
             H1010=H1010, H1001=H1001, H0110=H0110, H0101=H0101, H0002=H0002,
             H0011=H0011, H3000=H3000, H2100=H2100, H1101=H1101, H2001=H2001,
             H0003=H0003, H1002=H1002, H0102=H0102)
    K = dict(K10=K10, K01=K01, K02=K02, K11=K11, K03=K03)
    return CmExpansion(
        variant=variant, eig=eig, a=a, b=b,
        a1=a1_nf, b1=b1_nf, d=d_nf, e=e_nf,
        theta1000=float(theta1000), theta0001=float(theta0001),
        H=H, K=K,
        gamma=(gamma1, gamma2, gamma3, gamma4, gamma5, gamma6),
        delta=(delta1, delta2, delta3),
        max_solve_residual=float(solve_res),
    )


def homological_residual(expansion: CmExpansion, oracle: MultilinearOracle,
                         w, beta) -> np.ndarray:
    """f(H(w,b), K(b)) theta(w,b) - H_w(w,b) G(w,b) for the truncated expansions."""
    w0, w1 = float(w[0]), float(w[1])
    b1, b2 = float(beta[0]), float(beta[1])
    x = expansion.x0 + expansion.H_eval(w0, w1, b1, b2)
    alpha = expansion.alpha0 + expansion.K_eval(b1, b2)
    f = eval_rhs(oracle.model, x, alpha)
    theta = expansion.theta_eval(w0, b2)
    G = expansion.G_eval(w0, w1, b1, b2)
    return f * theta - expansion.H_w(w0, w1, b1, b2) @ G


def analyze_bt(model: OdeModel, x0, alpha0, variant: Variant | str = Variant.ORBITAL):
    """Full pipeline at an approximate BT point: oracle, eigendata, expansion.

    Newton-polishes the equilibrium (least squares, since the Jacobian is
    singular at the BT point) before differentiating.  Returns
    (oracle, expansion).
    """
    if isinstance(variant, str):
        variant = Variant(variant)
    x0 = np.asarray(x0, float).copy()
    alpha0 = np.asarray(alpha0, float)

    for _ in range(10):
        f = eval_rhs(model, x0, alpha0)
        if np.linalg.norm(f) < 1e-13 * (1.0 + np.linalg.norm(x0)):
            break
        J = derivatives(model, x0, alpha0)[0][:, :model.dim]
        step, *_ = np.linalg.lstsq(J, -f, rcond=None)
        if np.linalg.norm(eval_rhs(model, x0 + step, alpha0)) >= np.linalg.norm(f):
            break
        x0 = x0 + step

    oracle = build_oracle(model, x0, alpha0)
    eig = BTData(x0, alpha0, *bt_eigenstructure(oracle.A))     # (q0, q1, p1, p0)
    expansion = _compute_cm(oracle, eig, variant)
    return oracle, expansion
