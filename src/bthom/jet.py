"""Truncated univariate Taylor arithmetic: the program's one derivative engine.

Pushing x0 + t v through a program in :class:`Jet` arithmetic gives its k-th
directional derivative along v as k! c[k], exact up to rounding (Griewank &
Walther, Evaluating Derivatives, SIAM 2008, ch. 13).  Each elementary function
given a plain argument returns its plain value, the value coefficient of its
jets at every order, so model code is compiled once against this module and
evaluated on arrays and on jets alike.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

__all__ = ["Jet", "elementary", "exp", "log", "sqrt", "cosh", "sinh", "tanh",
           "sech", "psi"]


class Jet:
    """Truncated Taylor polynomial c[0] + c[1] t + ... + c[K] t^K, K = order.

    The coefficients c[k] = f^(k)(0) / k! are arrays that broadcast, so base
    points in c[0] can be pushed along a batch of directions in c[1] at once.
    They may also be jets in a second variable (a nested jet), which carries
    mixed derivatives; a value entering such a jet's arithmetic from the inner
    level is first made a constant, ``Jet(inner)``.  A jet with fewer
    coefficients than another is a polynomial of lower degree (``Jet(c0)`` is a
    constant); results have the larger order.
    """

    __slots__ = ("c",)
    __array_ufunc__ = None       # numpy operands defer to the jet's operators

    def __init__(self, *c):
        self.c = c

    @staticmethod
    def variable(s, order: int = 2) -> Jet:
        """The independent variable s + t, truncated at ``order``; s may be a jet,
        whose coefficients are then those of a nested jet."""
        if isinstance(s, Jet):
            return Jet(s, *[1.0 if k == 1 else 0.0 for k in range(1, order + 1)])
        s = np.asarray(s, float) + 0.0
        return Jet(s, *[np.ones_like(s) if k == 1 else 0.0 for k in range(1, order + 1)])

    order = property(lambda self: len(self.c) - 1)
    # the value and the first and second derivatives in t
    f = property(lambda self: self.c[0])
    d = property(lambda self: self.c[1] if len(self.c) > 1 else 0.0)
    dd = property(lambda self: 2.0 * self.c[2] if len(self.c) > 2 else 0.0)

    def __add__(self, o) -> Jet:
        if not isinstance(o, Jet):
            return Jet(self.c[0] + o, *self.c[1:])
        a, b = (self.c, o.c) if len(self.c) >= len(o.c) else (o.c, self.c)
        return Jet(*[x + y for x, y in zip(a, b)], *a[len(b):])

    __radd__ = __add__

    def __neg__(self) -> Jet:
        return Jet(*[-c for c in self.c])

    def __sub__(self, o) -> Jet:
        return self + (-o)

    def __rsub__(self, o) -> Jet:
        return (-self) + o

    def __mul__(self, o) -> Jet:
        if not isinstance(o, Jet):
            return Jet(*[c * o for c in self.c])
        a, b = self.c, o.c
        out = []
        for k in range(max(len(a), len(b))):
            hi, lo = min(k, len(a) - 1), max(k - len(b) + 1, 0)
            acc = a[hi] * b[k - hi]
            for j in range(hi - 1, lo - 1, -1):
                acc = acc + a[j] * b[k - j]
            out.append(acc)
        return Jet(*out)

    __rmul__ = __mul__

    def __truediv__(self, o) -> Jet:
        if not isinstance(o, Jet):
            return Jet(*[c / o for c in self.c])
        return self * _reciprocal(o)

    def __rtruediv__(self, o) -> Jet:
        return _reciprocal(self) * o

    def __pow__(self, k: int) -> Jet:
        if k < 0:
            return 1.0 / self ** -k
        if k < 2:
            c0 = self.c[0]
            return self if k else Jet(c0 ** 0 if isinstance(c0, Jet)
                                      else np.ones_like(np.asarray(c0, float)))
        # binary powering; x^3 and x^4 stay repeated products, whose rounding
        # exact zeros of polarized tensors (HH's f_x,alpha,alpha) rest on
        if k % 2 or k <= 4:
            return self ** (k - 1) * self
        return (self ** (k // 2)) ** 2


def _compose(x: Jet, g) -> Jet:
    """phi(x), from phi's Taylor coefficients g[k] = phi^(k)(x0) / k! at x0 = x.c[0].

    The sum of g[j] (x - x0)^j; p[i] is the coefficient of t^(i + j) in
    (x - x0)^j, whose lower ones vanish.
    """
    h = x.c[1:]
    out = [g[0]] + [g[1] * hk for hk in h]
    p = h
    for j in range(2, len(g)):
        p = [sum((p[i] * h[m - i] for i in range(1, m + 1)), p[0] * h[m])
             for m in range(len(h) - j + 1)]
        for i, pi in enumerate(p):
            out[i + j] = out[i + j] + g[j] * pi
    return Jet(*out)


def elementary(value):
    """Decorator: phi from value, phi on arrays, and the decorated taylor(x0, K),
    which lists phi's Taylor coefficients g[1..K] at an array x0.  A plain x gives
    value(x); a jet gives the jet of phi, whose value coefficient is value(x0) at
    every order.  The base point may itself be a jet (nested jets); see `_taylor_at`."""
    def wrap(taylor):
        @functools.wraps(taylor)
        def apply(x):
            if not isinstance(x, Jet):
                return value(x)
            return _compose(x, _taylor_at(value, taylor, x.c[0], x.order))
        return apply
    return wrap


def _taylor_at(value, taylor, x0, order: int) -> list:
    """phi's Taylor coefficients phi^(k)(x0) / k!, k <= order, at x0 an array or a jet.

    At a jet x0 each is the jet of phi^(k) / k! at x0, whose own Taylor
    coefficients at x0's base point are C(k + m, k) g[k + m], g phi's there.
    """
    if not isinstance(x0, Jet):
        return [value(x0)] + taylor(x0, order)
    g = _taylor_at(value, taylor, x0.c[0], order + x0.order)
    return [_compose(x0, [math.comb(k + m, k) * g[k + m] for m in range(x0.order + 1)])
            for k in range(order + 1)]


@elementary(np.exp)
def exp(x0, order):
    e = np.exp(x0)
    return [e / math.factorial(k) for k in range(1, order + 1)]


@elementary(np.log)
def log(x0, order):
    return [(-1) ** (k + 1) / (k * x0 ** k) for k in range(1, order + 1)]


@elementary(np.sqrt)
def sqrt(x0, order):
    g = [np.sqrt(x0)]
    for k in range(1, order + 1):           # binomial series of (x0 + h)^(1/2)
        g.append(g[-1] * (1.5 - k) / (k * x0))
    return g[1:]


@elementary(np.cosh)
def cosh(x0, order):
    pair = np.cosh(x0), np.sinh(x0)
    return [pair[k % 2] / math.factorial(k) for k in range(1, order + 1)]


@elementary(np.sinh)
def sinh(x0, order):
    pair = np.sinh(x0), np.cosh(x0)
    return [pair[k % 2] / math.factorial(k) for k in range(1, order + 1)]


def _sech(x):          # 2 e^-|x| / (1 + e^-2|x|): accurate where cosh(x) overflows
    e = np.exp(-np.abs(x))
    return 2.0 * e / (1.0 + e * e)


def _tanh_sech(x0, order):
    """tanh's Taylor coefficients at x0 to ``order`` and sech's to order - 1, from
    tanh' = sech^2 and sech' = -sech tanh, which keep them accurate far out."""
    t, s = [np.tanh(x0)], []
    for k in range(order):
        s.append(-sum(s[i] * t[k - 1 - i] for i in range(k)) / k if k else _sech(x0))
        t.append(sum(s[i] * s[k - i] for i in range(k + 1)) / (k + 1))
    return t, s


@elementary(np.tanh)
def tanh(x0, order):
    return _tanh_sech(x0, order)[0][1:]


@elementary(_sech)
def sech(x0, order):
    return _tanh_sech(x0, order + 1)[1][1:]


def _reciprocal(x: Jet) -> Jet:
    r = 1.0 / x.c[0]
    return _compose(x, [r * (-r) ** k for k in range(x.order + 1)])


def _bernoulli_series(terms: int) -> np.ndarray:
    """beta_n = B_n / n!, the Taylor coefficients of x / (e^x - 1) at 0, from
    (sum_n x^n / (n + 1)!) (sum_n beta_n x^n) = 1 in exact rationals."""
    beta = [Fraction(1)]
    for n in range(1, terms):
        beta.append(-sum(beta[n - j] / math.factorial(j + 1) for j in range(1, n + 1)))
    return np.array([float(b) for b in beta])


_BETA = _bernoulli_series(31)     # beta_30 (2 pi)^-30 C(30, 3) is below 1e-20


@functools.cache
def _psi_series(order: int) -> np.ndarray:
    """The (31, order + 1) matrix M with M[j, k] = C(j + k, k) beta_(j + k), zero
    past beta_30: the powers x0^j times M list psi's Taylor coefficients at x0."""
    M = np.zeros((_BETA.size, order + 1))
    for k in range(order + 1):
        M[:_BETA.size - k, k] = _BETA[k:] * [math.comb(n, k) for n in range(k, _BETA.size)]
    M.flags.writeable = False
    return M


def _psi(x):
    """x / expm1(x), continued through 0 by 1 - x/2 + x^2/12 below |x| = 1e-7."""
    small = np.abs(x) < 1e-7
    den = np.where(small, 1.0, np.expm1(np.where(small, 0.0, x)))
    return np.where(small, 1.0 - x / 2.0 + x * x / 12.0, x / den)


@elementary(_psi)
def psi(x0, order):
    """x / (exp(x) - 1), continued with psi(0) = 1.

    For |x0| < 1 the Taylor coefficients of order >= 1 come from the Bernoulli
    series sum_n C(n, k) beta_n x0^(n - k), whose radius is 2 pi; elsewhere
    from x / expm1(x) in jet arithmetic, which loses a factor 1/|expm1(x0)|
    per order and so is kept away from 0.
    """
    small = np.abs(x0) < 1.0
    series = quotient = [0.0] * (order + 1)
    if small.any():
        xs = np.where(small, x0, 0.0)[..., None]
        series = np.moveaxis(xs ** np.arange(_BETA.size) @ _psi_series(order), -1, 0)
    if not small.all():
        t = Jet.variable(np.where(small, 1.0, x0), order)
        quotient = (t / Jet(np.expm1(t.c[0]), *exp(t).c[1:])).c
    return [np.where(small, s, q) for s, q in zip(series[1:], quotient[1:])]
