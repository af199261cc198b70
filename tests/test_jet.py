import math

import mpmath as mp
import numpy as np
import pytest

from bthom.asymptotics import logcosh
from bthom.jet import Jet, cosh, exp, log, psi, sech, sinh, sqrt, tanh


def _psi_mp(t):
    return t / mp.expm1(t) if t != 0 else mp.mpf(1)


@pytest.mark.parametrize("x0", [0.0, 1e-9, -1e-9, 1e-3, -1e-3, 0.3, -0.3,
                                2.0, -2.0, 20.0, -20.0])
def test_psi_derivatives_match_mpmath(x0):
    jet = psi(Jet.variable(x0, 3))
    with mp.workdps(40):
        for k in range(4):
            want = float(mp.diff(_psi_mp, mp.mpf(x0), k))
            got = float(jet.c[k]) * math.factorial(k)
            assert abs(got - want) <= 1e-13 * abs(want) + 1e-20, (k, got, want)


@pytest.mark.parametrize("x0", [1.001, -0.97])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 7, 64, 1000])
def test_integer_power_derivatives(k, x0):
    jet = Jet.variable(x0, 3) ** k
    for j in range(4):
        got = (float(jet.c[j]) if j < len(jet.c) else 0.0) * math.factorial(j)
        want = math.perm(k, j) * x0 ** (k - j) if j <= k else 0.0
        assert abs(got - want) <= 1e-13 * abs(want), (j, got, want)


def test_integer_power_takes_logarithmically_many_products(monkeypatch):
    calls = []
    mul = Jet.__mul__

    def counting(self, o):
        calls.append(1)
        return mul(self, o)

    monkeypatch.setattr(Jet, "__mul__", counting)
    Jet.variable(1.001, 3) ** 1000
    assert 0 < len(calls) <= 2 * math.ceil(math.log2(1000))


# x(t, u) = x0 + P t + Q u + R t u + P2 t^2 + Q2 u^2, as an order-3 jet in t
# whose coefficients are order-2 jets in u
P, Q, R, P2, Q2 = 0.3, -0.45, 0.5, -0.15, 0.25
NESTED = {exp: mp.exp, log: mp.log, sqrt: mp.sqrt, cosh: mp.cosh, sinh: mp.sinh,
          tanh: mp.tanh, sech: mp.sech, logcosh: lambda z: mp.log(mp.cosh(z)),
          psi: _psi_mp}


@pytest.mark.parametrize("fn, x0", [(fn, x0) for fn in NESTED for x0 in (0.7, 1.9, -1.3)
                                     if x0 > 0 or fn not in (log, sqrt)],
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_nested_jets_give_mixed_derivatives(fn, x0):
    x = Jet(Jet(x0, Q, Q2), Jet(P, R, 0.0), Jet(P2, 0.0, 0.0), 0.0)
    jet = fn(x)

    def f(t, u):
        return NESTED[fn](x0 + P * t + Q * u + R * t * u + P2 * t * t + Q2 * u * u)

    with mp.workdps(40):
        for k in range(4):
            for m in range(3):
                want = float(mp.diff(f, (0, 0), (k, m))) / (math.factorial(k) * math.factorial(m))
                got = float(jet.c[k].c[m])
                assert abs(got - want) <= 1e-13 * abs(want), (k, m, got, want)


@pytest.mark.parametrize("x0", [0.3, 3.0, 25.0, -25.0, 800.0])
@pytest.mark.parametrize("fn", [tanh, sech], ids=lambda f: f.__name__)
def test_tanh_and_sech_keep_relative_accuracy_far_out(fn, x0):
    # tanh^(k) = (sech^2)^(k - 1) for k >= 1: sech is not close to 1, so the
    # reference loses no digits at large |x0|; any RuntimeWarning is an error
    jet = fn(Jet.variable(x0, 3))
    with mp.workdps(60):
        for k in range(4):
            if fn is tanh and k:
                want = mp.diff(lambda z: mp.sech(z) ** 2, mp.mpf(x0), k - 1)
            else:
                want = mp.diff(NESTED[fn], mp.mpf(x0), k)
            want = float(want / math.factorial(k))
            got = float(jet.c[k])
            assert abs(got - want) <= 1e-13 * abs(want), (k, got, want)


@pytest.mark.parametrize("x0", [1e-8, 1e-3, 0.05, 0.9, 1.1, 30.0, 800.0])
def test_logcosh_value_is_accurate_near_zero_and_far_out(x0):
    with mp.workdps(40):
        want = float(mp.log(mp.cosh(mp.mpf(x0))))
    for x in (x0, -x0):
        got = float(logcosh(x))
        assert abs(got - want) <= 1e-15 * want, (x, got, want)


EDGES = [1e-8, 0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 30.0, 800.0]


def test_logcosh_of_a_mixed_array_matches_elementwise_calls():
    x = np.array([s * v for v in EDGES for s in (1.0, -1.0)])
    got = logcosh(x)
    assert got.shape == x.shape
    assert np.array_equal(got, [logcosh(float(v)) for v in x])


GRID = np.array([s * v for v in (0.0, 1e-9, 9.99e-8, 1e-7, 1 - 1e-6, 1.0, 1 + 1e-6, 30.0, 800.0)
                 for s in (1.0, -1.0)])


@pytest.mark.parametrize("fn", list(NESTED), ids=lambda f: f.__name__)
def test_plain_argument_gives_the_value_coefficient_of_every_order(fn):
    # exp, cosh and sinh overflow at 800; log and sqrt take positive x
    x = GRID if fn in (psi, sech, tanh, logcosh) else GRID[np.abs(GRID) < 100]
    x = x[x > 0] if fn in (log, sqrt) else x
    with np.errstate(over="ignore", invalid="ignore"):     # psi's expm1 at 800
        value = fn(x)
        assert not isinstance(value, Jet)
        for order in (1, 2, 3):
            assert np.array_equal(fn(Jet.variable(x, order)).c[0], value), order


def test_variable_and_power_zero_at_a_jet_base_point():
    inner = Jet.variable(0.4, 2)
    x = Jet.variable(inner, 3)
    assert x.c[0] is inner and x.c[1:] == (1.0, 0.0, 0.0)
    one = x ** 0
    assert one.order == 0 and isinstance(one.c[0], Jet)
    assert float(one.c[0].c[0]) == 1.0
    # exp(x) at x = 0.4 + u + t: every coefficient is e^0.4 / (k! m!)
    jet = exp(x)
    for k in range(4):
        for m in range(3):
            want = math.exp(0.4) / (math.factorial(k) * math.factorial(m))
            assert abs(float(jet.c[k].c[m]) - want) <= 1e-15 * want
