import math

import mpmath as mp
import pytest

from bthom.jet import Jet, psi


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
