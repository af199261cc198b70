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
