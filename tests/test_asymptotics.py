from fractions import Fraction as F

import numpy as np
import pytest
import scipy.integrate as si
from numpy.polynomial.polynomial import polyder, polyval

import bthom.asymptotics as asy
from bthom.asymptotics import (ALT_GAMMA1, GAMMA1_L2, GAMMA3_L2, SIGMA3_L2, UNIT, In_closed,
                               In_closed_parts, PhaseChoice, lp_orbit_third,
                               lp_solve_quadratic, planar_pass, smooth_tau, u0,
                               xi_of_s)
from bthom.jet import Jet, tanh
from conftest import NF_COEFFS, fit_slope

EPS_GRID = np.array([0.1, 0.05, 0.025, 0.0125])


class TestZerothOrder:
    def test_values(self):
        u, ud = u0(0.0)
        assert u == -4.0 and ud == 0.0
        u, ud = u0(40.0)
        assert u == pytest.approx(2.0, abs=1e-12)
        assert abs(ud) < 1e-12

    def test_hamiltonian_is_conserved(self):
        s = np.linspace(-5, 5, 101)
        u, ud = u0(s)
        H = 0.5 * ud ** 2 + 4 * u - u ** 3 / 3
        assert np.max(np.abs(H - H[0])) < 1e-12


class TestRegularPerturbation:
    def test_eps_zero_reduces_to_u0(self):
        s = np.linspace(-3, 3, 11)
        u, ud = planar_pass(s, 0.0, "rp")
        u_ref, ud_ref = u0(s)
        assert np.allclose(u, u_ref, atol=1e-15)
        assert np.allclose(ud, ud_ref, atol=1e-15)

    def test_tau(self):
        assert smooth_tau(0.0, UNIT) == pytest.approx(10 / 7, abs=0)
        assert smooth_tau(1.0, UNIT) == pytest.approx(10 / 7 + 288 / 2401, abs=1e-15)
        assert smooth_tau(-0.37, UNIT) == smooth_tau(0.37, UNIT)
        assert smooth_tau(0.5, UNIT, 1) == 10 / 7

    @pytest.mark.parametrize("phase", [PhaseChoice.VZERO, PhaseChoice.L2])
    def test_each_series_term_solves_its_chain_ode(self, phase):
        """u_i'' - 2 u0 u_i = z_i with z_i built from the lower orders."""
        s = Jet.variable(np.linspace(-6, 6, 41))
        t0, t1, t2, t3 = asy._rp_terms(phase)
        u0j, u1j, u2j, u3j = t0(s), t1(s), t2(s), t3(s)
        tau0, tau2 = 10 / 7, 288 / 2401
        z1 = (u0j.f + tau0) * u0j.d
        z2 = (u0j.f + tau0) * u1j.d + u1j.f * u0j.d + u1j.f ** 2
        z3 = ((u2j.f + tau2) * u0j.d + (u0j.f + tau0) * u2j.d
              + u1j.f * (u1j.d + 2 * u2j.f))
        assert np.max(np.abs(u1j.dd - 2 * u0j.f * u1j.f - z1)) < 1e-12
        assert np.max(np.abs(u2j.dd - 2 * u0j.f * u2j.f - z2)) < 1e-12
        assert np.max(np.abs(u3j.dd - 2 * u0j.f * u3j.f - z3)) < 1e-12

    @pytest.mark.parametrize("phase", [PhaseChoice.VZERO, PhaseChoice.L2])
    def test_oscillator_residual_order(self, phase):
        s = Jet.variable(np.linspace(-8, 8, 161))
        res = []
        for eps in EPS_GRID:
            terms = asy._rp_terms(phase)
            u = terms[0](s)
            for i in range(1, 4):
                u = u + terms[i](s) * eps ** i
            r = u.dd - (-4 + u.f ** 2 + eps * u.d * (u.f + smooth_tau(eps, UNIT)))
            res.append(np.max(np.abs(r)))
        assert fit_slope(EPS_GRID, res) >= 3.7

    def test_vzero_phase_condition(self):
        for eps in (0.1, 0.05):
            _, ud = planar_pass(0.0, eps, "rp", PhaseChoice.VZERO)
            assert abs(ud) < 1e-13

    def test_l2_phase_condition_integral_vanishes(self):
        """int_0^inf <(u0', u0''), (u_i + g u0', u_i' + g u0'')> ds = 0, i = 1, 3."""
        terms = {i: asy._rp_terms(PhaseChoice.L2)[i] for i in (1, 3)}

        def integrand(fn):
            def g(s):
                sj = Jet.variable(np.array([s]))
                base = asy._u0_jet(sj)
                term = fn(sj)
                return float((base.d * term.f + base.dd * term.d)[0])
            return g

        for i, fn in terms.items():
            val, _ = si.quad(integrand(fn), 0, 40, limit=300)
            assert abs(val) < 1e-8, f"phase integral nonzero at order {i}"

    def test_branch_symmetry(self):
        # u(s, -eps) - u(-s, eps) is a multiple of u0' (zero for this phase)
        s = np.linspace(-4, 4, 33)
        for eps in (0.1, 0.05):
            up, _ = planar_pass(s, eps, "rp", PhaseChoice.VZERO)
            um, _ = planar_pass(-s, -eps, "rp", PhaseChoice.VZERO)
            assert np.max(np.abs(up - um)) < 1e-10

    @pytest.mark.parametrize("phase", [PhaseChoice.VZERO, PhaseChoice.L2])
    def test_jet_eps_is_read_at_its_value(self, phase):
        """A jet eps carries d/deps at its own base point, here eps = 0.1."""
        s, h = np.linspace(-6, 6, 49), 1e-5
        u, v = planar_pass(s, Jet.variable(0.1, 1), "rp", phase)
        up, vp = planar_pass(s, 0.1 + h, "rp", phase)
        um, vm = planar_pass(s, 0.1 - h, "rp", phase)
        assert np.max(np.abs(u.f - planar_pass(s, 0.1, "rp", phase)[0])) <= 1e-15
        assert np.max(np.abs(u.d - (up - um) / (2 * h))) <= 1e-8
        assert np.max(np.abs(v.d - (vp - vm) / (2 * h))) <= 1e-8
        xi = xi_of_s(s, Jet.variable(0.1, 1))
        assert np.max(np.abs(xi.f - xi_of_s(s, 0.1))) <= 1e-15
        assert np.max(np.abs(xi.d - (xi_of_s(s, 0.1 + h) - xi_of_s(s, 0.1 - h)) / (2 * h))) <= 1e-8

    def test_altgamma_not_supported(self):
        with pytest.raises(ValueError):
            planar_pass(0.0, 0.1, "rp", PhaseChoice.ALTGAMMA)

    @pytest.mark.parametrize("order", range(4))
    def test_l2_is_the_shifted_vzero_series(self, order):
        """u_L2(s) = u_VZERO(s + GAMMA1_L2 eps + SIGMA3_L2 eps^3), truncated in eps;
        this pins SIGMA3_L2 and the vanishing eps^2 shift."""
        s = np.linspace(-8, 8, 161)
        sj = Jet.variable(s, order + 1)
        c = [f(sj).c for f in asy._rp_terms(PhaseChoice.VZERO)]    # Taylor in s
        e = Jet.variable(0.0, order)                                # eps, formally
        sigma = e * GAMMA1_L2 + e ** 3 * SIGMA3_L2
        u_e = sum(e ** i * c[i][k] * sigma ** k
                  for i in range(order + 1) for k in range(order + 1))
        ud_e = sum(e ** i * (c[i][k + 1] * (k + 1)) * sigma ** k
                   for i in range(order + 1) for k in range(order + 1))
        for eps in (0.3, 0.1, 0.05):
            u, ud = planar_pass(s, eps, "rp", PhaseChoice.L2, order)
            assert np.max(np.abs(asy._series(u_e.c, eps, order) - u)) <= 1e-14
            assert np.max(np.abs(asy._series(ud_e.c, eps, order) - ud)) <= 1e-14

    @pytest.mark.parametrize("phase", [PhaseChoice.VZERO, PhaseChoice.L2])
    def test_integral_of_u(self, phase):
        s = np.linspace(-8, 8, 161)
        for order in range(4):
            for eps in (0.3, 0.1):
                integral = planar_pass(Jet.variable(s, 1), eps, "rp", phase, order,
                                       integral=True)[2]
                u, _ = planar_pass(s, eps, "rp", phase, order)
                assert np.max(np.abs(integral.d - u)) <= 1e-14
                assert planar_pass(0.0, eps, "rp", phase, order, integral=True)[2] == 0.0
        for kind in ("rp", "lp"):   # the integral exists at the coefficients UNIT only
            with pytest.raises(ValueError, match="UNIT only"):
                planar_pass(0.5, 0.1, kind, coeffs=(1, 2, 0.1, 0.2, 0.3, 0.4), integral=True)


class TestGammaConstants:
    def test_gamma1_quadrature(self):
        def g(s):
            sj = Jet.variable(np.array([s]))
            base = asy._u0_jet(sj)
            u1 = asy._rp_terms(PhaseChoice.VZERO)[1](sj)
            return float((base.d * (1 - 2 * base.f) * u1.f)[0])
        val, _ = si.quad(g, 0, 40, limit=200)
        assert -(35 / 2592) * val == pytest.approx(GAMMA1_L2, abs=1e-10)

    def test_gamma3_quadrature(self):
        def g(s):
            sj = Jet.variable(np.array([s]))
            base = asy._u0_jet(sj)
            u3_raw = asy._rp_terms(PhaseChoice.L2)[3](sj) - base.d * GAMMA3_L2
            return float((base.d * (1 - 2 * base.f) * u3_raw.f)[0])
        val, _ = si.quad(g, 0, 40, limit=300)
        assert -(35 / 2592) * val == pytest.approx(GAMMA3_L2, abs=1e-10)


class TestInClosed:
    PRINTED = {
        4: (F(82, 27), F(-5, 36), F(-1)),
        6: (F(38342, 16875), F(-47, 450), F(-4, 5)),
        8: (F(25545482, 13505625), F(-319, 3675), F(-24, 35)),
        10: (F(5428830032, 3281866875), F(-7516, 99225), F(-64, 105)),
    }

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_exact_decomposition(self, n):
        assert In_closed_parts(n) == self.PRINTED[n]

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_matches_quadrature(self, n):
        val, _ = si.quad(lambda s: np.log(2 * np.cosh(s)) ** 3 / np.cosh(s) ** n,
                         0, 40, limit=200)
        assert In_closed(n) == pytest.approx(val, abs=1e-12)

    def test_rejects_bad_n(self):
        for n in (3, 5, 2, 66, 0):
            with pytest.raises(ValueError):
                In_closed(n)


class TestLpEngine:
    def test_order_four_exact_values(self):
        ser = lp_solve_quadratic(4)
        assert ser.tau == [F(10, 7), 0, F(288, 2401), 0]
        assert ser.sigma[0] == 6 and ser.delta[0] == -4
        assert ser.sigma[1] == 0 and ser.sigma[2] == F(18, 49)
        assert ser.delta[2] == F(-18, 49)
        assert ser.omega[0] == [1]
        assert ser.omega[1] == [0, F(-6, 7)]
        assert ser.omega[2] == [F(9, 98), 0, F(27, 98)]
        assert ser.omega[3] == [0, F(-198, 2401), 0, F(18, 343)]

    def test_order_twelve_invariants(self):
        ser = lp_solve_quadratic(12)
        for i in range(1, 11):
            if i % 2 == 1:
                assert ser.tau[i] == 0
                assert ser.sigma[i] == 0 and ser.delta[i] == 0
            else:
                assert ser.sigma[i] == -ser.delta[i] != 0
            assert len(ser.omega[i]) - 1 <= 2 * i + 1

    def test_floating_series_matches_exact(self):
        ser = lp_solve_quadratic(4)
        _, _, om = asy._lp_float_series(PhaseChoice.VZERO)
        for i in range(4):
            exact = [float(c) for c in ser.omega[i]]
            exact += [0.0] * (len(om[i]) - len(exact))
            assert np.allclose(om[i], exact[:len(om[i])], atol=1e-14)

    @pytest.mark.parametrize("num, den, exact", [
        ([F(1), F(0), F(1)], [F(-1), F(1)], True),          # z^2 + 1 = 2 at z = 1
        ([1.0, 0.0, -1.0 + 1e-6], [1.0, 1.0], False),       # 1e-6 at z = -1
    ], ids=["fraction", "float"])
    def test_division_with_a_remainder_raises(self, num, den, exact):
        with pytest.raises(ArithmeticError):
            asy._pdivexact(num, den, exact)

    def test_exact_division_returns_fraction_quotient(self):
        q = asy._pdivexact([F(-1), F(0), F(1)], [F(1), F(1)], exact=True)
        assert list(q) == [-1, 1] and all(type(c) is F for c in q)
        q = asy._pdivexact([1.0, 0.0, -1.0 + 1e-12], [1.0, 1.0], exact=False)
        assert np.allclose(q, [1.0, -1.0], atol=1e-11)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            lp_solve_quadratic(0)


class TestLpOrbit:
    def test_saddle_at_zeta_one(self):
        for phase in (PhaseChoice.VZERO, PhaseChoice.ALTGAMMA):
            for z in (1.0, -1.0):
                u, v = lp_orbit_third(z, 0.3, phase)
                assert u == pytest.approx(2.0, abs=1e-12)
                assert v == pytest.approx(0.0, abs=1e-12)

    def test_bottom_at_eps_zero(self):
        u, v = lp_orbit_third(0.0, 0.0)
        assert u == -4.0 and v == 0.0

    def test_vzero_matches_printed_displays(self):
        z, e = 0.37, 0.21
        u, v = lp_orbit_third(z, e)
        assert u == pytest.approx(2 - (1 - z * z) * (6 + 18 / 49 * e * e), abs=1e-14)
        v_printed = (1 - z * z) * z * (12 - 72 / 7 * z * e
                                       + (90 / 49 + 162 / 49 * z * z) * e ** 2
                                       + (-3888 / 2401 * z + 216 / 343 * z ** 3) * e ** 3)
        assert v == pytest.approx(v_printed, abs=1e-14)

    def test_altgamma_matches_printed_displays(self):
        g = ALT_GAMMA1
        z = np.linspace(-0.9, 0.9, 7)
        u, v = lp_orbit_third(z, 0.15, PhaseChoice.ALTGAMMA)
        u_printed = 2 + (1 - z * z) * (-6 + 12 * g * z * 0.15
                                       + (6 * g * g - 18 / 49) * 0.15 ** 2)
        assert np.allclose(u, u_printed, atol=1e-14)
        # the printed eps^2 and eps^3 brackets of v
        _, u_a, om_a = asy._lp_float_series(PhaseChoice.ALTGAMMA)
        v2 = (1 - z * z) * 6 * z * (15 - 168 * g - 245 * g * g
                                    + 3 * (9 + 7 * g * (16 + 7 * g)) * z * z) / 49
        v3 = (1 - z * z) * (216 * z * z * (-18 + 7 * z * z) / 2401
                            + 6 * g ** 3 * (-3 + 2 * z * z + z ** 4)
                            - 72 * g * g * (1 - 6 * z * z + 4 * z ** 4) / 7
                            - 54 * g * (-1 - 6 * z * z + 15 * z ** 4) / 49)

        def v_coeff(k):
            acc = np.zeros_like(z)
            for i in range(k + 1):
                up = polyder(u_a[k - i])
                acc += polyval(z, om_a[i]) * polyval(z, up)
            return (1 - z * z) * acc

        assert np.allclose(v_coeff(2), v2, atol=1e-13)
        assert np.allclose(v_coeff(3), v3, atol=1e-13)

    def test_float_recursion_with_zero_gamma_matches_rational(self):
        tauf, sig, delt, om, _ = asy._lp_recursion(4, gamma=[0.0, 0.0], exact=False)
        ser = lp_solve_quadratic(4)
        assert np.allclose([float(t) for t in tauf], [float(t) for t in ser.tau], atol=1e-13)
        assert float(sig[2]) == pytest.approx(18 / 49, abs=1e-13)

    def test_l2_phase_rejected(self):
        with pytest.raises(ValueError):
            lp_orbit_third(0.0, 0.1, PhaseChoice.L2)

    def test_composition_matches_rp_to_fourth_order(self):
        s = np.linspace(-6, 6, 61)
        ratios = []
        for eps in (0.1, 0.05, 0.025):
            u_lp, _ = planar_pass(s, eps, "lp")
            u_rp, _ = planar_pass(s, eps, "rp")
            ratios.append(np.max(np.abs(u_lp - u_rp)) / eps ** 4)
        assert np.std(ratios) / np.mean(ratios) < 0.05  # clean O(eps^4)

    @pytest.mark.parametrize("phase", [PhaseChoice.VZERO, PhaseChoice.ALTGAMMA])
    def test_oscillator_residual_order(self, phase):
        s = Jet.variable(np.linspace(-8, 8, 161))
        res = []
        for eps in EPS_GRID:
            xi = xi_of_s(s, eps, phase)
            zeta = tanh(xi)
            _, u_polys, _ = asy._lp_float_series(phase)
            u = Jet(np.zeros(161))
            for i in range(4):
                u = u + polyval(zeta, u_polys[i]) * eps ** i
            r = u.dd - (-4 + u.f ** 2 + eps * u.d * (u.f + smooth_tau(eps, UNIT)))
            res.append(np.max(np.abs(r)))
        assert fit_slope(EPS_GRID, res) >= 3.7


class TestXi:
    def test_identity_at_eps_zero(self):
        s = np.linspace(-3, 3, 13)
        assert np.allclose(xi_of_s(s, 0.0), s, atol=0)

    @pytest.mark.parametrize("phase", [PhaseChoice.VZERO, PhaseChoice.ALTGAMMA])
    def test_phase_anchoring_at_zero(self, phase):
        for eps in (0.3, 0.1, 0.05):
            assert abs(xi_of_s(0.0, eps, phase)) < 1e-14

    @pytest.mark.parametrize("phase", [PhaseChoice.VZERO, PhaseChoice.ALTGAMMA])
    def test_defining_ode_residual_order(self, phase):
        s = Jet.variable(np.linspace(-8, 8, 161))
        eps_grid = [0.05, 0.025, 0.0125]
        res = []
        for eps in eps_grid:
            xi = xi_of_s(s, eps, phase)
            _, _, om = asy._lp_float_series(phase)
            omega = Jet(np.zeros(161))
            for i in range(4):
                omega = omega + polyval(tanh(xi), om[i]) * eps ** i
            res.append(np.max(np.abs(xi.d - omega.f)))
        assert fit_slope(eps_grid, res) >= 3.7

    def test_l2_rejected(self):
        with pytest.raises(ValueError):
            xi_of_s(0.0, 0.1, PhaseChoice.L2)


class TestSmoothNormalForm:
    def test_specializes_to_quadratic_case(self):
        quad = (1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        u1, v1 = lp_orbit_third(0.4, 0.1, coeffs=quad)
        # the floating LP recursion, v = (1 - z^2) omega(z) u'(z)
        _, u_p, om = asy._lp_float_series(PhaseChoice.VZERO)
        z, e = 0.4, 0.1
        u2 = sum(polyval(z, u_p[i]) * e ** i for i in range(4))
        v2 = (1 - z * z) * sum(polyval(z, om[i])
                               * polyval(z, polyder(u_p[j])) * e ** (i + j)
                               for i in range(4) for j in range(4 - i))
        assert u1 == pytest.approx(u2, abs=1e-14)
        assert v1 == pytest.approx(v2, abs=1e-14)
        assert lp_orbit_third(0.4, 0.1, coeffs=list(quad)) == (u1, v1)
        u1, v1 = planar_pass(1.3, 0.1, "rp", coeffs=quad)
        u2, v2 = planar_pass(1.3, 0.1, "rp")
        assert u1 == pytest.approx(u2, abs=1e-14)
        assert v1 == pytest.approx(v2, abs=1e-14)
        assert smooth_tau(0.3, quad) == smooth_tau(0.3, UNIT)

    def test_unit_polynomials_match_exact_recursion(self):
        # the orbital LP predictor reads these closed forms, not the recursion
        _, _, _, om, u = asy._lp_recursion(4, exact=True)
        for closed, exact in ((asy._smooth_u_polys(asy.UNIT), u),
                              (asy._smooth_omega_polys(asy.UNIT), om)):
            assert len(closed) == len(exact) == 4
            for p, q in zip(closed, exact):
                n = max(len(p), len(q))
                p = np.pad(np.asarray(p, float), (0, n - len(p)))
                q = np.pad([float(c) for c in q], (0, n - len(q)))
                assert np.max(np.abs(p - q)) <= 1e-15

    def test_tau_formula(self):
        a, b, a1, b1, d, e = NF_COEFFS
        printed = 10 / 7 + (98 * b * (50 * a * b1 + 73 * d) - 9604 * a * e
                            - 2450 * a1 * b ** 2 + 288 * b ** 3) / (2401 * a * a * b) * 0.01
        assert smooth_tau(0.1, NF_COEFFS) == pytest.approx(printed, rel=1e-15)

    def test_rp_oscillator_residual_order(self):
        a, b, a1, b1, d, e = NF_COEFFS
        s = Jet.variable(np.linspace(-7, 7, 141))
        res = []
        for eps in EPS_GRID:
            terms = [f(s) for f in asy._rp_terms(PhaseChoice.VZERO, NF_COEFFS)]
            u = terms[0]
            for i in range(1, 4):
                u = u + terms[i] * eps ** i
            tau = smooth_tau(eps, NF_COEFFS)
            r = u.dd - (-4 + u.f ** 2 + (b / a) * u.d * (u.f + tau) * eps
                        + (1 / a ** 2) * u.f ** 2 * (tau * b * a1 + d * u.f) * eps ** 2
                        + (1 / a ** 2) * u.f * u.d * (tau * b * b1 + e * u.f) * eps ** 3)
            res.append(np.max(np.abs(r)))
        assert fit_slope(EPS_GRID, res) >= 3.7

    def test_lp_composite_residual_order(self):
        a, b, a1, b1, d, e = NF_COEFFS
        s = Jet.variable(np.linspace(-7, 7, 141))
        res = []
        for eps in EPS_GRID:
            xi = s
            for i, term in enumerate(asy._smooth_xi_terms(s, NF_COEFFS), start=1):
                xi = xi + term * eps ** i
            zeta = tanh(xi)
            u_polys = asy._smooth_u_polys(NF_COEFFS)
            u = Jet(np.zeros(141))
            for i in range(4):
                u = u + polyval(zeta, u_polys[i]) * eps ** i
            tau = smooth_tau(eps, NF_COEFFS)
            r = u.dd - (-4 + u.f ** 2 + (b / a) * u.d * (u.f + tau) * eps
                        + (1 / a ** 2) * u.f ** 2 * (tau * b * a1 + d * u.f) * eps ** 2
                        + (1 / a ** 2) * u.f * u.d * (tau * b * b1 + e * u.f) * eps ** 3)
            res.append(np.max(np.abs(r)))
        assert fit_slope(EPS_GRID, res) >= 3.7

    def test_smooth_xi_anchored_at_zero(self):
        assert abs(xi_of_s(0.0, 0.2, coeffs=NF_COEFFS)) < 1e-14

    def test_requires_nonzero_ab(self):
        with pytest.raises(ValueError):
            planar_pass(0.1, 0.1, "rp", coeffs=(0.0, 1.0, 0, 0, 0, 0))
