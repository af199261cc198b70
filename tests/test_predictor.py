import re

import numpy as np
import pytest
import scipy.optimize as so

from conftest import NF_COEFFS, fit_slope
from bthom.asymptotics import UNIT, PhaseChoice, lp_orbit_of_s, rp_orbit, smooth_tau
from bthom.errors import BthomError
from bthom.jet import Jet
from bthom.model import builtin_model, eval_rhs, parse_model
from bthom.nfcoeffs import analyze_bt
from bthom.predictor import (Method, NoConvergenceError, amplitude_to_eps,
                             d_alpha_d_eps, invert_time, lift_orbit,
                             lift_parameters, make_mesh, sample_predictor,
                             saddle_point, tangent_orientation, time_reparam,
                             ttol_to_T)

RP = Method("rp")
LP = Method("lp")


class TestLift:
    def test_orbit_shrinks_to_bt_point(self, bt_nf_orbital):
        _, ex = bt_nf_orbital
        etas = np.linspace(-5, 5, 11)
        for eps in (0.1, 0.01):
            pts = lift_orbit(ex, LP, eps, etas)
            assert np.max(np.linalg.norm(pts, axis=1)) <= 7.0 * eps ** 2

    def test_limit_eta_to_infinity_is_saddle(self, bt_nf_orbital):
        _, ex = bt_nf_orbital
        x_far = lift_orbit(ex, LP, 0.1, 400.0)
        s0 = saddle_point(ex, LP, 0.1)
        assert np.linalg.norm(x_far - s0) < 1e-12

    def test_leading_term_of_lifted_first_component(self, nf_orbital):
        # x1 = (3 sech^2(eta) - 1)/sqrt(-a) * sqrt(alpha1) + O(alpha1^(3/4))
        a, b = NF_COEFFS[0], NF_COEFFS[1]
        _, ex = nf_orbital
        etas = np.linspace(-2, 2, 9)
        errs = []
        al1s = [1e-6, 1e-8]
        for al1 in al1s:
            f = lambda e: lift_parameters(ex, RP, e)[0] - al1
            eps_o = so.newton(f, -abs((-a) ** 0.25 * b / (np.sqrt(2) * a)) * al1 ** 0.25)
            x = lift_orbit(ex, RP, eps_o, (b / a) * etas / eps_o)
            lead = (3.0 / np.cosh(etas) ** 2 - 1.0) / np.sqrt(-a) * np.sqrt(al1)
            errs.append(np.max(np.abs(x[:, 0] - lead)))
        # error one quarter-order below the leading sqrt(alpha1) term
        assert errs[0] <= 10 * al1s[0] ** 0.75
        assert errs[1] <= 10 * al1s[1] ** 0.75

    @pytest.mark.parametrize("fixture", ["hh_orbital", "nf_smooth"])
    def test_array_lift_equals_pointwise(self, fixture, request):
        _, ex = request.getfixturevalue(fixture)
        eps = 0.1
        # eta spanning the homoclinic excursion: s = (a/b) eps eta or eps eta
        s_per_eta = abs(ex.a / ex.b) * eps if fixture == "hh_orbital" else eps
        etas = np.linspace(-4, 4, 17) / s_per_eta
        pts = lift_orbit(ex, LP, eps, etas)
        assert np.array_equal(pts, np.stack([lift_orbit(ex, LP, eps, e) for e in etas]))

    @pytest.mark.parametrize("kind", ["rp", "lp"])
    def test_orbital_blow_up_is_smooth_family_at_scaled_eps(self, kind, hh_orbital):
        # the orbital blow-up written out, against the smooth one at (a/b) eps
        from bthom.predictor import _w_beta
        _, ex = hh_orbital
        a, b = ex.a, ex.b
        assert a / b < 0
        eps = amplitude_to_eps(1e-2, a, b, ex.variant)
        eta = np.linspace(-4, 4, 17) / abs((a / b) * eps)
        s = (a / b) * eps * eta
        for order in range(4):
            m = Method(kind, order=order)
            series = rp_orbit if kind == "rp" else lp_orbit_of_s
            u, v = series(s, eps, order=order)
            want = ((a / b ** 2) * u * eps ** 2, (a ** 2 / b ** 3) * v * eps ** 3,
                    -4.0 * a ** 3 / b ** 4 * eps ** 4,
                    (a / b) * smooth_tau(eps, UNIT, order) * eps ** 2)
            for got, ref in zip(_w_beta(ex, m, eps, eta), want):
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestParameters:
    def test_topological_normal_form(self, bt_nf_orbital):
        _, ex = bt_nf_orbital
        al = lift_parameters(ex, LP, 0.1)
        assert al[0] == pytest.approx(-4e-4, abs=1e-12)
        assert al[1] == pytest.approx(10 / 7 * 0.01 + 288 / 2401 * 1e-4, abs=1e-12)

    def test_appendix_model_with_c1_zero_matches_printed(self):
        m = builtin_model("bt_nf")
        _, ex = analyze_bt(m, [0, 0], [0, 0], "orbital")
        for eps in (0.1, 0.3):
            al = lift_parameters(ex, LP, eps)
            assert al[0] == pytest.approx(-4 * eps ** 4, abs=1e-14)
            assert al[1] == pytest.approx(10 / 7 * eps ** 2 + 288 / 2401 * eps ** 4,
                                          abs=1e-14)

    @pytest.mark.parametrize("eps", [1e60, 1e300])
    def test_blow_up_beyond_floating_point_is_a_predictor_error(self, eps, bt_nf_orbital):
        _, ex = bt_nf_orbital
        for arg in (eps, Jet.variable(eps, 1)):     # a jet's message gives its value
            with pytest.raises(BthomError, match=re.escape(f"blow-up at eps = {eps!r} is not")) as err:
                lift_parameters(ex, LP, arg)
            assert err.value.stage == "predictor"


class TestTimeReparam:
    def test_identity_when_theta_vanishes(self, bt_nf_orbital):
        _, ex = bt_nf_orbital
        etas = np.linspace(-9, 9, 7)
        assert np.allclose(time_reparam(ex, LP, 0.1, etas), etas, atol=0)
        assert invert_time(ex, LP, 0.1, 1.234) == 1.234

    # HH at the eps of amplitudes 3e-3 and 3e-2, as in the benchmark
    @pytest.mark.parametrize("fixture, method, amplitudes", [
        pytest.param("nf_orbital", RP, None, id="method0"),
        pytest.param("nf_orbital", LP, None, id="method1"),
        pytest.param("hh_orbital", RP, (3e-3, 3e-2), id="hh-rp"),
        pytest.param("hh_orbital", LP, (3e-3, 3e-2), id="hh-lp"),
    ])
    def test_anchor_monotone_roundtrip(self, fixture, method, amplitudes, request):
        _, ex = request.getfixturevalue(fixture)
        epss = (0.1, 0.05) if amplitudes is None else [
            amplitude_to_eps(A0, ex.a, ex.b, ex.variant) for A0 in amplitudes]
        for eps in epss:
            assert time_reparam(ex, method, eps, 0.0) == pytest.approx(0.0, abs=1e-14)
            etas = np.linspace(-8, 8, 33)
            ts = np.array([time_reparam(ex, method, eps, e) for e in etas])
            assert np.all(np.diff(ts) > 0)
            back = invert_time(ex, method, eps, ts)
            assert np.array_equal(back, [invert_time(ex, method, eps, t) for t in ts])
            assert np.max(np.abs(back - etas)) < 1e-10

    def test_no_convergence_is_typed(self, hh_orbital):
        _, ex = hh_orbital
        eps = amplitude_to_eps(3e-2, ex.a, ex.b, ex.variant)
        ts = np.linspace(-1.0, 1.0, 5) * ttol_to_T(eps * 1e-4, eps, 3e-2, ex, LP)
        with pytest.raises(NoConvergenceError, match="did not converge for 4 of 5") as err:
            invert_time(ex, LP, eps, ts, max_iter=1)
        assert err.value.stage == "predictor"

    def test_bisection_safeguard_when_newton_overshoots(self, hh_orbital, monkeypatch):
        _, ex = hh_orbital
        eps = amplitude_to_eps(3e-2, ex.a, ex.b, ex.variant)
        ts = np.linspace(-30, 30, 41)
        exact = invert_time(ex, LP, eps, ts)
        true_theta = ex.theta_eval

        def small_slope(w0, beta2):
            # a slope 10x too small makes Newton overshoot its bracket
            return 0.1 * true_theta(w0, beta2)

        monkeypatch.setattr(ex, "theta_eval", small_slope)
        back = invert_time(ex, LP, eps, ts)
        assert np.max(np.abs(time_reparam(ex, LP, eps, back) - ts)) <= 1e-10
        assert np.max(np.abs(back - exact)) <= 1e-9

    def test_derivative_matches_theta(self, nf_orbital):
        _, ex = nf_orbital
        eps, h = 0.1, 1e-6
        for eta in (-2.0, 0.3, 1.7):
            fd = (time_reparam(ex, RP, eps, eta + h)
                  - time_reparam(ex, RP, eps, eta - h)) / (2 * h)
            slope = time_reparam(ex, RP, eps, Jet.variable(eta, 1)).d
            assert fd == pytest.approx(float(slope), rel=1e-6)

    # dt/deta of the integrated series against theta(w0, beta2) of the lifted
    # one: exact for rp, rp-l2 and lp-xid; the LP time transform xi(s) is a
    # truncated series, which leaves lp and lp-alt a high-order remainder
    @pytest.mark.parametrize("method, bound", [
        pytest.param(RP, 1e-14, id="rp"),
        pytest.param(Method("rp", PhaseChoice.L2), 1e-14, id="rp-l2"),
        pytest.param(LP, 2e-8, id="lp"),
        pytest.param(Method("lp", PhaseChoice.ALTGAMMA), 2e-8, id="lp-alt"),
        pytest.param(Method("lp", lp_xi_identity=True), 1e-14, id="lp-xid"),
    ])
    def test_time_map_integrates_the_lifted_series(self, method, bound, nf_orbital):
        from bthom.predictor import _w_beta
        _, ex = nf_orbital
        assert ex.theta1000 != 0.0
        epss = [0.1, 0.05, 0.025]
        err = []
        for eps in epss:
            eta = np.linspace(-8, 8, 161) / abs(ex.a / ex.b * eps)
            w0, _, _, beta2 = _w_beta(ex, method, eps, eta)
            dt = time_reparam(ex, method, eps, Jet.variable(eta, 1)).d
            err.append(np.max(np.abs(dt - ex.theta_eval(w0, beta2))))
        assert err[0] <= bound
        if bound > 1e-14:
            assert fit_slope(epss, err) >= 5.5


class TestOnePass:
    """The predictor takes one series pass per time-inversion iterate and lifts
    the last one."""

    @pytest.mark.parametrize("method", [
        pytest.param(RP, id="rp"),
        pytest.param(Method("rp", PhaseChoice.L2), id="rp-l2"),
        pytest.param(LP, id="lp"),
        pytest.param(Method("lp", PhaseChoice.ALTGAMMA), id="lp-alt"),
        pytest.param(Method("lp", lp_xi_identity=True), id="lp-xid"),
    ])
    def test_orbit_is_the_lift_of_the_inverted_times(self, method, hh_orbital):
        _, ex = hh_orbital
        eps = amplitude_to_eps(1e-2, ex.a, ex.b, ex.variant)
        mesh = make_mesh(40, 4)
        pred = sample_predictor(ex, method, eps, mesh, k=eps * 1e-4)
        etas = invert_time(ex, method, eps, -pred.T + 2.0 * pred.T * mesh.fine)
        lifted = lift_orbit(ex, method, eps, etas)
        assert np.max(np.abs(pred.orbit - lifted)) <= 1e-14 * np.max(np.abs(lifted))

    @pytest.mark.parametrize("kind", ["rp", "lp"])
    def test_one_series_pass_per_iterate(self, kind, hh_orbital, monkeypatch):
        import bthom.asymptotics as asy
        _, ex = hh_orbital
        method = Method(kind)
        eps = amplitude_to_eps(3e-2, ex.a, ex.b, ex.variant)
        mesh = make_mesh(40, 4)
        T = ttol_to_T(eps * 1e-4, eps, 3e-2, ex, method)
        ts = -T + 2.0 * T * mesh.fine
        passes = []
        true_pass = asy.planar_pass

        def counting(*args, **kwargs):
            passes.append(1)
            return true_pass(*args, **kwargs)

        monkeypatch.setattr(asy, "planar_pass", counting)
        invert_time(ex, method, eps, ts)
        iterates = len(passes)
        with pytest.raises(NoConvergenceError):
            invert_time(ex, method, eps, ts, max_iter=iterates - 1)
        passes.clear()
        sample_predictor(ex, method, eps, mesh, k=eps * 1e-4)
        assert len(passes) == 1 + iterates        # T's, then one per iterate


class TestSaddle:
    def test_eps_zero_is_bt_point(self, nf_orbital):
        _, ex = nf_orbital
        assert np.allclose(saddle_point(ex, LP, 0.0), ex.x0, atol=0)

    def test_topological_normal_form_value(self, bt_nf_orbital):
        _, ex = bt_nf_orbital
        s0 = saddle_point(ex, LP, 0.1)
        assert s0 == pytest.approx([0.02, 0.0], abs=1e-12)

    def test_newton_refinement_stays_close(self, nf_orbital, nf_model):
        _, ex = nf_orbital
        eps = 0.1
        s0 = saddle_point(ex, LP, eps)
        al = lift_parameters(ex, LP, eps)
        star = so.fsolve(lambda x: eval_rhs(nf_model, x, al), s0, xtol=1e-13)
        assert np.linalg.norm(star - s0) <= 5.0 * eps ** 4

    def test_residual_order_at_least_three(self):
        m = parse_model("dim 2\npar p1 p2\nx1' = x2\n"
                        "x2' = p1 + p2*x2 + x1^2 + x1*x2 + 0.5*x1^4\n", name="quartic")
        _, ex = analyze_bt(m, [0, 0], [0, 0], "orbital")
        epss = [0.2, 0.1, 0.05]
        res = [np.linalg.norm(eval_rhs(m, saddle_point(ex, LP, e),
                                       lift_parameters(ex, LP, e)))
               for e in epss]
        assert fit_slope(epss, res) >= 3.0


class TestEpsAndT:
    def test_amplitude_formulas(self):
        assert amplitude_to_eps(0.06, 1, 1, "orbital") == pytest.approx(0.1)
        assert amplitude_to_eps(6, 4, 2, "orbital") == pytest.approx(1.0)
        assert amplitude_to_eps(0.6, 1, 1, "smooth") == pytest.approx(np.sqrt(0.1))

    def test_sech_inverse_example_smooth_variant(self, nf_smooth):
        _, ex = nf_smooth
        eps, A0 = 0.1, 0.5
        k = A0 / np.cosh(1.0) ** 2
        assert ttol_to_T(k, eps, A0, ex, RP) == pytest.approx(1 / eps, rel=1e-12)

    def test_theta_zero_orbital_reduces_to_scaled_formula(self, bt_nf_orbital):
        _, ex = bt_nf_orbital
        eps = 0.1
        A0 = 6 * eps ** 2
        k = eps * 1e-4
        T = ttol_to_T(k, eps, A0, ex, LP)
        expected = (1 / eps) * np.arccosh(np.sqrt(A0 / k))
        assert T == pytest.approx(expected, rel=1e-12)

    def test_k_out_of_range(self, bt_nf_orbital):
        _, ex = bt_nf_orbital
        with pytest.raises(ValueError):
            ttol_to_T(1.0, 0.1, 0.06, ex, LP)


class TestSamplePredictor:
    def test_mesh_counts_and_endpoints(self, bt_nf_orbital):
        _, ex = bt_nf_orbital
        mesh = make_mesh(40, 4)
        pred = sample_predictor(ex, LP, 0.1, mesh, k=1e-5)
        assert pred.orbit.shape == (161, 2)
        assert pred.eps0 == np.linalg.norm(pred.orbit[0] - pred.s0)
        assert pred.eps1 == np.linalg.norm(pred.orbit[-1] - pred.s0)
        # endpoint distances are near the requested tolerance
        assert 0.2e-5 < pred.eps0 < 5e-5
        assert 0.2e-5 < pred.eps1 < 5e-5

    @pytest.mark.parametrize("eps, k, bad", [(1e300, None, "blow-up"),
                                             (0.1, 1e-300, "eps0 = 0.0, eps1 = 0.0"),
                                             (0.1, 5e-324, "T = inf")])
    def test_unusable_predictor_is_a_predictor_error(self, eps, k, bad, bt_nf_orbital):
        _, ex = bt_nf_orbital
        with pytest.raises(BthomError, match=bad) as err:
            sample_predictor(ex, LP, eps, make_mesh(10, 4), k=k)
        assert err.value.stage == "predictor"

    @pytest.mark.parametrize("kind, phase", [("rp", PhaseChoice.L2),
                                             ("lp", PhaseChoice.ALTGAMMA)])
    def test_orbital_only_phase_on_smooth_is_an_error(self, kind, phase, nf_smooth):
        _, ex = nf_smooth
        with pytest.raises(ValueError, match="orbital variant only"):
            sample_predictor(ex, Method(kind, phase), 0.1)

    def test_xi_identity_is_an_lp_option(self):
        with pytest.raises(ValueError, match="lp method only"):
            Method("rp", lp_xi_identity=True)

    def test_midpoint_matches_lift_for_symmetric_case(self, bt_nf_orbital):
        _, ex = bt_nf_orbital
        mesh = make_mesh(40, 4)
        pred = sample_predictor(ex, LP, 0.1, mesh, k=1e-5)
        assert np.allclose(pred.orbit[80], lift_orbit(ex, LP, 0.1, 0.0), atol=1e-14)

    def test_orbit_ode_residual_order(self, nf_orbital, nf_model):
        _, ex = nf_orbital
        etas = np.linspace(-3, 3, 13)
        h = 1e-5
        res = []
        for eps in (0.1, 0.05, 0.025):
            al = lift_parameters(ex, LP, eps)
            worst = 0.0
            for eta in etas:
                dx = (lift_orbit(ex, LP, eps, eta + h)
                      - lift_orbit(ex, LP, eps, eta - h)) / (2 * h)
                dt = (time_reparam(ex, LP, eps, eta + h)
                      - time_reparam(ex, LP, eps, eta - h)) / (2 * h)
                x = lift_orbit(ex, LP, eps, eta)
                worst = max(worst, np.linalg.norm(dx - eval_rhs(nf_model, x, al) * dt))
            res.append(worst)
        assert fit_slope([0.1, 0.05, 0.025], res) >= 3.0


class TestTangent:
    def test_analytic_derivative_matches_finite_difference(self, nf_orbital):
        _, ex = nf_orbital
        eps, h = 0.1, 1e-5
        da = d_alpha_d_eps(ex, LP, eps)
        fd = (lift_parameters(ex, LP, eps + h) - lift_parameters(ex, LP, eps - h)) / (2 * h)
        assert np.allclose(da, fd, rtol=1e-6, atol=1e-12)

    def test_orientation_sign(self, bt_nf_orbital):
        _, ex = bt_nf_orbital
        # a = b = 1: dbeta1/deps = -16 eps^3 < 0
        assert tangent_orientation(-1.0, ex, LP, 0.1) == 1
        assert tangent_orientation(+1.0, ex, LP, 0.1) == -1

    def test_eps_zero_raises(self, bt_nf_orbital):
        _, ex = bt_nf_orbital
        with pytest.raises(ValueError):
            tangent_orientation(1.0, ex, LP, 0.0)
