import numpy as np
import pytest

from conftest import NF_COEFFS, fit_slope
from bthom.model import HH_BT_ALPHA, HH_BT_STATE, builtin_model, parse_model
from bthom.nfcoeffs import (NonGenericBTError, Variant, analyze_bt,
                            critical_coefficients, homological_residual)


class TestCriticalCoefficients:
    def test_topological_normal_form(self, bt_nf_orbital):
        _, ex = bt_nf_orbital
        assert ex.a == pytest.approx(1.0, abs=1e-9)
        assert ex.b == pytest.approx(1.0, abs=1e-9)

    def test_hodgkin_huxley_printed_values(self, hh_orbital):
        # a is printed with five significant digits, b with only two
        _, ex = hh_orbital
        assert ex.a == pytest.approx(2.5515e-5, rel=1e-3)
        assert ex.b == pytest.approx(-0.0075, rel=1e-2)

    def test_degenerate_a_zero(self):
        m = parse_model("dim 2\npar b1 b2\nx1' = x2\nx2' = b1 + b2*x2 + x1*x2\n")
        with pytest.raises(NonGenericBTError):
            analyze_bt(m, [0, 0], [0, 0])

    def test_recompute_from_stored_eigendata(self, nf_orbital):
        oracle, ex = nf_orbital
        a, b = critical_coefficients(oracle, ex.eig)
        assert a == ex.a and b == ex.b


class TestOrbitalChain:
    def test_theta_and_k_of_pure_normal_form(self, nf_orbital):
        a, b, a1, b1, d, e = NF_COEFFS
        _, ex = nf_orbital
        assert ex.theta1000 == pytest.approx(-d / (2 * a), abs=1e-10)
        assert ex.theta0001 == pytest.approx(-(-2 * a * b1 + 2 * a1 * b + d) / (2 * a * b), abs=1e-10)
        assert np.allclose(ex.K["K10"], [1.0, (a * e - b * d) / a ** 2], atol=1e-10)
        assert np.allclose(ex.K["K01"], [0.0, 1.0], atol=1e-10)

    def test_topological_normal_form_coefficients_vanish(self, bt_nf_orbital):
        _, ex = bt_nf_orbital
        assert np.max(np.abs(ex.H["H2000"])) < 1e-10
        assert np.max(np.abs(ex.H["H1100"])) < 1e-10
        assert abs(ex.theta1000) < 1e-10 and abs(ex.theta0001) < 1e-10
        assert np.allclose(ex.K["K10"], [1, 0], atol=1e-10)
        assert np.allclose(ex.K["K01"], [0, 1], atol=1e-10)

    def test_appendix_counterexample_k03(self):
        c1 = 0.7
        m = builtin_model("bt_nf", c1=c1)
        _, ex = analyze_bt(m, [0, 0], [0, 0], "orbital")
        assert np.allclose(ex.K["K03"], [-6 * c1, 0.0], atol=1e-10)
        assert np.allclose(ex.K["K11"], [0.0, 0.0], atol=1e-10)

    def test_bordered_consistency_certificate(self, nf_orbital, hh_orbital):
        assert nf_orbital[1].max_solve_residual <= 1e-8
        assert hh_orbital[1].max_solve_residual <= 1e-8

    @pytest.mark.parametrize("variant", ["orbital", "smooth", "hyper"])
    def test_hh_certificate_at_rounding_level(self, hh_model, variant):
        _, ex = analyze_bt(hh_model, HH_BT_STATE, HH_BT_ALPHA, variant)
        assert ex.max_solve_residual <= 1e-13


class TestSmoothChain:
    def test_normal_form_recovers_own_coefficients(self, nf_smooth):
        a, b, a1, b1, d, e = NF_COEFFS
        _, ex = nf_smooth
        assert ex.variant is Variant.SMOOTH
        assert ex.theta1000 == 0.0 and ex.theta0001 == 0.0
        assert ex.a1 == pytest.approx(a1, abs=1e-8)
        assert ex.b1 == pytest.approx(b1, abs=1e-8)
        assert ex.d == pytest.approx(d, abs=1e-8)
        assert ex.e == pytest.approx(e, abs=1e-8)

    def test_hyper_removes_e_and_b1(self, nf_smooth, nf_hyper):
        _, smooth = nf_smooth
        _, hyper = nf_hyper
        assert hyper.e == 0.0 and hyper.b1 == 0.0
        assert hyper.d == pytest.approx(smooth.d, abs=1e-8)
        assert hyper.a1 != pytest.approx(smooth.a1, abs=1e-6)  # hypernormalized

    def test_quadratic_normal_form_cubics_vanish(self, bt_nf_model):
        _, ex = analyze_bt(bt_nf_model, [0, 0], [0, 0], "smooth")
        for val in (ex.a1, ex.b1, ex.d, ex.e):
            assert abs(val) < 1e-9


class TestHomologicalResidual:
    @pytest.mark.parametrize("fixture", ["hh_orbital", "nf_smooth"])
    def test_H_w_matches_central_differences(self, fixture, request):
        _, ex = request.getfixturevalue(fixture)
        z, h = np.array([0.1, -0.07, 0.03, 0.05]), 1e-4
        J = ex.H_w(*z)
        fd = np.stack([(ex.H_eval(*(z + h * e)) - ex.H_eval(*(z - h * e))) / (2 * h)
                       for e in np.eye(4)[:2]], axis=-1)
        assert np.max(np.abs(J - fd)) <= 1e-10 * np.max(np.abs(J))

    def test_zero_at_origin(self, nf_orbital):
        oracle, ex = nf_orbital
        r = homological_residual(ex, oracle, [0.0, 0.0], [0.0, 0.0])
        assert np.linalg.norm(r) < 1e-14

    def test_exact_closure_for_quadratic_normal_form(self, bt_nf_orbital):
        oracle, ex = bt_nf_orbital
        r = homological_residual(ex, oracle, [0.05, 0.03], [0.01, 0.02])
        assert np.linalg.norm(r) < 1e-12

    def test_scaling_order_quartic_term(self):
        # a w0^4 term is the first one outside the implemented expansion; under
        # (w, beta) -> (h w, h^2 beta) it scales like h^4
        m = parse_model("dim 2\npar p1 p2\nx1' = x2\n"
                        "x2' = p1 + p2*x2 + x1^2 + x1*x2 + 0.5*x1^4\n", name="quartic")
        oracle, ex = analyze_bt(m, [0, 0], [0, 0], "orbital")
        w, beta = np.array([0.8, 0.6]), np.array([0.6, -0.8])
        hs = [3e-2, 1e-2, 3e-3]
        res = [np.linalg.norm(homological_residual(ex, oracle, h * w, h * h * beta))
               for h in hs]
        assert fit_slope(hs, res) == pytest.approx(4.0, abs=0.1)

    def test_scaling_order_w0w1sq_term(self):
        # a w0 w1^2 term sits in the eps^4 bucket but scales like h^3
        m = parse_model("dim 2\npar p1 p2\nx1' = x2\n"
                        "x2' = p1 + p2*x2 + x1^2 + x1*x2 + 0.4*x1*x2^2\n", name="mix")
        oracle, ex = analyze_bt(m, [0, 0], [0, 0], "orbital")
        w, beta = np.array([0.8, 0.6]), np.array([0.6, -0.8])
        hs = [3e-2, 1e-2, 3e-3]
        res = [np.linalg.norm(homological_residual(ex, oracle, h * w, h * h * beta))
               for h in hs]
        assert fit_slope(hs, res) == pytest.approx(3.0, abs=0.1)

    def test_smooth_normal_form_is_its_own_expansion(self, nf_smooth):
        # bt_nf with NF_COEFFS is a smooth normal form, so G_eval closes it exactly
        oracle, ex = nf_smooth
        r = homological_residual(ex, oracle, [0.05, 0.03], [0.01, 0.02])
        assert np.linalg.norm(r) <= 1e-15

    @pytest.mark.parametrize("model, variant, hs", [
        pytest.param("hh", "smooth", [1e-2, 3e-3, 1e-3], id="hh-smooth"),
        pytest.param("hh", "hyper", [1e-2, 3e-3, 1e-3], id="hh-hyper"),
        pytest.param("nf", "hyper", [3e-2, 1e-2, 3e-3], id="nf-hyper"),
    ])
    def test_scaling_order_smooth_and_hyper(self, model, variant, hs, hh_model, nf_model):
        # the cubic terms of G_eval leave residuals of h-order 3 or higher
        if model == "hh":
            oracle, ex = analyze_bt(hh_model, HH_BT_STATE, HH_BT_ALPHA, variant)
        else:
            oracle, ex = analyze_bt(nf_model, [0, 0], [0, 0], variant)
        w, beta = np.array([0.8, 0.6]), np.array([0.6, -0.8])
        res = [np.linalg.norm(homological_residual(ex, oracle, h * w, h * h * beta))
               for h in hs]
        assert fit_slope(hs, res) >= 2.7


def _curve_coefficients(ex, order=3):
    """sqrt(alpha1)- and alpha1-coefficients of alpha2(alpha1) after
    eliminating eps from the parameter predictor (series in m = eps^2)."""
    K = ex.K
    a, b = ex.a, ex.b
    if ex.variant is Variant.ORBITAL:
        b1c = [0.0, 0.0, -4 * a ** 3 / b ** 4]
        b2c = [0.0, (a / b) * 10 / 7, (a / b) * 288 / 2401]
    else:
        from bthom.asymptotics import smooth_tau
        t2 = smooth_tau(1.0, (a, b, ex.a1, ex.b1, ex.d, ex.e)) - 10 / 7
        b1c = [0.0, 0.0, -4 / a]
        b2c = [0.0, (b / a) * 10 / 7, (b / a) * t2]

    def pmul(p, q):
        out = [0.0] * 7
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                if i + j < 7:
                    out[i + j] += x * y
        return out

    def series(component):
        out = np.zeros(7)
        for coeff, term in [(K["K10"][component], b1c), (K["K01"][component], b2c),
                            (0.5 * K["K02"][component], pmul(b2c, b2c)),
                            (K["K11"][component], pmul(b1c, b2c)),
                            (K["K03"][component] / 6.0, pmul(pmul(b2c, b2c), b2c))]:
            out[:len(term)] += coeff * np.array(term)[:7]
        return out

    a1c, a2c = series(0), series(1)
    p2, p3 = a1c[2], a1c[3]
    r1, r2 = a2c[1], a2c[2]
    shift = p3 / (2 * p2)
    return r1 / np.sqrt(p2), (r2 - r1 * shift) / p2


class TestVariantEquivalence:
    def test_parameter_curves_agree_through_displayed_order(
            self, nf_orbital, nf_smooth, nf_hyper):
        coeffs = [_curve_coefficients(ex) for _, ex in
                  (nf_orbital, nf_smooth, nf_hyper)]
        for c_half, c_one in coeffs[1:]:
            assert c_half == pytest.approx(coeffs[0][0], abs=1e-6)
            assert c_one == pytest.approx(coeffs[0][1], abs=1e-6)

    def test_alpha1_coefficient_matches_printed_formula(self, nf_orbital):
        a, b, a1, b1, d, e = NF_COEFFS
        _, ex = nf_orbital
        _, c_one = _curve_coefficients(ex)
        printed = (-49 * b * (50 * a * b1 + 73 * d) + 4802 * a * e
                   + 1225 * a1 * b * b - 144 * b ** 3) / (4802 * a * a)
        assert c_one == pytest.approx(printed, rel=1e-9)
