"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.integrate as si
import scipy.optimize as so
from numpy.polynomial.polynomial import polyval

import bthom.asymptotics as asy
from bthom.asymptotics import (GAMMA1_L2, GAMMA3_L2, In_closed,
                               In_closed_parts, PhaseChoice,
                               lp_solve_quadratic, smooth_tau)
from bthom.corrector import bvp_residual, convergence_study, correct_predictor
from bthom.jet import Jet, tanh
from bthom.model import builtin_model
from bthom.nfcoeffs import analyze_bt, homological_residual
from bthom.predictor import (Method, lift_orbit, lift_parameters, make_mesh,
                             sample_predictor, time_reparam, d_alpha_d_eps)
from conftest import NF_COEFFS, fit_slope


def _report(num, text):
    print(f"\nACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_exact_lp_series():
    t0 = time.monotonic()
    ser = lp_solve_quadratic(4)
    assert ser.tau == [F(10, 7), 0, F(288, 2401), 0]
    assert ser.sigma[2] == F(18, 49)
    assert ser.delta[2] == F(-18, 49)
    # omega per the printed third-order series block (its omega_1 carries the
    # minus sign; the +6/7 in the solvability proof is a sign slip there)
    assert ser.omega[1] == [0, F(-6, 7)]
    assert ser.omega[2] == [F(9, 98), 0, F(27, 98)]
    assert ser.omega[3] == [0, F(-198, 2401), 0, F(18, 343)]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"order-4 LP series exact (tau, sigma, delta, omega) in {elapsed:.3f}s")


def test_criterion_02_order_twenty_runtime_and_invariants():
    lp_solve_quadratic.cache_clear()
    t0 = time.monotonic()
    ser = lp_solve_quadratic(20)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    for i in range(1, 19):
        if i % 2 == 1:
            assert ser.tau[i] == 0
            assert ser.sigma[i] == 0 and ser.delta[i] == 0
        else:
            assert ser.sigma[i] == -ser.delta[i] != 0
    assert ser.tau[19] == 0
    _report(2, f"order-20 exact run in {elapsed:.2f}s with parity and "
               "sigma = -delta invariants exact")


def test_criterion_03_closed_form_integrals():
    printed = {
        4: (F(82, 27), F(-5, 36), F(-1)),
        6: (F(38342, 16875), F(-47, 450), F(-4, 5)),
        8: (F(25545482, 13505625), F(-319, 3675), F(-24, 35)),
        10: (F(5428830032, 3281866875), F(-7516, 99225), F(-64, 105)),
    }
    for n, parts in printed.items():
        assert In_closed_parts(n) == parts
        quad, _ = si.quad(lambda s: np.log(2 * np.cosh(s)) ** 3 / np.cosh(s) ** n,
                          0, 40, limit=200)
        assert In_closed(n) == pytest.approx(quad, abs=1e-12)
    _report(3, "I_4..I_10 match the printed closed forms exactly and "
               "quadrature to 1e-12")


def test_criterion_04_gamma_constants():
    assert GAMMA1_L2 == pytest.approx(-(3 / 245) * (70 * np.log(2) - 59), abs=1e-15)

    def phase_integral(fn):
        def g(s):
            sj = Jet.variable(np.array([s]))
            base = asy._u0_jet(sj)
            return float((base.d * (1 - 2 * base.f) * fn(sj).f)[0])
        val, _ = si.quad(g, 0, 40, limit=300)
        return -(35 / 2592) * val

    u1 = asy._rp_terms(PhaseChoice.VZERO)[1]
    u3_l2 = asy._rp_terms(PhaseChoice.L2)[3]
    assert phase_integral(u1) == pytest.approx(GAMMA1_L2, abs=1e-8)
    # u3 of L2 without its gamma_3 u0' part
    gamma3 = phase_integral(lambda s: u3_l2(s) - asy._u0_jet(s).d * GAMMA3_L2)
    assert gamma3 == pytest.approx(GAMMA3_L2, abs=1e-8)
    _report(4, "gamma_1 and gamma_3 match direct quadrature of the phase "
               "integral to 1e-8")


def test_criterion_05_planar_residual_order():
    eps_grid = np.array([0.1, 0.05, 0.025, 0.0125])
    s = Jet.variable(np.linspace(-8, 8, 161))

    def rp_res(eps):
        terms = asy._rp_terms(PhaseChoice.VZERO)
        u = terms[0](s)
        for i in range(1, 4):
            u = u + terms[i](s) * eps ** i
        tau = smooth_tau(eps, asy.UNIT)
        return np.max(np.abs(u.dd - (-4 + u.f ** 2 + eps * u.d * (u.f + tau))))

    def lp_res(eps):
        xi = asy.xi_of_s(s, eps, PhaseChoice.VZERO)
        zeta = tanh(xi)
        _, u_polys, _ = asy._lp_float_series(PhaseChoice.VZERO)
        u = Jet(np.zeros(161))
        for i in range(4):
            u = u + polyval(zeta, u_polys[i]) * eps ** i
        tau = smooth_tau(eps, asy.UNIT)
        return np.max(np.abs(u.dd - (-4 + u.f ** 2 + eps * u.d * (u.f + tau))))

    s_rp = fit_slope(eps_grid, [rp_res(e) for e in eps_grid])
    s_lp = fit_slope(eps_grid, [lp_res(e) for e in eps_grid])
    assert s_rp >= 3.7 and s_lp >= 3.7
    _report(5, f"order-3 oscillator residual orders: RP {s_rp:.2f}, LP {s_lp:.2f} (>= 3.7)")


def test_criterion_06_center_manifold_coefficients(nf_orbital):
    a, b, a1, b1, d, e = NF_COEFFS
    _, ex = nf_orbital
    printed_H = {
        "H2000": (-d / (2 * a), 0),
        "H1100": ((-3 * b * d + 4 * a * e) / (12 * a * a), 0),
        "H0200": (0, (-3 * b * d + 4 * a * e) / (6 * a * a)),
        "H3000": (0, -3 * b * d / (2 * a) + 2 * e),
        "H2100": (0, b * (-3 * b * d + 4 * a * e) / (6 * a * a)),
        "H0010": (d / (4 * a * a), 0),
        "H1001": ((-2 * a * b1 + a1 * b + d) / (a * b), 0),
        "H0101": (0, (-6 * a * b1 + 4 * a1 * b + 3 * d) / (2 * a * b)),
        "H1101": (0, (-3 * (6 * a * b1 - 4 * a1 * b + b * b - 3 * d) * d
                      + 4 * a * b * e) / (12 * a * a * b)),
        "H0102": (0, (6 * a * b1 - 4 * a1 * b - 3 * d)
                  * (2 * a * b1 - 2 * a1 * b - d) / (2 * a * a * b * b)),
        "H1010": (0, (-3 * b * d + 4 * a * e) / (12 * a * a)),
    }
    for name, val in printed_H.items():
        assert np.allclose(ex.H[name], val, atol=1e-10), name
    for name in ("H0001", "H2001", "H0002", "H1002", "H0003", "H0011", "H0110"):
        assert np.max(np.abs(ex.H[name])) < 1e-10, name
    assert ex.theta1000 == pytest.approx(-d / (2 * a), abs=1e-10)
    assert ex.theta0001 == pytest.approx(
        -(-2 * a * b1 + 2 * a1 * b + d) / (2 * a * b), abs=1e-10)
    kfac = (3 * a1 * b - 4 * a * b1 + 2 * d) / (a * b)
    printed_K = {
        "K10": (1, (a * e - b * d) / a ** 2),
        "K01": (0, 1),
        "K11": (kfac, kfac * (a * e - b * d) / a ** 2),
        "K02": (0, (2 * a1 * b - 2 * a * b1 + d) / (a * b)),
        "K03": (0, 0),
    }
    for name, val in printed_K.items():
        assert np.allclose(ex.K[name], val, atol=1e-10), name
    _report(6, "all 23 printed coefficients of the pure normal-form model "
               "reproduced to 1e-10")


def test_criterion_07_homological_residual_scaling(hh_orbital):
    # under (w, beta) -> (h w, h^2 beta) the first omitted expansion bucket
    # contains w0 w1^2 and w1^3 monomials of h-order 3 (the w0 w1^2 term is in
    # the eps^4 bucket of the blow-up bookkeeping); the h^4 monomials of the
    # same bucket push the measured slope above 3 on this h-range
    oracle, ex = hh_orbital
    w, beta = np.array([0.8, 0.6]), np.array([0.6, -0.8])
    hs = np.array([1e-2, 3e-3, 1e-3])
    res = [np.linalg.norm(homological_residual(ex, oracle, h * w, h * h * beta))
           for h in hs]
    slope = fit_slope(hs, res)
    assert slope >= 3.0 - 0.3
    _report(7, f"Hodgkin-Huxley homological residual slope {slope:.2f} "
               "(first omitted order 3 under this scaling)")


def _alpha_series_in_m(ex, order_k=3):
    """alpha(eps) - alpha0 as polynomial coefficients in m = eps^2."""
    K, a, b = ex.K, ex.a, ex.b
    if ex.variant.value == "orbital":
        b1c = [0.0, 0.0, -4 * a ** 3 / b ** 4]
        b2c = [0.0, (a / b) * 10 / 7, (a / b) * 288 / 2401]
    else:
        t2 = asy.smooth_tau(1.0, (a, b, ex.a1, ex.b1, ex.d, ex.e)) - 10 / 7
        b1c = [0.0, 0.0, -4 / a]
        b2c = [0.0, (b / a) * 10 / 7, (b / a) * t2]

    def pmul(p, q):
        out = [0.0] * 8
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                if i + j < 8:
                    out[i + j] += x * y
        return out

    series = []
    for comp in (0, 1):
        out = np.zeros(8)
        for coeff, term in [(K["K10"][comp], b1c), (K["K01"][comp], b2c),
                            (0.5 * K["K02"][comp], pmul(b2c, b2c)),
                            (K["K11"][comp], pmul(b1c, b2c)),
                            (K["K03"][comp] / 6.0, pmul(pmul(b2c, b2c), b2c))]:
            out[:len(term)] += coeff * np.array(term)[:8]
        series.append(out)
    return series


def test_criterion_08_appendix_regression():
    c1 = 0.7
    m = builtin_model("bt_nf", c1=c1)
    _, ex = analyze_bt(m, [0, 0], [0, 0], "orbital")
    a1c, a2c = _alpha_series_in_m(ex)
    # reparametrize by eps-tilde = (-alpha1/4)^(1/4): the eps^4-coefficient of
    # alpha2 becomes C + A B / 8 with alpha1 = -4 m^2 + A m^3, alpha2 = B m + C m^2
    A, B, C = a1c[3], a2c[1], a2c[2]
    coeff = C + A * B / 8.0
    assert coeff == pytest.approx((288 - 1250 * c1) / 2401, abs=1e-10)

    import copy
    wrong = copy.deepcopy(ex)
    wrong.K["K11"] = np.zeros(2)
    wrong.K["K03"] = np.zeros(2)
    a1w, a2w = _alpha_series_in_m(wrong)
    coeff_wrong = a2w[2] + a1w[3] * a2w[1] / 8.0
    assert coeff_wrong == pytest.approx(288 / 2401, abs=1e-10)
    assert abs(coeff_wrong - coeff) > 0.3
    _report(8, "alpha2 eps^4 curve coefficient (288 - 1250 c1)/2401 with the "
               "full K; dropping K11/K03 reproduces the incorrect 288/2401")


def test_criterion_09_convergence_study(bt_nf_model, bt_nf_orbital):
    t0 = time.monotonic()
    _, ex = bt_nf_orbital
    amps = np.logspace(-2.6, -1, 8)
    mesh = make_mesh(40, 7)
    methods = [Method("rp"), Method("rp", phase=PhaseChoice.L2), Method("lp"),
               Method("lp", lp_xi_identity=True)]
    recs = convergence_study(bt_nf_model, ex, methods, [0, 1, 2, 3], amps,
                             mesh=mesh, k_factor=1e-6)
    assert all(r.converged for r in recs)

    def deltas(meth, order):
        return np.array([r.delta for r in recs
                         if r.method == meth and r.order == order])

    slopes = {meth: [fit_slope(amps, deltas(meth, o)) for o in range(4)]
              for meth in ("rp", "rp-l2", "lp", "lp-xid")}
    for meth in ("rp", "lp"):
        sl = slopes[meth]
        assert all(sl[i] < sl[i + 1] for i in range(3)), (meth, sl)
    # LP order 3 without the higher-order time transform collapses to order 0
    assert abs(slopes["lp-xid"][3] - slopes["rp"][0]) <= 0.3
    # the L2 phase beats v(0) = 0 wherever the phase matters (orders >= 1)
    assert np.allclose(deltas("rp-l2", 0), deltas("rp", 0), rtol=1e-12)
    for order in (1, 2, 3):
        assert np.all(deltas("rp-l2", order) < deltas("rp", order))
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(9, "slopes rp " + "/".join(f"{s:.2f}" for s in slopes["rp"])
            + " and lp " + "/".join(f"{s:.2f}" for s in slopes["lp"])
            + f"; lp-xid order 3 slope {slopes['lp-xid'][3]:.2f}; "
              f"L2 dominates; {elapsed:.0f}s")


def test_criterion_10_hodgkin_huxley_end_to_end(hh_model, hh_orbital):
    t0 = time.monotonic()
    _, ex = hh_orbital
    mesh = make_mesh(40, 4)
    pred = sample_predictor(ex, Method("lp"), 0.1, mesh, k=1e-5)
    bvp, z, iters = correct_predictor(hh_model, pred, tol=1e-12)
    resid = float(np.linalg.norm(bvp_residual(bvp, z)))
    assert resid <= 1e-10

    amps = [3e-3, 1e-2, 3e-2]
    recs = convergence_study(hh_model, ex, [Method("rp"), Method("lp")],
                             [0, 1, 2, 3], amps, mesh=mesh, k_factor=1e-4)
    assert all(r.converged for r in recs)
    for meth in ("rp", "lp"):
        for A0 in amps:
            ds = [r.delta for r in recs
                  if r.method == meth and abs(r.amplitude - A0) < 1e-12]
            assert all(ds[i] > ds[i + 1] for i in range(3)), (meth, A0, ds)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(10, f"HH default LP predictor corrected to |r| = {resid:.1e} in "
                f"{iters} iterations; delta strictly ordered by predictor "
                f"order at every amplitude; {elapsed:.0f}s")


def test_criterion_11_smooth_orbital_equivalence(nf_model, nf_orbital, nf_smooth):
    a, b, a1, b1, d, e = NF_COEFFS
    _, exo = nf_orbital
    _, exs = nf_smooth

    def curve_coeffs(ex):
        a1c, a2c = _alpha_series_in_m(ex)
        p2, p3, r1, r2 = a1c[2], a1c[3], a2c[1], a2c[2]
        shift = p3 / (2 * p2)
        return r1 / np.sqrt(p2), (r2 - r1 * shift) / p2

    ch_o, c1_o = curve_coeffs(exo)
    ch_s, c1_s = curve_coeffs(exs)
    assert ch_o == pytest.approx(ch_s, abs=1e-6)
    assert c1_o == pytest.approx(c1_s, abs=1e-6)
    assert abs(ch_o) == pytest.approx(5 * b / (7 * np.sqrt(-a)), rel=1e-9)

    # phase-space difference: the two lifted predictors differ by a
    # (3bd - 4ae)-proportional phase-shift profile of one order lower, and the
    # printed constant time shift removes that leading term
    etas = np.linspace(-2.5, 2.5, 21)
    T = np.tanh(etas)
    S2 = 1 / np.cosh(etas) ** 2
    u0p = 12 * T * S2
    u0pp = 12 * S2 * (3 * S2 - 2)
    rp = Method("rp")

    def difference(al1, shifted):
        eps_s = ((-a) * al1 / 4) ** 0.25
        seed = -abs((-a) ** 0.25 * b / (np.sqrt(2) * a)) * al1 ** 0.25
        eps_o = so.newton(lambda ee: lift_parameters(exo, rp, ee)[0] - al1, seed)
        eta_arg = (b / a) * etas / eps_o
        xo = lift_orbit(exo, rp, eps_o, eta_arg)
        ts = np.array([time_reparam(exo, rp, eps_o, ea) for ea in eta_arg])
        if shifted:
            ts = ts + exo.theta1000 / b * (2 / 3) * (4 * a * e / (b * d) - 3) * eps_o ** 2
        return lift_orbit(exs, rp, eps_s, ts) - xo

    al1s = np.array([1e-5, 1e-6, 1e-7])
    diffs = [difference(al1, False) for al1 in al1s]
    o1 = fit_slope(al1s, [np.max(np.abs(D[:, 0])) for D in diffs])
    o2 = fit_slope(al1s, [np.max(np.abs(D[:, 1])) for D in diffs])
    assert o1 == pytest.approx(1.25, abs=0.05)
    assert o2 == pytest.approx(1.50, abs=0.05)
    # profile shapes are u0' and u0'' (the printed phase-shift profiles)
    D = diffs[-1]
    for comp, profile in ((0, u0p), (1, u0pp)):
        fit = np.vdot(profile, D[:, comp]) / np.vdot(profile, profile)
        rel = np.linalg.norm(D[:, comp] - fit * profile) / np.linalg.norm(D[:, comp])
        assert rel < 0.05
    # (3bd - 4ae)-proportional magnitude at the printed order
    c_fit = (np.vdot(u0p, D[:, 0]) / np.vdot(u0p, u0p)
             / (al1s[-1] ** 1.25 / (24 * np.sqrt(2) * (-a) ** (11 / 4))))
    assert abs(c_fit) == pytest.approx(2 * abs(3 * b * d - 4 * a * e), rel=0.05)

    shifted = [difference(al1, True) for al1 in al1s]
    o1s = fit_slope(al1s, [np.max(np.abs(D[:, 0])) for D in shifted])
    o2s = fit_slope(al1s, [np.max(np.abs(D[:, 1])) for D in shifted])
    assert o1s >= o1 + 0.2 and o2s >= o2 + 0.2
    _report(11, f"parameter curves agree to {abs(ch_o - ch_s):.1e}/"
                f"{abs(c1_o - c1_s):.1e}; phase-space difference has the "
                f"(3bd-4ae) phase-shift profile at orders {o1:.2f}/{o2:.2f}, "
                f"dropping to {o1s:.2f}/{o2s:.2f} after the printed time shift")


def test_criterion_12_tangent_orientation():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 20:
        a = rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
        b = rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
        m = builtin_model("bt_nf", a=a, b=b)
        _, ex = analyze_bt(m, [0, 0], [0, 0], "orbital")
        eps, h = 0.1, 1e-4
        analytic = float(d_alpha_d_eps(ex, Method("lp"), eps)[0])
        fd = (lift_parameters(ex, Method("lp"), eps + h)[0]
              - lift_parameters(ex, Method("lp"), eps - h)[0]) / (2 * h)
        assert np.sign(analytic) == np.sign(fd) != 0
        checked += 1
    _report(12, "tangent orientation matches the finite-difference sign of "
                "d(alpha_1)/d(eps) in 20/20 random (a, b) sign combinations")
