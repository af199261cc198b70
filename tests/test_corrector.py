import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize as so
import scipy.sparse
import scipy.sparse.linalg

from conftest import fit_slope
from bthom.corrector import (ConvergenceRecord, NoConvergenceError, build_bvp,
                             bvp_jacobian, bvp_residual, convergence_study,
                             correct_predictor, correct_with_retries,
                             newton_correct, pack_unknowns, unpack_orbit,
                             _at_gauss, _mesh_pattern, _min_norm_step, _unpack,
                             _ricatti)
from bthom.errors import BthomError
from bthom.model import HH_BT_ALPHA, HH_BT_STATE, ModelError, derivatives, eval_rhs
from bthom.nfcoeffs import analyze_bt
from bthom.predictor import Method, amplitude_to_eps, make_mesh, sample_predictor

LP = Method("lp")


@pytest.fixture(scope="module")
def planar_setup(bt_nf_orbital):
    _, ex = bt_nf_orbital
    mesh = make_mesh(20, 4)
    pred = sample_predictor(ex, LP, 0.1, mesh, k=1e-5)
    return ex, mesh, pred


@pytest.fixture(scope="module")
def hh_smooth(hh_model):
    return analyze_bt(hh_model, HH_BT_STATE, HH_BT_ALPHA, "smooth")[1]


@pytest.fixture(params=["bt_nf-20x4", "hh-40x4"])
def predictor_system(request, bt_nf_model, planar_setup, hh_model, hh_orbital):
    """(bvp, z) of an LP predictor: bt_nf on 20x4 or HH on 40x4."""
    if request.param == "bt_nf-20x4":
        model, (_, mesh, pred) = bt_nf_model, planar_setup
    else:
        model, mesh = hh_model, make_mesh(40, 4)
        pred = sample_predictor(hh_orbital[1], LP, 0.1, mesh, k=1e-5)
    bvp = build_bvp(model, mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
    return bvp, pack_unknowns(bvp, pred.orbit, pred.s0, pred.alpha,
                              eps0=pred.eps0, eps1=pred.eps1)


@pytest.fixture(scope="module", params=["hh-40x4", "hh-160x4", "bt_nf-40x7"])
def benchmark_system(request, hh_model, hh_orbital, hh_smooth, bt_nf_model, bt_nf_orbital):
    """(bvp, z) of an LP predictor at amplitude 1e-2 on a benchmark workload's mesh."""
    model, ex, ntst, ncol = {"hh-40x4": (hh_model, hh_orbital[1], 40, 4),
                             "hh-160x4": (hh_model, hh_smooth, 160, 4),
                             "bt_nf-40x7": (bt_nf_model, bt_nf_orbital[1], 40, 7)}[request.param]
    eps = amplitude_to_eps(1e-2, ex.a, ex.b, ex.variant)
    pred = sample_predictor(ex, LP, eps, make_mesh(ntst, ncol), k=eps * 1e-4)
    bvp = build_bvp(model, pred.mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
    return bvp, pack_unknowns(bvp, pred.orbit, pred.s0, pred.alpha,
                              eps0=pred.eps0, eps1=pred.eps1)


def _coo_jacobian(bvp, z):
    """Reference assembly of `bvp_jacobian`: (row, col, value) triples for every
    block, summed and sorted by the COO -> CSC conversion, stored zeros dropped."""
    orbit, s0, alpha, YU, YS, eps0, eps1 = _unpack(bvp, z)
    model, mesh = bvp.model, bvp.mesh
    ntst, ncol, n = mesh.ntst, mesh.ncol, bvp.n
    nU, nS = bvp.n_unstable, bvp.n_stable
    QU, QUperp = np.hsplit(bvp.ZU, [nU])
    QS, QSperp = np.hsplit(bvp.ZS, [nS])
    m_total, n_orb = bvp.sizes()["total"], bvp.sizes()["orbit"]
    i_s0, i_al = n_orb, n_orb + n
    i_yu = i_al + 2
    i_ys = i_yu + nS * nU
    i_e0 = m_total - 2
    rows, cols, vals = [], [], []

    def put(r, c, v):
        for out, a in zip((rows, cols, vals), np.broadcast_arrays(r, c, v)):
            out.append(a.ravel())

    def block(r0, c0, M):
        M = np.atleast_2d(M)
        put(r0 + np.arange(M.shape[0])[:, None], c0 + np.arange(M.shape[1]), M)

    xg = _at_gauss(bvp.pattern.P, orbit, ntst, ncol)
    fxa = derivatives(model, xg, alpha)[0]
    G = ntst * ncol
    c = np.arange(G) % ncol
    nodes = (np.arange(G) - c)[:, None] + np.arange(ncol + 1)
    Dg, Pg = bvp.pattern.D.T[c], bvp.pattern.P.T[c]
    inv2T = 1.0 / (2.0 * bvp.T)
    blocks = ((Dg * ntst * inv2T)[:, :, None, None] * np.eye(n)
              - Pg[:, :, None, None] * fxa[:, None, :, :n])
    put(np.arange(G * n).reshape(G, 1, n, 1), (nodes * n)[:, :, None, None] + np.arange(n),
        blocks)
    block(0, i_al, -fxa[:, :, n:].reshape(G * n, 2))
    row = G * n
    A_sa, T2 = derivatives(model, s0, alpha, 2)
    block(row, i_s0, A_sa)
    row += n
    w = np.tile(mesh.gauss_weights, ntst) / ntst
    coeff = w[:, None] * bvp.xt_dot_gauss
    put(row, (nodes * n)[:, :, None] + np.arange(n), Pg[:, :, None] * coeff[:, None, :])
    row += 1
    PU = QUperp - QU @ YU.T
    PS = QSperp - QS @ YS.T
    du0, du1 = orbit[0] - s0, orbit[-1] - s0
    block(row, 0, PU.T)
    block(row, i_s0, -PU.T)
    r = np.arange(nS)[:, None]
    put(row + r, i_yu + r * nU + np.arange(nU), -(du0 @ QU))
    row += nS
    block(row, n_orb - n, PS.T)
    block(row, i_s0, -PS.T)
    r = np.arange(nU)[:, None]
    put(row + r, i_ys + r * nS + np.arange(nS), -(du1 @ QS))
    row += nU
    QUfull = np.hstack([QU, QUperp])
    QSfull = np.hstack([QS, QSperp])
    tU = QUfull.T @ A_sa[:, :n] @ QUfull
    tS = QSfull.T @ A_sa[:, :n] @ QSfull

    def ric_y_block(t, Y, k):
        left = t[k:, k:] - Y @ t[:k, k:]
        right = t[:k, :k] + t[:k, k:] @ Y
        return np.kron(left, np.eye(Y.shape[1])) - np.kron(np.eye(Y.shape[0]), right.T)

    block(row, i_yu, ric_y_block(tU, YU, nU))
    block(row + nS * nU, i_ys, ric_y_block(tS, YS, nS))
    dA = np.moveaxis(T2[:, :n, :], -1, 0)
    block(row, i_s0, _ricatti(QUfull.T @ dA @ QUfull, YU, nU).reshape(n + 2, -1).T)
    block(row + nS * nU, i_s0, _ricatti(QSfull.T @ dA @ QSfull, YS, nS).reshape(n + 2, -1).T)
    row += 2 * nS * nU
    r0, r1 = np.linalg.norm(du0), np.linalg.norm(du1)
    block(row, 0, du0 / r0)
    block(row, i_s0, -du0 / r0)
    put(row, i_e0, -1.0)
    block(row + 1, n_orb - n, du1 / r1)
    block(row + 1, i_s0, -du1 / r1)
    put(row + 1, i_e0 + 1, -1.0)
    J = scipy.sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m_total - 1, m_total))
    J.eliminate_zeros()
    return J


class TestJacobianPattern:
    def test_values_equal_the_coo_assembly(self, benchmark_system):
        bvp, z = benchmark_system
        J = bvp_jacobian(bvp, z)
        assert J.format == "csc" and J.has_canonical_format
        assert np.array_equal(J.toarray(), _coo_jacobian(bvp, z).toarray())

    def test_no_entry_the_code_strings_exclude(self, benchmark_system):
        bvp, z = benchmark_system
        n, G = bvp.n, bvp.mesh.ntst * bvp.mesh.ncol
        n_orb = bvp.sizes()["orbit"]
        names = [f"x[..., {j}]" for j in range(n)] + [f"a[..., {j}]" for j in range(2)]
        named = np.array([[v in code for v in names] for code in bvp.model.rhs])
        assert not named.all()             # the check below has entries to exclude
        J = bvp_jacobian(bvp, z).tocoo()
        rows, cols = J.row, J.col
        # collocation rows against orbit columns (the identity keeps its diagonal)
        # and alpha columns, saddle rows against (s0, alpha) columns
        coll = (rows < G * n) & (cols < n_orb)
        i, j = rows[coll] % n, cols[coll] % n
        assert np.all((i == j) | named[i, j])
        coll_alpha = (rows < G * n) & (cols >= n_orb + n) & (cols < n_orb + n + 2)
        assert np.all(named[rows[coll_alpha] % n, n + cols[coll_alpha] - n_orb - n])
        saddle = (rows >= G * n) & (rows < G * n + n) & (cols >= n_orb) & (cols < n_orb + n + 2)
        assert np.all(named[rows[saddle] - G * n, cols[saddle] - n_orb])

    def test_models_on_one_mesh_have_their_own_pattern(self, hh_model, hh_orbital,
                                                       bt_nf_model, bt_nf_orbital):
        mesh = make_mesh(24, 4)
        bvps = []
        for model, ex in ((hh_model, hh_orbital[1]), (bt_nf_model, bt_nf_orbital[1])):
            pred = sample_predictor(ex, LP, 0.05, mesh, k=5e-6)
            bvps.append(build_bvp(model, mesh, pred.T, pred.orbit, pred.s0, pred.alpha))
        assert bvps[0].pattern is not bvps[1].pattern
        assert bvps[0].pattern.shape != bvps[1].pattern.shape

    def test_cached_arrays_are_read_only(self, benchmark_system):
        bvp, z = benchmark_system
        J = bvp_jacobian(bvp, z)
        with pytest.raises(ValueError):
            J.indices[0] = 1


class TestLayout:
    def test_runs_tile_the_unknowns_and_the_equations(self, benchmark_system):
        bvp, z = benchmark_system
        pat = bvp.pattern
        assert pat.shape == (z.size - 1, z.size)
        for runs, total in ((pat.unknowns, z.size), (pat.equations, z.size - 1)):
            bounds = [(sl.start, sl.stop) for sl, _ in runs.values()]
            assert [a for a, _ in bounds] == [0] + [b for _, b in bounds[:-1]]
            assert bounds[-1][1] == total
            assert all(sl.stop - sl.start == math.prod(shape) for sl, shape in runs.values())

    def test_pack_and_unpack_round_trip(self, benchmark_system):
        bvp, z = benchmark_system
        z = np.random.default_rng(4).standard_normal(z.size)     # YU, YS nonzero too
        blocks = _unpack(bvp, z)
        assert all(np.shares_memory(b, z) for b in blocks[:5])
        assert np.array_equal(pack_unknowns(bvp, *blocks), z)

    def test_sizes_count_each_block(self, benchmark_system):
        bvp, z = benchmark_system
        n, nU, nS = bvp.n, bvp.n_unstable, bvp.n_stable
        n_orb = (bvp.mesh.ntst * bvp.mesh.ncol + 1) * n
        assert bvp.sizes() == {"orbit": n_orb, "s0": n, "alpha": 2, "YU": nS * nU,
                               "YS": nU * nS, "dist": 2,
                               "total": n_orb + n + 2 + 2 * nS * nU + 2}
        assert z.size == bvp.sizes()["total"]

    def test_slot_rows_lie_in_their_equation_run(self, benchmark_system):
        bvp, _ = benchmark_system
        pat = bvp.pattern
        for name, (sl, _) in pat.slots.items():
            # the equation run a slot run belongs to prefixes its name
            eq = max((e for e in pat.equations if name.startswith(e)), key=len)
            rows = pat.indices[pat.pos[sl][pat.pos[sl] < pat.nnz]]
            assert rows.size
            run = pat.equations[eq][0]
            assert np.all((rows >= run.start) & (rows < run.stop)), name

    def test_misshaped_unknown_vector_is_rejected(self, predictor_system):
        bvp, z = predictor_system
        for bad in (np.append(z, 7.0), z[:-1], z[None, :]):
            for f in (bvp_residual, bvp_jacobian, unpack_orbit):
                with pytest.raises(ValueError, match="unknown vector has shape"):
                    f(bvp, bad)

    def test_misshaped_block_is_rejected(self, bt_nf_model, planar_setup):
        _, mesh, pred = planar_setup
        bvp = build_bvp(bt_nf_model, mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
        with pytest.raises(ValueError, match="orbit has shape"):
            pack_unknowns(bvp, pred.orbit[:-1], pred.s0, pred.alpha)
        with pytest.raises(ValueError, match="alpha has shape"):
            pack_unknowns(bvp, pred.orbit, pred.s0, np.append(pred.alpha, 0.0))
        with pytest.raises(ValueError, match="YU has shape"):
            pack_unknowns(bvp, pred.orbit, pred.s0, pred.alpha, YU=np.zeros(1))


class TestResidual:
    def test_constant_saddle_solution_has_zero_core_residual(self, bt_nf_model,
                                                             planar_setup):
        _, mesh, pred = planar_setup
        alpha = np.array([-0.01, 0.05])
        s0 = so.fsolve(lambda x: eval_rhs(bt_nf_model, x, alpha), [0.1, 0.0],
                       xtol=1e-14)
        bvp = build_bvp(bt_nf_model, mesh, 1.0, pred.orbit, s0, alpha)
        orbit = np.broadcast_to(s0, bvp.pattern.unknowns["orbit"][1])
        z = pack_unknowns(bvp, orbit, s0, alpha, eps0=0.0, eps1=0.0)
        r = bvp_residual(bvp, z)
        ncoll = mesh.ntst * mesh.ncol * 2
        assert np.max(np.abs(r[:ncoll])) < 1e-11          # collocation
        assert np.max(np.abs(r[ncoll:ncoll + 2])) < 1e-11  # saddle
        assert np.max(np.abs(r[ncoll + 3:])) < 1e-9        # BCs/Riccati/distances

    def test_equation_count_is_unknown_count_minus_one(self, bt_nf_model,
                                                       planar_setup):
        _, mesh, pred = planar_setup
        bvp = build_bvp(bt_nf_model, mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
        z = pack_unknowns(bvp, pred.orbit, pred.s0, pred.alpha,
                          eps0=pred.eps0, eps1=pred.eps1)
        assert bvp_residual(bvp, z).size == z.size - 1

    def test_predictor_residual_order(self, bt_nf_model, bt_nf_orbital):
        _, ex = bt_nf_orbital
        mesh = make_mesh(20, 4)
        epss = [0.1, 0.05, 0.025]
        res = []
        for eps in epss:
            pred = sample_predictor(ex, LP, eps, mesh, k=eps * 1e-4)
            bvp = build_bvp(bt_nf_model, mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
            z = pack_unknowns(bvp, pred.orbit, pred.s0, pred.alpha,
                              eps0=pred.eps0, eps1=pred.eps1)
            # the collocation rows scale with 2T; normalize that factor away
            res.append(np.linalg.norm(bvp_residual(bvp, z)) / pred.T)
        assert fit_slope(epss, res) >= 3.0

    def test_jacobian_matches_directional_finite_differences(self, predictor_system):
        bvp, z = predictor_system
        J = bvp_jacobian(bvp, z)
        assert scipy.sparse.issparse(J) and J.format == "csc"
        rng = np.random.default_rng(1)
        h = 1e-7
        for _ in range(4):
            d = rng.standard_normal(z.size)
            d /= np.linalg.norm(d)
            fd = (bvp_residual(bvp, z + h * d) - bvp_residual(bvp, z - h * d)) / (2 * h)
            assert np.linalg.norm(J @ d - fd) <= 1e-5 * (1 + np.linalg.norm(fd))


class TestNewton:
    def test_planar_lp_converges_quickly(self, bt_nf_model, bt_nf_orbital):
        _, ex = bt_nf_orbital
        mesh = make_mesh(40, 4)
        pred = sample_predictor(ex, LP, 0.05, mesh, k=0.05 * 1e-4)
        bvp, z, iters = correct_predictor(bt_nf_model, pred)
        assert iters <= 5
        scale = 1 + np.max(np.abs(z))
        assert np.linalg.norm(bvp_residual(bvp, z)) <= 1e-10 * scale

    def test_corrected_point_is_fixed(self, bt_nf_model, bt_nf_orbital):
        _, ex = bt_nf_orbital
        mesh = make_mesh(20, 4)
        pred = sample_predictor(ex, LP, 0.05, mesh, k=0.05 * 1e-4)
        bvp, z, _ = correct_predictor(bt_nf_model, pred)
        z2, iters = newton_correct(bvp, z)
        assert iters == 0
        assert np.array_equal(z, z2)

    def test_max_iter_bounds_the_step_count(self, bt_nf_model, planar_setup):
        # the zero-orbit start converges at the default max_iter, in 13 steps
        _, mesh, pred = planar_setup
        bvp = build_bvp(bt_nf_model, mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
        z = pack_unknowns(bvp, np.zeros_like(pred.orbit), pred.s0, pred.alpha,
                          eps0=pred.eps0, eps1=pred.eps1)
        with pytest.raises(NoConvergenceError):
            newton_correct(bvp, z, max_iter=8)

    def test_garbage_start_fails(self, bt_nf_model, planar_setup):
        _, mesh, pred = planar_setup
        bvp = build_bvp(bt_nf_model, mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
        z = pack_unknowns(bvp, 100 * pred.orbit, pred.s0, pred.alpha,
                          eps0=pred.eps0, eps1=pred.eps1)
        for max_iter in (20, 60):        # it stalls, then finds no descent
            with pytest.raises(NoConvergenceError):
                newton_correct(bvp, z, max_iter=max_iter)

    def test_sparse_step_matches_dense_min_norm(self, predictor_system):
        bvp, z = predictor_system
        J, r = bvp_jacobian(bvp, z), bvp_residual(bvp, z)
        step, t, _ = _min_norm_step(J, r, np.full(z.size, z.size ** -0.5))
        dense = scipy.linalg.lstsq(J.toarray(), -r, lapack_driver="gelsd")[0]
        assert np.linalg.norm(step - dense) <= 1e-7 * np.linalg.norm(dense)
        assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(J @ t) <= 1e-8 * scipy.sparse.linalg.norm(J, 1)
        assert abs(t @ step) <= 1e-10 * np.linalg.norm(step)

    def test_unit_border_step_matches_ones_border(self, benchmark_system):
        bvp, z = benchmark_system
        J, r = bvp_jacobian(bvp, z), bvp_residual(bvp, z)
        ref, t_ref, _ = _min_norm_step(J, r, np.full(z.size, z.size ** -0.5))
        order = bvp.pattern.order
        for k in (bvp.pattern.border, bvp.pattern.border + 1,
                  int(np.argmax(np.abs(t_ref))), z.size - 1):
            step, t, _ = _min_norm_step(J, r, k, order)
            assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)
            assert abs(abs(t @ t_ref) - 1.0) <= 1e-12

    def test_unit_border_orthogonal_to_kernel_falls_back(self, predictor_system):
        # with its first column zeroed, J's kernel is e_0, so every other unit
        # border makes the bordered matrix singular
        bvp, z = predictor_system
        J, r = bvp_jacobian(bvp, z).tolil(), bvp_residual(bvp, z)
        J[:, 0] = 0.0
        J = J.tocsc()
        ones = np.full(z.size, z.size ** -0.5)
        step, t, solve = _min_norm_step(J, r, bvp.pattern.border, bvp.pattern.order)
        ref, t_ref, solve_ref = _min_norm_step(J, r, ones)
        assert np.array_equal(step, ref) and np.array_equal(t, t_ref)
        assert np.array_equal(solve(r), solve_ref(r))
        assert abs(t[0]) == pytest.approx(1.0, abs=1e-14)
        dense = scipy.linalg.lstsq(J.toarray(), -r, lapack_driver="gelsd")[0]
        assert np.linalg.norm(step - dense) <= 1e-7 * np.linalg.norm(dense)

    def test_underflowing_unit_border_falls_back(self, predictor_system):
        # scaling column k by 1e300 leaves t_k ~ 1e-300 |t|: w = t / t_k overflows
        bvp, z = predictor_system
        k = bvp.pattern.border
        scale = np.ones(z.size)
        scale[k] = 1e300
        J = (bvp_jacobian(bvp, z) @ scipy.sparse.diags(scale)).tocsc()
        r = bvp_residual(bvp, z)
        with np.errstate(over="ignore"):
            step, t, _ = _min_norm_step(J, r, k, bvp.pattern.order)
        ref, t_ref, _ = _min_norm_step(J, r, np.full(z.size, z.size ** -0.5))
        assert np.array_equal(step, ref) and np.array_equal(t, t_ref)

    def test_cold_and_warm_cache_give_identical_corrections(self, hh_model, hh_orbital):
        mesh = make_mesh(40, 4)
        preds = [sample_predictor(hh_orbital[1], LP, eps, mesh, k=eps * 1e-4)
                 for eps in (0.1, 0.05)]
        _mesh_pattern.cache_clear()
        _, z_cold, it_cold = correct_predictor(hh_model, preds[0], tol=1e-12)
        _mesh_pattern.cache_clear()
        correct_predictor(hh_model, preds[1], tol=1e-12)    # another op fills the cache
        _, z_warm, it_warm = correct_predictor(hh_model, preds[0], tol=1e-12)
        assert it_cold == it_warm >= 1
        assert np.array_equal(z_cold, z_warm)

    def test_cold_and_warm_saddle_holders_agree_bitwise(self, benchmark_system):
        bvp, z = benchmark_system
        cold = dataclasses.replace(bvp)             # the same system, empty holder
        r_cold, J_cold = bvp_residual(cold, z), bvp_jacobian(cold, z)
        J_warm = bvp_jacobian(bvp, z)               # order 2 now held at z
        r_warm = bvp_residual(bvp, z)
        assert np.array_equal(r_cold, r_warm)
        assert np.array_equal(J_cold.indptr, J_warm.indptr)
        assert np.array_equal(J_cold.data, J_warm.data)

    @pytest.mark.parametrize("system", ["bt_nf", "hh"])
    def test_one_saddle_derivative_call_per_point(self, system, bt_nf_model, planar_setup,
                                                  hh_model, hh_orbital, monkeypatch):
        if system == "bt_nf":
            model, (_, mesh, pred) = bt_nf_model, planar_setup
        else:
            model, mesh = hh_model, make_mesh(40, 4)
            pred = sample_predictor(hh_orbital[1], LP, 0.1, mesh, k=1e-5)
        saddle_calls = []

        def counting(model, x, alpha, order=1):
            if np.ndim(x) == 1:
                saddle_calls.append(order)
            return derivatives(model, x, alpha, order)

        monkeypatch.setattr("bthom.corrector.derivatives", counting)
        bvp = build_bvp(model, mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
        z = pack_unknowns(bvp, pred.orbit, pred.s0, pred.alpha,
                          eps0=pred.eps0, eps1=pred.eps1)
        bvp_residual(bvp, z)
        bvp_jacobian(bvp, z)
        assert saddle_calls == [2]
        bvp_residual(bvp, z + 1e-9)                 # a new point
        assert saddle_calls == [2, 1]

    @staticmethod
    def _count_jacobians(monkeypatch):
        points = []

        def counting(bvp, z):
            points.append(z.copy())
            return bvp_jacobian(bvp, z)

        monkeypatch.setattr("bthom.corrector.bvp_jacobian", counting)
        return points

    def test_simplified_steps_reuse_the_first_jacobian(self, bt_nf_model, bt_nf_orbital,
                                                       monkeypatch):
        # a bt_nf 40x7 cell that takes 3 full Newton steps without simplified ones
        _, ex = bt_nf_orbital
        eps = amplitude_to_eps(3e-2, ex.a, ex.b, ex.variant)
        pred = sample_predictor(ex, Method("lp", order=0), eps, make_mesh(40, 7),
                                k=eps * 1e-6)
        jacobians = self._count_jacobians(monkeypatch)
        bvp, z, iters = correct_predictor(bt_nf_model, pred, tol=1e-11)
        assert iters >= 2
        assert len(jacobians) == 1
        assert np.linalg.norm(bvp_residual(bvp, z)) <= 1e-11 * (1 + np.max(np.abs(z)))

    def test_failed_contraction_falls_back_to_a_fresh_jacobian(self, bt_nf_model,
                                                               planar_setup, monkeypatch):
        _, mesh, pred = planar_setup
        bvp = build_bvp(bt_nf_model, mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
        noise = 5e-3 * np.random.default_rng(0).standard_normal(pred.orbit.shape)
        z0 = pack_unknowns(bvp, 1.5 * pred.orbit + noise, pred.s0, pred.alpha,
                           eps0=pred.eps0, eps1=pred.eps1)
        calls = []                                  # (function name, point)
        for fn in (bvp_residual, bvp_jacobian):
            def recording(bvp, z, fn=fn):
                calls.append((fn.__name__, z.copy()))
                return fn(bvp, z)
            monkeypatch.setattr(f"bthom.corrector.{fn.__name__}", recording)
        z, iters = newton_correct(bvp, z0)
        # a Jacobian away from the point of the residual just before it follows
        # a discarded simplified step
        fallbacks = [zj for (a, zr), (b, zj) in zip(calls, calls[1:])
                     if (a, b) == ("bvp_residual", "bvp_jacobian")
                     and not np.array_equal(zr, zj)]
        assert fallbacks
        assert iters > sum(name == "bvp_jacobian" for name, _ in calls)
        assert np.linalg.norm(bvp_residual(bvp, z)) <= 1e-10 * (1 + np.max(np.abs(z0)))

    def test_model_error_in_simplified_step_falls_back(self, bt_nf_model, bt_nf_orbital,
                                                       monkeypatch):
        _, ex = bt_nf_orbital
        eps = amplitude_to_eps(3e-2, ex.a, ex.b, ex.variant)
        pred = sample_predictor(ex, Method("lp", order=0), eps, make_mesh(40, 7),
                                k=eps * 1e-6)
        calls = []

        def fail_on_simplified_step(bvp, z):
            calls.append(z)
            if len(calls) == 3:          # z0, the full step, the first simplified step
                raise ModelError("forced")
            return bvp_residual(bvp, z)

        monkeypatch.setattr("bthom.corrector.bvp_residual", fail_on_simplified_step)
        jacobians = self._count_jacobians(monkeypatch)
        bvp, z, iters = correct_predictor(bt_nf_model, pred, tol=1e-11)
        assert len(jacobians) == 2 and np.array_equal(jacobians[1], calls[1])
        assert np.linalg.norm(bvp_residual(bvp, z)) <= 1e-11 * (1 + np.max(np.abs(z)))

    def test_diverged_residual_raises_without_overflow_warning(self, bt_nf_model,
                                                               planar_setup):
        _, mesh, pred = planar_setup
        bvp = build_bvp(bt_nf_model, mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
        orbit = pred.orbit.copy()
        orbit[orbit.shape[0] // 2] = 1e100          # a ~1e200 residual: |r|^2 overflows
        z = pack_unknowns(bvp, orbit, pred.s0, pred.alpha, eps0=pred.eps0, eps1=pred.eps1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergenceError, match="diverged"):
                newton_correct(bvp, z)

    def test_singular_bordered_jacobian_is_typed(self, bt_nf_model, planar_setup,
                                                 monkeypatch):
        _, mesh, pred = planar_setup
        bvp = build_bvp(bt_nf_model, mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
        z = pack_unknowns(bvp, pred.orbit, pred.s0, pred.alpha,
                          eps0=pred.eps0, eps1=pred.eps1)

        def zero_first_row(bvp, z):
            J = bvp_jacobian(bvp, z)
            keep = np.ones(J.shape[0])
            keep[0] = 0.0
            return (scipy.sparse.diags(keep) @ J).tocsc()

        monkeypatch.setattr("bthom.corrector.bvp_jacobian", zero_first_row)
        with pytest.raises(NoConvergenceError, match="singular .* at iteration 1"):
            newton_correct(bvp, z)

    def test_unexpected_error_in_trial_step_propagates(self, bt_nf_model, planar_setup,
                                                       monkeypatch):
        _, mesh, pred = planar_setup
        bvp = build_bvp(bt_nf_model, mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
        z = pack_unknowns(bvp, pred.orbit, pred.s0, pred.alpha,
                          eps0=pred.eps0, eps1=pred.eps1)
        calls = []

        def fail_on_trial_step(bvp, z):
            calls.append(z)
            if len(calls) > 1:
                raise TypeError("forced")
            return bvp_residual(bvp, z)

        monkeypatch.setattr("bthom.corrector.bvp_residual", fail_on_trial_step)
        with pytest.raises(TypeError, match="forced"):
            newton_correct(bvp, z)

    def test_hh_reaches_residual_floor(self, hh_model, hh_orbital):
        mesh = make_mesh(40, 4)
        pred = sample_predictor(hh_orbital[1], LP, 0.1, mesh, k=1e-5)
        bvp = build_bvp(hh_model, mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
        z0 = pack_unknowns(bvp, pred.orbit, pred.s0, pred.alpha,
                           eps0=pred.eps0, eps1=pred.eps1)
        z, _ = newton_correct(bvp, z0, tol=1e-13)
        assert np.linalg.norm(bvp_residual(bvp, z)) <= 1e-13 * (1 + np.max(np.abs(z0)))

    def test_phase_and_riccati_hold_at_corrected_solution(self, bt_nf_model,
                                                          bt_nf_orbital):
        _, ex = bt_nf_orbital
        mesh = make_mesh(20, 4)
        pred = sample_predictor(ex, LP, 0.08, mesh, k=0.08 * 1e-4)
        bvp, z, _ = correct_predictor(bt_nf_model, pred, tol=1e-12)
        orbit, s0, alpha, YU, YS, *_ = _unpack(bvp, z)
        r = bvp_residual(bvp, z)
        ncoll = mesh.ntst * mesh.ncol * 2
        phase = r[ncoll + 2]
        assert abs(phase) < 1e-10
        nSU = bvp.n_stable * bvp.n_unstable
        ric = r[ncoll + 2 + 1 + bvp.n_stable + bvp.n_unstable:
                ncoll + 3 + bvp.n_stable + bvp.n_unstable + 2 * nSU]
        assert np.max(np.abs(ric)) < 1e-10
        assert np.max(np.abs(YU)) < 1e-4 and np.max(np.abs(YS)) < 1e-4


class TestDiscretization:
    def test_doubling_ntst_converges_at_collocation_order(self, bt_nf_model,
                                                          bt_nf_orbital):
        _, ex = bt_nf_orbital
        eps, ncol = 0.1, 4
        orbits = {}
        for ntst in (10, 20, 40):
            mesh = make_mesh(ntst, ncol)
            pred = sample_predictor(ex, LP, eps, mesh, k=eps * 1e-4)
            bvp, z, _ = correct_predictor(bt_nf_model, pred, tol=1e-12)
            orbits[ntst] = unpack_orbit(bvp, z)
        # common points: coarse fine-mesh is a subset of the finer ones
        d1 = np.linalg.norm(orbits[10] - orbits[20][::2])
        d2 = np.linalg.norm(orbits[20] - orbits[40][::2])
        order = np.log2(d1 / d2)
        assert order >= ncol - 0.5

    def test_riccati_residual_formula(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((4, 4))
        Y = rng.standard_normal((3, 1))
        R = _ricatti(t, Y, 1)
        t11, t12, t21, t22 = t[:1, :1], t[:1, 1:], t[1:, :1], t[1:, 1:]
        assert np.allclose(R, t22 @ Y - Y @ t11 + t21 - Y @ t12 @ Y)


class TestAutoEps:
    def test_converges_first_try_on_good_model(self, bt_nf_model, bt_nf_orbital):
        _, ex = bt_nf_orbital
        pred, bvp, z, iters = correct_with_retries(bt_nf_model, ex, LP,
                                                   make_mesh(20, 4))
        assert pred.eps == 0.1
        assert np.linalg.norm(bvp_residual(bvp, z)) < 1e-9

    def test_halves_eps_until_convergence(self, bt_nf_model, bt_nf_orbital,
                                          monkeypatch):
        _, ex = bt_nf_orbital
        real = correct_predictor
        calls = []

        def flaky(model, pred, tol=1e-10):
            calls.append(pred.eps)
            if pred.eps > 0.03:
                raise NoConvergenceError("forced")
            return real(model, pred, tol)

        monkeypatch.setattr("bthom.corrector.correct_predictor", flaky)
        pred, *_ = correct_with_retries(bt_nf_model, ex, LP, make_mesh(20, 4))
        assert calls == [0.1, 0.05, 0.025]
        assert pred.eps == 0.025

    def test_model_error_halves_eps(self, hh_model, hh_smooth):
        # at eps = 0.1 the predicted saddle leaves the domain of the HH rates
        pred, bvp, z, iters = correct_with_retries(hh_model, hh_smooth, LP,
                                                   make_mesh(40, 4))
        assert pred.eps < 0.1
        assert np.linalg.norm(bvp_residual(bvp, z)) <= 1e-10 * (1 + np.max(np.abs(z)))

    def test_gives_up_after_max_tries(self, bt_nf_model, bt_nf_orbital,
                                      monkeypatch):
        _, ex = bt_nf_orbital

        def always_fail(model, pred, tol=1e-10):
            raise NoConvergenceError("forced")

        monkeypatch.setattr("bthom.corrector.correct_predictor", always_fail)
        with pytest.raises(NoConvergenceError, match="8 eps-halvings"):
            correct_with_retries(bt_nf_model, ex, LP, make_mesh(20, 4))

    @pytest.mark.parametrize("variant, iters", [("smooth", 6), ("hyper", 10)])
    def test_unusable_predictor_halves_eps(self, hh_model, variant, iters):
        # at eps = 0.1 the order-1 end distances are 0: the predictor stage fails
        ex = analyze_bt(hh_model, HH_BT_STATE, HH_BT_ALPHA, variant)[1]
        pred, bvp, z, steps = correct_with_retries(hh_model, ex, Method("lp", order=1),
                                                   make_mesh(40, 4))
        assert (pred.eps, steps) == (0.003125, iters)
        assert np.linalg.norm(bvp_residual(bvp, z)) <= 1e-10 * (1 + np.max(np.abs(z)))

    def test_gives_up_with_the_stage_of_the_last_failure(self, bt_nf_model, bt_nf_orbital,
                                                         monkeypatch):
        _, ex = bt_nf_orbital
        with pytest.raises(ValueError):     # k = 0.5 above A0 = 0.06 is not retried
            correct_with_retries(bt_nf_model, ex, LP, make_mesh(20, 4), k_factor=5.0)
        real, calls = sample_predictor, []

        def last_fails(expansion, method, eps, mesh, k):
            calls.append(eps)
            if len(calls) == 8:
                raise BthomError("forced", stage="predictor")
            return real(expansion, method, eps, mesh, k=k)

        def always_fail(model, pred, tol=1e-10):
            raise NoConvergenceError("forced")

        monkeypatch.setattr("bthom.corrector.sample_predictor", last_fails)
        monkeypatch.setattr("bthom.corrector.correct_predictor", always_fail)
        with pytest.raises(NoConvergenceError) as exc:
            correct_with_retries(bt_nf_model, ex, LP, make_mesh(20, 4))
        assert exc.value.stage == "predictor" and len(calls) == 8

class TestStudy:
    def test_records_and_csv(self, bt_nf_model, bt_nf_orbital):
        _, ex = bt_nf_orbital
        mesh = make_mesh(20, 4)
        recs = convergence_study(bt_nf_model, ex, [LP], [0, 3], [1e-2, 1e-1],
                                 mesh=mesh)
        assert len(recs) == 4
        assert all(r.converged for r in recs)
        assert all(np.isfinite(r.delta) and r.delta >= 0 for r in recs)
        d0 = [r.delta for r in recs if r.order == 0]
        d3 = [r.delta for r in recs if r.order == 3]
        assert all(a > b for a, b in zip(d0, d3))
        row = recs[0].csv_row()
        assert row.startswith("bt_nf,lp,orbital,0,")
        assert len(row.split(",")) == len(ConvergenceRecord.CSV_HEADER.split(","))

    def test_model_error_is_recorded_as_nan(self, hh_model, hh_smooth):
        # order 1's predictor is unusable (its end distances vanish) and order
        # 3's correction meets a model error: both cells are recorded
        amplitude = 6 * 0.1 ** 2 / abs(hh_smooth.a)       # eps = 0.1
        recs = convergence_study(hh_model, hh_smooth, [LP], [1, 3], [amplitude],
                                 mesh=make_mesh(40, 4))
        assert [rec.order for rec in recs] == [1, 3]
        for rec in recs:
            assert rec.eps == pytest.approx(0.1)
            assert not rec.converged and np.isnan(rec.delta)
