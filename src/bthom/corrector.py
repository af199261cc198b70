"""Newton correction of homoclinic predictors against the defining system.

The defining system couples orthogonal collocation of the rescaled orbit,
the saddle equation, an integral phase condition against a reference orbit,
projection boundary conditions built from Riccati-updated invariant-subspace
bases, and the two end-distance equations.  The system has one unknown more
than equations (the homoclinic branch), so corrections are minimum-norm
(Moore-Penrose) Newton steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .model import ModelError, OdeModel, derivatives, eval_rhs
from .nfcoeffs import CmExpansion
from .predictor import (HomPredictor, Mesh, NoConvergenceError, amplitude_to_eps,
                        make_mesh, sample_predictor, Method)

__all__ = [
    "NoConvergenceError",
    "HomBvp",
    "ConvergenceRecord",
    "build_bvp",
    "pack_unknowns",
    "unpack_orbit",
    "bvp_residual",
    "bvp_jacobian",
    "newton_correct",
    "correct_predictor",
    "convergence_study",
]


def _lagrange_matrices(ncol: int, gauss: np.ndarray):
    """Values and derivatives of the local Lagrange basis at Gauss points."""
    nodes = np.linspace(0.0, 1.0, ncol + 1)
    leave_one_out = np.eye(ncol, dtype=bool)
    P = np.empty((ncol + 1, ncol))
    D = np.empty((ncol + 1, ncol))
    for k in range(ncol + 1):
        others = np.delete(nodes, k)
        denom = np.prod(nodes[k] - others)
        for c, g in enumerate(gauss):
            diffs = g - others
            P[k, c] = np.prod(diffs) / denom
            D[k, c] = np.sum(np.prod(np.where(leave_one_out, 1.0, diffs), axis=1)) / denom
    return P, D


def _at_gauss(M: np.ndarray, orbit: np.ndarray, ntst: int, ncol: int) -> np.ndarray:
    """Apply the local basis table M (P or D) on every mesh interval.

    Returns, for each of the ntst*ncol Gauss points, the combination of the
    ncol + 1 orbit nodes of its interval weighted by M's column.
    """
    nodes = np.arange(ntst)[:, None] * ncol + np.arange(ncol + 1)
    return (M.T @ orbit[nodes]).reshape(ntst * ncol, -1)


@dataclass
class HomBvp:
    """Discretized homoclinic defining system with frozen bases and reference."""

    model: OdeModel
    mesh: Mesh
    T: float
    x_tilde: np.ndarray          # reference orbit on the fine mesh
    QU: np.ndarray
    QUperp: np.ndarray
    QS: np.ndarray
    QSperp: np.ndarray
    n_unstable: int
    n_stable: int
    P: np.ndarray                # local basis values at Gauss points
    D: np.ndarray                # local basis derivatives (unit interval)
    xt_gauss: np.ndarray         # reference orbit at collocation points
    xt_dot_gauss: np.ndarray     # its scaled-time derivative there

    @property
    def n(self) -> int:
        return self.model.dim

    @property
    def n_orbit(self) -> int:
        return self.mesh.ntst * self.mesh.ncol + 1

    def sizes(self):
        n, nU, nS = self.n, self.n_unstable, self.n_stable
        n_orb = self.n_orbit * n
        return {
            "orbit": n_orb,
            "s0": n,
            "alpha": 2,
            "YU": nS * nU,
            "YS": nU * nS,
            "dist": 2,
            "total": n_orb + n + 2 + 2 * nS * nU + 2,
        }


def build_bvp(model: OdeModel, mesh: Mesh, T: float, x_tilde: np.ndarray,
              s0: np.ndarray, alpha: np.ndarray) -> HomBvp:
    """Freeze eigenspace bases at (s0, alpha) and precompute collocation data."""
    n = model.dim
    A = derivatives(model, s0, alpha)[0][:, :n]
    TU, ZU, nU = scipy.linalg.schur(A, output="real", sort="rhp")
    if nU == 0 or nU == n:
        raise NoConvergenceError(f"saddle has {nU} unstable directions; need 1..{n-1}")
    TS, ZS, nS = scipy.linalg.schur(A, output="real", sort="lhp")
    if nS != n - nU:
        raise NoConvergenceError("eigenvalues too close to the imaginary axis "
                                 "to split stable/unstable subspaces")
    P, D = _lagrange_matrices(mesh.ncol, mesh.gauss)
    ntst, ncol = mesh.ntst, mesh.ncol
    return HomBvp(model=model, mesh=mesh, T=float(T), x_tilde=np.array(x_tilde),
                  QU=ZU[:, :nU], QUperp=ZU[:, nU:], QS=ZS[:, :nS],
                  QSperp=ZS[:, nS:], n_unstable=nU, n_stable=nS,
                  P=P, D=D, xt_gauss=_at_gauss(P, x_tilde, ntst, ncol),
                  xt_dot_gauss=_at_gauss(D, x_tilde, ntst, ncol) * ntst)


def pack_unknowns(bvp: HomBvp, orbit, s0, alpha, YU=None, YS=None,
                  eps0=0.0, eps1=0.0) -> np.ndarray:
    nU, nS = bvp.n_unstable, bvp.n_stable
    YU = np.zeros((nS, nU)) if YU is None else YU
    YS = np.zeros((nU, nS)) if YS is None else YS
    return np.concatenate([np.asarray(orbit, float).ravel(), np.asarray(s0, float),
                           np.asarray(alpha, float), YU.ravel(), YS.ravel(),
                           [eps0, eps1]])


def _unpack(bvp: HomBvp, z: np.ndarray):
    n, nU, nS = bvp.n, bvp.n_unstable, bvp.n_stable
    n_orb = bvp.n_orbit * n
    orbit = z[:n_orb].reshape(bvp.n_orbit, n)
    s0 = z[n_orb:n_orb + n]
    alpha = z[n_orb + n:n_orb + n + 2]
    o = n_orb + n + 2
    YU = z[o:o + nS * nU].reshape(nS, nU)
    YS = z[o + nS * nU:o + 2 * nS * nU].reshape(nU, nS)
    eps0, eps1 = z[-2], z[-1]
    return orbit, s0, alpha, YU, YS, eps0, eps1


def unpack_orbit(bvp: HomBvp, z: np.ndarray) -> np.ndarray:
    return _unpack(bvp, z)[0]


def _ricatti(t, Y, nU):
    t11, t12 = t[..., :nU, :nU], t[..., :nU, nU:]
    t21, t22 = t[..., nU:, :nU], t[..., nU:, nU:]
    return t22 @ Y - Y @ t11 + t21 - Y @ t12 @ Y


def bvp_residual(bvp: HomBvp, z: np.ndarray) -> np.ndarray:
    sizes = bvp.sizes()
    if z.size != sizes["total"]:
        raise ValueError(f"unknown vector has size {z.size}, expected {sizes['total']}")
    orbit, s0, alpha, YU, YS, eps0, eps1 = _unpack(bvp, z)
    model, mesh = bvp.model, bvp.mesh
    ntst, ncol = mesh.ntst, mesh.ncol

    # collocation: dx/dsigma = 2T f(x, alpha) at Gauss points; the rows are
    # scaled by 1/(2T) so the residual is in vector-field units regardless of
    # the half-return time (the Newton step is invariant under row scaling)
    xg = _at_gauss(bvp.P, orbit, ntst, ncol)
    dxg = _at_gauss(bvp.D, orbit, ntst, ncol) * ntst
    coll = dxg / (2.0 * bvp.T) - eval_rhs(model, xg, alpha)

    saddle = eval_rhs(model, s0, alpha)

    w = np.tile(bvp.mesh.gauss_weights, ntst) / ntst
    phase = float(np.sum(w[:, None] * bvp.xt_dot_gauss * (xg - bvp.xt_gauss)))

    PU = bvp.QUperp - bvp.QU @ YU.T      # n x nS, orthogonal to the unstable space
    PS = bvp.QSperp - bvp.QS @ YS.T      # n x nU, orthogonal to the stable space
    bc_left = PU.T @ (orbit[0] - s0)
    bc_right = PS.T @ (orbit[-1] - s0)

    A = derivatives(model, s0, alpha)[0][:, :bvp.n]
    QUfull = np.hstack([bvp.QU, bvp.QUperp])
    QSfull = np.hstack([bvp.QS, bvp.QSperp])
    ric_u = _ricatti(QUfull.T @ A @ QUfull, YU, bvp.n_unstable)
    ric_s = _ricatti(QSfull.T @ A @ QSfull, YS, bvp.n_stable)

    dist0 = np.linalg.norm(orbit[0] - s0) - eps0
    dist1 = np.linalg.norm(orbit[-1] - s0) - eps1

    return np.concatenate([coll.ravel(), saddle, [phase], bc_left, bc_right,
                           ric_u.ravel(), ric_s.ravel(), [dist0, dist1]])


def bvp_jacobian(bvp: HomBvp, z: np.ndarray) -> scipy.sparse.csc_matrix:
    """Jacobian of `bvp_residual` at z as a sparse (N-1) x N CSC matrix."""
    orbit, s0, alpha, YU, YS, eps0, eps1 = _unpack(bvp, z)
    model, mesh = bvp.model, bvp.mesh
    ntst, ncol, n = mesh.ntst, mesh.ncol, bvp.n
    nU, nS = bvp.n_unstable, bvp.n_stable
    sizes = bvp.sizes()
    m_total = sizes["total"]
    n_orb = sizes["orbit"]
    i_s0 = n_orb
    i_al = n_orb + n
    i_yu = i_al + 2
    i_ys = i_yu + nS * nU
    i_e0 = m_total - 2

    # (row, col, value) triples; the CSC conversion sums repeated entries
    rows, cols, vals = [], [], []

    def put(r, c, v):
        for out, a in zip((rows, cols, vals), np.broadcast_arrays(r, c, v)):
            out.append(a.ravel())

    def block(r0, c0, M):
        M = np.atleast_2d(M)
        put(r0 + np.arange(M.shape[0])[:, None], c0 + np.arange(M.shape[1]), M)

    # [f_x | f_alpha] at all collocation points
    xg = _at_gauss(bvp.P, orbit, ntst, ncol)
    fxa = derivatives(model, xg, alpha)[0]

    # collocation rows: Gauss point g = j*ncol + c couples to the ncol + 1
    # orbit nodes j*ncol + k of its interval
    G = ntst * ncol
    c = np.arange(G) % ncol
    nodes = (np.arange(G) - c)[:, None] + np.arange(ncol + 1)               # (G, ncol+1)
    Dg, Pg = bvp.D.T[c], bvp.P.T[c]                                       # (G, ncol+1)
    inv2T = 1.0 / (2.0 * bvp.T)
    blocks = ((Dg * ntst * inv2T)[:, :, None, None] * np.eye(n)
              - Pg[:, :, None, None] * fxa[:, None, :, :n])               # (G, ncol+1, n, n)
    put(np.arange(G * n).reshape(G, 1, n, 1), (nodes * n)[:, :, None, None] + np.arange(n),
        blocks)
    block(0, i_al, -fxa[:, :, n:].reshape(G * n, 2))
    row = G * n

    # saddle rows; T2 is the second derivative tensor at the saddle
    A_sa, T2 = derivatives(model, s0, alpha, 2)
    block(row, i_s0, A_sa)
    row += n

    # phase row; the end node of one interval is the start node of the next,
    # so contributions accumulate
    w = np.tile(bvp.mesh.gauss_weights, ntst) / ntst
    coeff = w[:, None] * bvp.xt_dot_gauss
    put(row, (nodes * n)[:, :, None] + np.arange(n), Pg[:, :, None] * coeff[:, None, :])
    row += 1

    # boundary condition rows
    PU = bvp.QUperp - bvp.QU @ YU.T
    PS = bvp.QSperp - bvp.QS @ YS.T
    du0 = orbit[0] - s0
    du1 = orbit[-1] - s0
    block(row, 0, PU.T)
    block(row, i_s0, -PU.T)
    r = np.arange(nS)[:, None]
    put(row + r, i_yu + r * nU + np.arange(nU), -(du0 @ bvp.QU))
    row += nS
    block(row, n_orb - n, PS.T)
    block(row, i_s0, -PS.T)
    r = np.arange(nU)[:, None]
    put(row + r, i_ys + r * nS + np.arange(nS), -(du1 @ bvp.QS))
    row += nU

    # Riccati rows
    A = A_sa[:, :n]
    QUfull = np.hstack([bvp.QU, bvp.QUperp])
    QSfull = np.hstack([bvp.QS, bvp.QSperp])
    tU = QUfull.T @ A @ QUfull
    tS = QSfull.T @ A @ QSfull

    def ric_y_block(t, Y, k):
        left = t[k:, k:] - Y @ t[:k, k:]
        right = t[:k, :k] + t[:k, k:] @ Y
        return np.kron(left, np.eye(Y.shape[1])) - np.kron(np.eye(Y.shape[0]), right.T)

    block(row, i_yu, ric_y_block(tU, YU, nU))
    block(row + nS * nU, i_ys, ric_y_block(tS, YS, nS))

    # dA/dp for each (s0, alpha) coordinate p
    dA = np.moveaxis(T2[:, :n, :], -1, 0)
    dtU = QUfull.T @ dA @ QUfull
    dtS = QSfull.T @ dA @ QSfull
    # the Riccati residual is linear homogeneous in the T-blocks
    block(row, i_s0, _ricatti(dtU, YU, nU).reshape(n + 2, -1).T)
    block(row + nS * nU, i_s0, _ricatti(dtS, YS, nS).reshape(n + 2, -1).T)
    row += 2 * nS * nU

    # distance rows
    r0 = np.linalg.norm(du0)
    r1 = np.linalg.norm(du1)
    block(row, 0, du0 / r0)
    block(row, i_s0, -du0 / r0)
    put(row, i_e0, -1.0)
    block(row + 1, n_orb - n, du1 / r1)
    block(row + 1, i_s0, -du1 / r1)
    put(row + 1, i_e0 + 1, -1.0)
    J = scipy.sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m_total - 1, m_total))
    # drop stored zeros (vanishing f_x entries, off-diagonals of the identity
    # and Kronecker blocks): with them, the LU of HH at 160x4 filled in 10x more
    J.eliminate_zeros()
    return J


def _min_norm_step(J, r: np.ndarray, c: np.ndarray):
    """Minimum-norm solution of J step = -r, the unit kernel vector t of J, and
    the same solve for other right-hand sides.

    One sparse LU of the bordered square matrix [J; c^T], with c not orthogonal
    to the kernel of J, gives v (J v = -r, c.v = 0) and w (J w = 0, c.w = 1).
    The minimum-norm step is v without its component along t = w/|w|.
    """
    B = scipy.sparse.vstack([J, scipy.sparse.csc_matrix(c[None, :])], format="csc")
    lu = scipy.sparse.linalg.splu(B, permc_spec="MMD_AT_PLUS_A")
    rhs = np.zeros((c.size, 2))
    rhs[:-1, 0] = -r
    rhs[-1, 1] = 1.0
    v, w = lu.solve(rhs).T
    t = w / np.linalg.norm(w)

    def solve(rhs):
        x = lu.solve(np.append(-rhs, 0.0))
        return x - (t @ x) * t

    return v - (t @ v) * t, t, solve


def newton_correct(bvp: HomBvp, z0: np.ndarray, tol: float = 1e-10,
                   max_iter: int = 20) -> tuple[np.ndarray, int]:
    """Moore-Penrose (minimum-norm) Newton onto the solution manifold.

    Each step borders the Jacobian with the previous iteration's kernel
    vector (first: the normalized all-ones vector), as in the corrector of
    Allgower & Georg, Introduction to Numerical Continuation Methods (2003).
    The step is halved until the trial point passes the natural monotonicity
    test of Deuflhard, Newton Methods for Nonlinear Problems (2004): its
    simplified Newton correction, from the same factorization, is shorter
    than the step.  Unlike the residual norm, that test does not depend on
    how the equations are scaled.
    """
    z = np.array(z0, float)
    scale = 1.0 + float(np.max(np.abs(z0)))
    t = np.full(z.size, z.size ** -0.5)
    r = bvp_residual(bvp, z)
    for it in range(1, max_iter + 1):
        rn = np.linalg.norm(r)
        if not np.isfinite(rn):
            raise NoConvergenceError("residual became non-finite")
        if rn <= tol * scale:
            return z, it - 1
        J = bvp_jacobian(bvp, z)
        try:
            step, t, solve = _min_norm_step(J, r, t)
        except RuntimeError as exc:      # splu: the factor is exactly singular
            raise NoConvergenceError(
                f"singular bordered Jacobian at iteration {it}: {exc}") from exc
        if not np.all(np.isfinite(step)):
            raise NoConvergenceError(f"non-finite Newton step at iteration {it}")
        step_norm = np.linalg.norm(step)
        damp = 1.0
        for _ in range(6):
            z_new = z + damp * step
            try:
                r_new = bvp_residual(bvp, z_new)
            except ModelError:
                r_new = None
            if r_new is not None and np.linalg.norm(solve(r_new)) < step_norm:
                break
            damp *= 0.5
        else:
            raise NoConvergenceError(f"no descent after damping (residual {rn:.3e})")
        z, r = z_new, r_new
    rn = np.linalg.norm(r)
    if rn <= tol * scale:
        return z, max_iter
    raise NoConvergenceError(f"Newton stalled at residual {rn:.3e}")


def correct_predictor(model: OdeModel, pred: HomPredictor,
                      tol: float = 1e-10) -> tuple[HomBvp, np.ndarray, int]:
    """Build the defining system around a predictor and Newton-correct it.

    A model evaluation that fails (the predictor left the model's domain) is
    a :class:`NoConvergenceError` naming the stage, so callers can retry.
    """
    stage = "build_bvp"
    try:
        bvp = build_bvp(model, pred.mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
        z0 = pack_unknowns(bvp, pred.orbit, pred.s0, pred.alpha,
                           eps0=pred.eps0, eps1=pred.eps1)
        stage = "newton_correct"
        z, iters = newton_correct(bvp, z0, tol=tol)
    except ModelError as exc:
        raise NoConvergenceError(f"{stage}: {exc}") from exc
    return bvp, z, iters


def correct_with_retries(model: OdeModel, expansion: CmExpansion, method,
                         mesh: Mesh | None = None, eps: float = 0.1,
                         k_factor: float = 1e-4, max_tries: int = 8,
                         tol: float = 1e-10):
    """Automatic perturbation-parameter policy: halve eps until Newton converges.

    Starts at eps = 0.1 with end distance k = eps * 1e-4 and retries up to
    ``max_tries`` times.  Returns (predictor, bvp, corrected z, iterations).
    """
    if mesh is None:
        mesh = make_mesh()
    last_exc = None
    for _ in range(max_tries):
        pred = sample_predictor(expansion, method, eps, mesh, k=eps * k_factor)
        try:
            bvp, z, iters = correct_predictor(model, pred, tol=tol)
            return pred, bvp, z, iters
        except NoConvergenceError as exc:
            last_exc = exc
            eps *= 0.5
    raise NoConvergenceError(
        f"no convergence after {max_tries} eps-halvings: {last_exc}")


@dataclass
class ConvergenceRecord:
    model: str
    method: str
    variant: str
    order: int
    amplitude: float
    eps: float
    delta: float
    iterations: int
    converged: bool

    CSV_HEADER = "model,method,variant,order,amplitude,eps,delta,iterations,converged"

    def csv_row(self) -> str:
        return (f"{self.model},{self.method},{self.variant},{self.order},"
                f"{self.amplitude:.17g},{self.eps:.17g},{self.delta:.17g},"
                f"{self.iterations},{int(self.converged)}")


def _method_label(m: Method) -> str:
    label = m.kind
    if m.phase.value != "vzero":
        label += "-" + m.phase.value
    if m.lp_xi_identity:
        label += "-xid"
    return label


def convergence_study(model: OdeModel, expansion: CmExpansion, methods,
                      orders, amplitudes, mesh: Mesh | None = None,
                      k_factor: float = 1e-4, tol: float = 1e-12) -> list[ConvergenceRecord]:
    """delta(X) between predicted and corrected orbits over a method/order/A0 grid.

    A failed correction is recorded with delta = nan rather than raised.
    """
    if mesh is None:
        mesh = make_mesh()
    records = []
    for spec in methods:
        base = spec if isinstance(spec, Method) else Method(kind=str(spec))
        for order in orders:
            m = Method(kind=base.kind, phase=base.phase, order=order,
                       lp_xi_identity=base.lp_xi_identity)
            for A0 in amplitudes:
                eps = amplitude_to_eps(A0, expansion.a, expansion.b, expansion.variant)
                pred = sample_predictor(expansion, m, eps, mesh, k=eps * k_factor)
                delta, iters, ok = float("nan"), 0, False
                try:
                    bvp, z, iters = correct_predictor(model, pred, tol=tol)
                    corr = unpack_orbit(bvp, z)
                    delta = float(np.linalg.norm(pred.orbit - corr)
                                  / np.linalg.norm(corr))
                    ok = True
                except NoConvergenceError:
                    pass
                records.append(ConvergenceRecord(
                    model=model.name, method=_method_label(m),
                    variant=expansion.variant.value, order=order,
                    amplitude=float(A0), eps=float(eps), delta=delta,
                    iterations=iters, converged=ok))
    return records
