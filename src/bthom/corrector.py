"""Newton correction of homoclinic predictors against the defining system.

The defining system couples orthogonal collocation of the rescaled orbit,
the saddle equation, an integral phase condition against a reference orbit,
projection boundary conditions built from Riccati-updated invariant-subspace
bases, and the two end-distance equations.  The system has one unknown more
than equations (the homoclinic branch), so corrections are minimum-norm
(Moore-Penrose) Newton steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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


@dataclass(frozen=True, eq=False)
class _MeshPattern:
    """Everything a structural key (ntst, ncol, n, nU, dependency mask) fixes.

    The collocation tables, the phase quadrature weights, and the structure of
    the Jacobian: each value block of `bvp_jacobian` owns a named run of slots
    (``slots``: name -> (slice, block shape)); ``pos`` maps every slot to its
    CSC position, slots summed into one entry sharing it and structurally zero
    slots (identity and Kronecker off-diagonals, derivatives the model's code
    strings exclude) mapping to ``nnz``.  ``order`` is the fill-reducing column
    elimination order of the bordered matrix [J; e_border^T].  Arrays are
    read-only: the cache hands them to every caller.
    """

    P: np.ndarray                # local basis values at Gauss points
    D: np.ndarray                # local basis derivatives (unit interval)
    Pg: np.ndarray               # P's column for each Gauss point, (G, ncol+1)
    Dg: np.ndarray               # likewise for D
    w: np.ndarray                # phase-integral weights at the Gauss points
    slots: dict
    pos: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple
    border: int                  # canonical border column: the first active parameter
    order: np.ndarray

    @property
    def nnz(self) -> int:
        return self.indices.size

    def blocks(self, flat: np.ndarray) -> dict:
        """Views of the slot vector ``flat``, one per value block, in block shape."""
        return {name: flat[sl].reshape(shape) for name, (sl, shape) in self.slots.items()}


def _dependency_mask(model: OdeModel) -> tuple:
    """Which of the n + 2 joint variables (x, alpha) each component's code names."""
    return tuple(tuple(f"{v}[..., {j}]" in code for v, m in (("x", model.dim), ("a", 2))
                       for j in range(m)) for code in model.rhs)


@lru_cache(maxsize=8)
def _mesh_pattern(ntst: int, ncol: int, n: int, nU: int, mask: tuple) -> _MeshPattern:
    """Build the :class:`_MeshPattern` of one structural key (cached)."""
    mesh = make_mesh(ntst, ncol)
    P, D = _lagrange_matrices(ncol, mesh.gauss)
    nS, G = n - nU, ntst * ncol
    c = np.arange(G) % ncol
    nodes = (np.arange(G) - c)[:, None] + np.arange(ncol + 1)      # (G, ncol+1)
    n_orb = (G + 1) * n
    i_s0 = n_orb
    i_al = i_s0 + n
    i_yu = i_al + 2
    i_ys = i_yu + nS * nU
    i_e0 = i_ys + nS * nU
    N = i_e0 + 2
    r_sa = G * n
    r_bu = r_sa + n + 1
    r_bs = r_bu + nS
    r_ru = r_bs + nU
    r_rs = r_ru + nS * nU
    r_d = r_rs + nS * nU
    dep = np.array(mask, dtype=bool)
    ar = np.arange

    def kron_keep(k, m):
        """Structure of kron(L, I_m) - kron(I_k, R): entries with a == c or b == d."""
        eye_k, eye_m = np.eye(k, dtype=bool), np.eye(m, dtype=bool)
        return (eye_k[:, None, :, None] | eye_m[None, :, None, :]).reshape(k * m, k * m)

    # name: (rows, cols, kept), broadcast to the block's shape
    layout = {
        # Gauss point g = j*ncol + c couples to the ncol + 1 nodes of its interval
        "coll": (ar(G * n).reshape(G, 1, n, 1), (nodes * n)[:, :, None, None] + ar(n),
                 np.eye(n, dtype=bool) | dep[:, :n]),
        "coll_alpha": (ar(G * n).reshape(G, n, 1), i_al + ar(2), dep[:, n:]),
        "saddle": (r_sa + ar(n)[:, None], i_s0 + ar(n + 2), dep),
        # the end node of one interval is the start node of the next, so phase
        # contributions accumulate
        "phase": (r_sa + n, (nodes * n)[:, :, None] + ar(n), True),
        "bc_u_orbit": (r_bu + ar(nS)[:, None], ar(n), True),
        "bc_u_s0": (r_bu + ar(nS)[:, None], i_s0 + ar(n), True),
        "bc_u_y": (r_bu + ar(nS)[:, None], i_yu + ar(nS)[:, None] * nU + ar(nU), True),
        "bc_s_orbit": (r_bs + ar(nU)[:, None], n_orb - n + ar(n), True),
        "bc_s_s0": (r_bs + ar(nU)[:, None], i_s0 + ar(n), True),
        "bc_s_y": (r_bs + ar(nU)[:, None], i_ys + ar(nU)[:, None] * nS + ar(nS), True),
        "ric_u_y": (r_ru + ar(nS * nU)[:, None], i_yu + ar(nS * nU), kron_keep(nS, nU)),
        "ric_s_y": (r_rs + ar(nU * nS)[:, None], i_ys + ar(nU * nS), kron_keep(nU, nS)),
        "ric_u_p": (r_ru + ar(nS * nU)[:, None], i_s0 + ar(n + 2), True),
        "ric_s_p": (r_rs + ar(nU * nS)[:, None], i_s0 + ar(n + 2), True),
        "dist_orbit": (r_d + ar(2)[:, None], np.array([[0], [n_orb - n]]) + ar(n), True),
        "dist_s0": (r_d + ar(2)[:, None], i_s0 + ar(n), True),
        "dist_eps": (r_d + ar(2), i_e0 + ar(2), True),
    }
    slots, rows, cols, kept, start = {}, [], [], [], 0
    for name, parts in layout.items():
        r, col, k = np.broadcast_arrays(*parts)
        slots[name] = (slice(start, start + r.size), r.shape)
        start += r.size
        rows.append(r.ravel())
        cols.append(col.ravel())
        kept.append(k.ravel())
    rows, cols, kept = map(np.concatenate, (rows, cols, kept))
    # unique (col, row) pairs in CSC order; repeated slots share one position
    entries, where = np.unique(cols[kept] * (N - 1) + rows[kept], return_inverse=True)
    pos = np.full(rows.size, entries.size)
    pos[kept] = where
    indices = (entries % (N - 1)).astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(entries // (N - 1), minlength=N))])

    # MMD column order of [J; e_border^T], found by factoring the structure with
    # fixed pseudo-random values: it depends on the structure alone, so it is
    # the same whichever system first fills the cache.  Pivoting does not
    # change it; preferring diagonal pivots keeps this factorization cheap.
    b_indices = np.insert(indices, indptr[i_al + 1], N - 1)
    b_indptr = indptr + (ar(N + 1) > i_al)
    values = np.random.default_rng(0).uniform(1.0, 2.0, b_indices.size)
    canonical = scipy.sparse.csc_matrix((values, b_indices, b_indptr), shape=(N, N))
    perm_c = scipy.sparse.linalg.splu(canonical, permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0.0).perm_c

    arrays = dict(P=P, D=D, Pg=P.T[c], Dg=D.T[c], w=np.tile(mesh.gauss_weights, ntst) / ntst,
                  pos=pos, indices=indices, indptr=indptr.astype(np.int32),
                  order=np.argsort(perm_c))
    for a in arrays.values():
        a.flags.writeable = False
    return _MeshPattern(slots=slots, shape=(N - 1, N), border=i_al, **arrays)


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
    xt_gauss: np.ndarray         # reference orbit at collocation points
    xt_dot_gauss: np.ndarray     # its scaled-time derivative there
    pattern: _MeshPattern = field(repr=False)

    @property
    def P(self) -> np.ndarray:
        return self.pattern.P

    @property
    def D(self) -> np.ndarray:
        return self.pattern.D

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
    ntst, ncol = mesh.ntst, mesh.ncol
    pattern = _mesh_pattern(ntst, ncol, n, nU, _dependency_mask(model))
    return HomBvp(model=model, mesh=mesh, T=float(T), x_tilde=np.array(x_tilde),
                  QU=ZU[:, :nU], QUperp=ZU[:, nU:], QS=ZS[:, :nS],
                  QSperp=ZS[:, nS:], n_unstable=nU, n_stable=nS,
                  xt_gauss=_at_gauss(pattern.P, x_tilde, ntst, ncol),
                  xt_dot_gauss=_at_gauss(pattern.D, x_tilde, ntst, ncol) * ntst,
                  pattern=pattern)


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

    phase = float(np.sum(bvp.pattern.w[:, None] * bvp.xt_dot_gauss * (xg - bvp.xt_gauss)))

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
    """Jacobian of `bvp_residual` at z as a sparse (N-1) x N CSC matrix.

    Only the values are computed here: the structure comes from the system's
    cached :class:`_MeshPattern`, whose read-only index arrays J shares.
    """
    orbit, s0, alpha, YU, YS, eps0, eps1 = _unpack(bvp, z)
    model, pat, ntst, n = bvp.model, bvp.pattern, bvp.mesh.ntst, bvp.n
    nU, nS = bvp.n_unstable, bvp.n_stable
    flat = np.empty(pat.pos.size)
    v = pat.blocks(flat)

    # [f_x | f_alpha] at all collocation points
    xg = _at_gauss(bvp.P, orbit, ntst, bvp.mesh.ncol)
    fxa = derivatives(model, xg, alpha)[0]
    inv2T = 1.0 / (2.0 * bvp.T)
    v["coll"][...] = ((pat.Dg * ntst * inv2T)[:, :, None, None] * np.eye(n)
                      - pat.Pg[:, :, None, None] * fxa[:, None, :, :n])
    v["coll_alpha"][...] = -fxa[:, :, n:]

    # saddle rows; T2 is the second derivative tensor at the saddle
    A_sa, T2 = derivatives(model, s0, alpha, 2)
    v["saddle"][...] = A_sa

    # phase row
    coeff = pat.w[:, None] * bvp.xt_dot_gauss
    v["phase"][...] = pat.Pg[:, :, None] * coeff[:, None, :]

    # boundary condition rows
    PU = bvp.QUperp - bvp.QU @ YU.T
    PS = bvp.QSperp - bvp.QS @ YS.T
    du0 = orbit[0] - s0
    du1 = orbit[-1] - s0
    v["bc_u_orbit"][...] = PU.T
    v["bc_u_s0"][...] = -PU.T
    v["bc_u_y"][...] = -(du0 @ bvp.QU)
    v["bc_s_orbit"][...] = PS.T
    v["bc_s_s0"][...] = -PS.T
    v["bc_s_y"][...] = -(du1 @ bvp.QS)

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

    v["ric_u_y"][...] = ric_y_block(tU, YU, nU)
    v["ric_s_y"][...] = ric_y_block(tS, YS, nS)

    # dA/dp for each (s0, alpha) coordinate p
    dA = np.moveaxis(T2[:, :n, :], -1, 0)
    dtU = QUfull.T @ dA @ QUfull
    dtS = QSfull.T @ dA @ QSfull
    # the Riccati residual is linear homogeneous in the T-blocks
    v["ric_u_p"][...] = _ricatti(dtU, YU, nU).reshape(n + 2, -1).T
    v["ric_s_p"][...] = _ricatti(dtS, YS, nS).reshape(n + 2, -1).T

    # distance rows
    du = np.stack([du0 / np.linalg.norm(du0), du1 / np.linalg.norm(du1)])
    v["dist_orbit"][...] = du
    v["dist_s0"][...] = -du
    v["dist_eps"][...] = -1.0
    data = np.bincount(pat.pos, weights=flat, minlength=pat.nnz + 1)[:-1]
    return scipy.sparse.csc_matrix((data, pat.indices, pat.indptr), shape=pat.shape)


def _unit_bordered_solver(J, k: int, order: np.ndarray):
    """Solver of [J; e_k^T] x = b, or None when splu finds that matrix singular.

    The columns are factored in ``order`` as given (NATURAL), so no ordering is
    computed per step.
    """
    m = J.shape[0]
    Jq = J[:, order]
    q = int(np.flatnonzero(order == k)[0])
    at = Jq.indptr[q + 1]            # the border row is last: append to column q
    indptr = Jq.indptr.copy()
    indptr[q + 1:] += 1
    B = scipy.sparse.csc_matrix((np.insert(Jq.data, at, 1.0), np.insert(Jq.indices, at, m),
                                 indptr), shape=(m + 1, m + 1))
    try:
        lu = scipy.sparse.linalg.splu(B, permc_spec="NATURAL")
    except RuntimeError:             # splu: the factor is exactly singular
        return None

    def solve(b):
        x = np.empty_like(b)
        x[order] = lu.solve(b)
        return x

    return solve


def _min_norm_step(J, r: np.ndarray, border, order: np.ndarray | None = None):
    """Minimum-norm solution of J step = -r, the unit kernel vector t of J, and
    the same solve for other right-hand sides.

    One sparse LU of the bordered square matrix [J; c^T], with c not orthogonal
    to the kernel of J, gives v (J v = -r, c.v = 0) and w (J w = 0, c.w = 1).
    The minimum-norm step is v without its component along t = w/|w|.

    ``border`` is c: a column index k for the unit row e_k, factored with the
    columns in the elimination ``order`` (required then), or a dense row,
    factored under a fresh MMD ordering.  When [J; e_k^T] is singular, or |t_k| = 1/|w| underflows
    (e_k is numerically orthogonal to the kernel), the normalized all-ones row
    is used instead.
    """
    N = J.shape[1]
    rhs = np.zeros((N, 2))
    rhs[:-1, 0] = -r
    rhs[-1, 1] = 1.0
    bsolve = None
    if np.ndim(border) == 0:
        bsolve = _unit_bordered_solver(J, int(border), order)
        if bsolve is not None:
            v, w = bsolve(rhs).T
            if not 0.0 < 1.0 / np.linalg.norm(w) < np.inf:
                bsolve = None
        border = np.full(N, N ** -0.5)          # the fallback row
    if bsolve is None:
        B = scipy.sparse.vstack([J, scipy.sparse.csc_matrix(border[None, :])], format="csc")
        bsolve = scipy.sparse.linalg.splu(B, permc_spec="MMD_AT_PLUS_A").solve
        v, w = bsolve(rhs).T
    t = w / np.linalg.norm(w)

    def solve(rhs):
        x = bsolve(np.append(-rhs, 0.0))
        return x - (t @ x) * t

    return v - (t @ v) * t, t, solve


def newton_correct(bvp: HomBvp, z0: np.ndarray, tol: float = 1e-10,
                   max_iter: int = 20) -> tuple[np.ndarray, int]:
    """Moore-Penrose (minimum-norm) Newton onto the solution manifold.

    Each step borders the Jacobian with a unit row e_k, as in the corrector of
    Allgower & Georg, Introduction to Numerical Continuation Methods (2003):
    any e_k not orthogonal to the kernel gives the same minimum-norm step.
    The first step takes k = the first active parameter, later ones the
    largest entry of the previous kernel vector; `_min_norm_step` falls back
    to the all-ones row when e_k fails.  The column order of the factorization
    is cached per mesh and model structure.
    The step is halved until the trial point passes the natural monotonicity
    test of Deuflhard, Newton Methods for Nonlinear Problems (2004): its
    simplified Newton correction, from the same factorization, is shorter
    than the step.  Unlike the residual norm, that test does not depend on
    how the equations are scaled.
    """
    z = np.array(z0, float)
    scale = 1.0 + float(np.max(np.abs(z0)))
    k, order = bvp.pattern.border, bvp.pattern.order
    r = bvp_residual(bvp, z)
    for it in range(1, max_iter + 1):
        rn = np.linalg.norm(r)
        if not np.isfinite(rn):
            raise NoConvergenceError("residual became non-finite")
        if rn <= tol * scale:
            return z, it - 1
        J = bvp_jacobian(bvp, z)
        try:
            step, t, solve = _min_norm_step(J, r, k, order)
        except RuntimeError as exc:      # splu: the factor is exactly singular
            raise NoConvergenceError(
                f"singular bordered Jacobian at iteration {it}: {exc}") from exc
        if not np.all(np.isfinite(step)):
            raise NoConvergenceError(f"non-finite Newton step at iteration {it}")
        k = int(np.argmax(np.abs(t)))
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
