"""Newton correction of homoclinic predictors against the defining system.

The defining system couples orthogonal collocation of the rescaled orbit,
the saddle equation, an integral phase condition against a reference orbit,
projection boundary conditions built from Riccati-updated invariant-subspace
bases, and the two end-distance equations.  The system has one unknown more
than equations (the homoclinic branch), so corrections are minimum-norm
(Moore-Penrose) Newton steps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import BthomError
from .model import ModelError, OdeModel, derivatives, eval_rhs
from .nfcoeffs import CmExpansion
from .predictor import (HomPredictor, Mesh, NoConvergenceError, amplitude_to_eps,
                        make_mesh, sample_predictor)

__all__ = [
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


def _runs(shapes: dict) -> tuple[dict, int]:
    """Lay named blocks end to end: name -> (slice, block shape), and the total size."""
    runs, start = {}, 0
    for name, shape in shapes.items():
        runs[name] = (slice(start, start + math.prod(shape)), shape)
        start += math.prod(shape)
    return runs, start


def _views(runs: dict, flat: np.ndarray) -> dict:
    """Views of the vector ``flat``, one per named run, in the run's block shape."""
    return {name: flat[sl].reshape(shape) for name, (sl, shape) in runs.items()}


@dataclass(frozen=True, eq=False)
class _MeshPattern:
    """Everything a structural key (ntst, ncol, n, nU, the model's reads) fixes.

    The collocation tables, the phase quadrature weights, the block layout of
    the defining system and the structure of its Jacobian.  The layout is two
    tables of named runs (name -> (slice, block shape)): ``unknowns`` orders z
    (orbit, s0, alpha, YU, YS, eps) and ``equations`` orders the residual
    (coll, saddle, phase, bc_u, bc_s, ric_u, ric_s, dist).  Likewise each value
    block of `bvp_jacobian` owns a named run of slots (``slots``); ``pos``
    maps every slot to its CSC position, slots summed into one entry sharing
    it and structurally zero slots (identity and Kronecker off-diagonals,
    derivatives in variables a component does not read, see
    :attr:`OdeModel.reads`) mapping to ``nnz``.
    ``order`` is the fill-reducing column elimination order of the bordered
    matrix [J; e_border^T]; every border row is factored in it.  Arrays are
    read-only: the cache hands them to every caller.
    """

    P: np.ndarray                # local basis values at Gauss points
    D: np.ndarray                # local basis derivatives (unit interval)
    Pg: np.ndarray               # P's column for each Gauss point, (G, ncol+1)
    Dg: np.ndarray               # likewise for D
    w: np.ndarray                # phase-integral weights at the Gauss points
    unknowns: dict
    equations: dict
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


@lru_cache(maxsize=8)
def _mesh_pattern(ntst: int, ncol: int, n: int, nU: int, reads: tuple) -> _MeshPattern:
    """Build the :class:`_MeshPattern` of one structural key (cached)."""
    mesh = make_mesh(ntst, ncol)
    P, D = _lagrange_matrices(ncol, mesh.gauss)
    nS, G = n - nU, ntst * ncol
    c = np.arange(G) % ncol
    nodes = (np.arange(G) - c)[:, None] + np.arange(ncol + 1)      # (G, ncol+1)
    unknowns, N = _runs({"orbit": (G + 1, n), "s0": (n,), "alpha": (2,),
                         "YU": (nS, nU), "YS": (nU, nS), "eps": (2,)})
    equations, M = _runs({"coll": (G, n), "saddle": (n,), "phase": (), "bc_u": (nS,),
                          "bc_s": (nU,), "ric_u": (nS, nU), "ric_s": (nU, nS), "dist": (2,)})
    # column and row indices of each run, in block shape
    u, e = _views(unknowns, np.arange(N)), _views(equations, np.arange(M))
    s0_alpha = np.concatenate([u["s0"], u["alpha"]])   # the saddle jet's variables
    dep = np.array(reads, dtype=bool)

    def kron_keep(k, m):
        """Structure of kron(L, I_m) - kron(I_k, R): entries with a == c or b == d."""
        eye_k, eye_m = np.eye(k, dtype=bool), np.eye(m, dtype=bool)
        return (eye_k[:, None, :, None] | eye_m[None, :, None, :]).reshape(k * m, k * m)

    # name: (rows, cols, kept), broadcast to the block's shape
    layout = {
        # Gauss point g = j*ncol + c couples to the ncol + 1 nodes of its interval
        "coll": (e["coll"][:, None, :, None], u["orbit"][nodes][:, :, None, :],
                 np.eye(n, dtype=bool) | dep[:, :n]),
        "coll_alpha": (e["coll"][:, :, None], u["alpha"], dep[:, n:]),
        "saddle": (e["saddle"][:, None], s0_alpha, dep),
        # the end node of one interval is the start node of the next, so phase
        # contributions accumulate
        "phase": (e["phase"], u["orbit"][nodes], True),
        "bc_u_orbit": (e["bc_u"][:, None], u["orbit"][0], True),
        "bc_u_s0": (e["bc_u"][:, None], u["s0"], True),
        "bc_u_y": (e["bc_u"][:, None], u["YU"], True),
        "bc_s_orbit": (e["bc_s"][:, None], u["orbit"][-1], True),
        "bc_s_s0": (e["bc_s"][:, None], u["s0"], True),
        "bc_s_y": (e["bc_s"][:, None], u["YS"], True),
        "ric_u_y": (e["ric_u"].reshape(-1, 1), u["YU"].ravel(), kron_keep(nS, nU)),
        "ric_s_y": (e["ric_s"].reshape(-1, 1), u["YS"].ravel(), kron_keep(nU, nS)),
        "ric_u_p": (e["ric_u"].reshape(-1, 1), s0_alpha, True),
        "ric_s_p": (e["ric_s"].reshape(-1, 1), s0_alpha, True),
        "dist_orbit": (e["dist"][:, None], u["orbit"][[0, -1]], True),
        "dist_s0": (e["dist"][:, None], u["s0"], True),
        "dist_eps": (e["dist"], u["eps"], True),
    }
    parts = [np.broadcast_arrays(*p) for p in layout.values()]
    slots, _ = _runs({name: r.shape for name, (r, _, _) in zip(layout, parts)})
    rows, cols, kept = (np.concatenate([p[i].ravel() for p in parts]) for i in range(3))
    # unique (col, row) pairs in CSC order; repeated slots share one position
    entries, where = np.unique(cols[kept] * M + rows[kept], return_inverse=True)
    pos = np.full(rows.size, entries.size)
    pos[kept] = where
    indices = (entries % M).astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(entries // M, minlength=N))])

    # MMD column order of [J; e_border^T], found by factoring the structure with
    # fixed pseudo-random values: it depends on the structure alone, so it is
    # the same whichever system first fills the cache.  Pivoting does not
    # change it; preferring diagonal pivots keeps this factorization cheap.
    border = unknowns["alpha"][0].start
    b_indices = np.insert(indices, indptr[border + 1], M)
    b_indptr = indptr + (np.arange(N + 1) > border)
    values = np.random.default_rng(0).uniform(1.0, 2.0, b_indices.size)
    canonical = scipy.sparse.csc_matrix((values, b_indices, b_indptr), shape=(N, N))
    perm_c = scipy.sparse.linalg.splu(canonical, permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0.0).perm_c

    arrays = dict(P=P, D=D, Pg=P.T[c], Dg=D.T[c], w=np.tile(mesh.gauss_weights, ntst) / ntst,
                  pos=pos, indices=indices, indptr=indptr.astype(np.int32),
                  order=np.argsort(perm_c))
    for a in arrays.values():
        a.flags.writeable = False
    return _MeshPattern(unknowns=unknowns, equations=equations, slots=slots, shape=(M, N),
                        border=border, **arrays)


@dataclass
class HomBvp:
    """Discretized homoclinic defining system: frozen bases at the saddle guess
    and the reference orbit at the collocation points, for the phase condition."""

    model: OdeModel
    mesh: Mesh
    T: float
    ZU: np.ndarray               # Schur basis of the saddle Jacobian, unstable subspace first
    ZS: np.ndarray               # likewise, stable subspace first
    n_unstable: int
    n_stable: int
    xt_gauss: np.ndarray         # reference orbit at collocation points
    xt_dot_gauss: np.ndarray     # its scaled-time derivative there
    pattern: _MeshPattern = field(repr=False)
    # (bytes of (s0, alpha), read-only [J, T2][:order]) of the last saddle
    # guess whose derivatives were asked for; see `_saddle_derivatives`
    _saddle: tuple = field(init=False, default=(b"", ()), repr=False)

    @property
    def n(self) -> int:
        return self.model.dim

    def sizes(self):
        """The number of unknowns in each run ("dist": eps0, eps1) and in total."""
        sizes = {"dist" if name == "eps" else name: sl.stop - sl.start
                 for name, (sl, _) in self.pattern.unknowns.items()}
        return sizes | {"total": self.pattern.shape[1]}


def _hold(s0: np.ndarray, alpha: np.ndarray, jets: list) -> tuple:
    """The saddle holder entry of (s0, alpha): its key and the read-only jets."""
    for a in jets:
        a.flags.writeable = False
    return np.concatenate([s0, alpha]).tobytes(), jets


def _saddle_derivatives(bvp: HomBvp, s0: np.ndarray, alpha: np.ndarray,
                        order: int) -> list[np.ndarray]:
    """``derivatives(bvp.model, s0, alpha, order)``, served from the system's
    one-entry holder when it already holds that point to at least that order.

    Lower orders are the leading entries of a higher-order call, bitwise.
    """
    key, jets = bvp._saddle
    if key != np.concatenate([s0, alpha]).tobytes() or len(jets) < order:
        bvp._saddle = _hold(s0, alpha, derivatives(bvp.model, s0, alpha, order))
    return bvp._saddle[1][:order]


def build_bvp(model: OdeModel, mesh: Mesh, T: float, x_tilde: np.ndarray,
              s0: np.ndarray, alpha: np.ndarray) -> HomBvp:
    """Freeze eigenspace bases at (s0, alpha) and precompute collocation data.

    The saddle derivatives are taken to second order here, so that the
    residual and Jacobian of the first Newton step reuse them.
    """
    n = model.dim
    s0, alpha = np.asarray(s0, float), np.asarray(alpha, float)
    jets = derivatives(model, s0, alpha, 2)
    A = jets[0][:, :n]
    TU, ZU, nU = scipy.linalg.schur(A, output="real", sort="rhp")
    if nU == 0 or nU == n:
        raise NoConvergenceError(f"saddle has {nU} unstable directions; need 1..{n-1}",
                                 stage="bvp")
    TS, ZS, nS = scipy.linalg.schur(A, output="real", sort="lhp")
    if nS != n - nU:
        raise NoConvergenceError("eigenvalues too close to the imaginary axis "
                                 "to split stable/unstable subspaces", stage="bvp")
    ntst, ncol = mesh.ntst, mesh.ncol
    pattern = _mesh_pattern(ntst, ncol, n, nU, model.reads)
    bvp = HomBvp(model=model, mesh=mesh, T=float(T),
                 ZU=ZU, ZS=ZS, n_unstable=nU, n_stable=nS,
                 xt_gauss=_at_gauss(pattern.P, x_tilde, ntst, ncol),
                 xt_dot_gauss=_at_gauss(pattern.D, x_tilde, ntst, ncol) * ntst,
                 pattern=pattern)
    bvp._saddle = _hold(s0, alpha, jets)
    return bvp


def pack_unknowns(bvp: HomBvp, orbit, s0, alpha, YU=None, YS=None,
                  eps0=0.0, eps1=0.0) -> np.ndarray:
    """The unknown vector z of these blocks, YU and YS zero by default; a block
    whose shape is not its run's is a ValueError."""
    z = np.zeros(bvp.pattern.shape[1])
    blocks = dict(orbit=orbit, s0=s0, alpha=alpha, YU=YU, YS=YS, eps=(eps0, eps1))
    for name, view in _views(bvp.pattern.unknowns, z).items():
        if blocks[name] is not None:
            if np.shape(blocks[name]) != view.shape:
                raise ValueError(f"{name} has shape {np.shape(blocks[name])}, "
                                 f"expected {view.shape}")
            view[...] = blocks[name]
    return z


def _unpack(bvp: HomBvp, z: np.ndarray):
    """Views of z's blocks (orbit, s0, alpha, YU, YS, eps0, eps1); a z whose
    shape is not (number of unknowns,) is a ValueError."""
    N = bvp.pattern.shape[1]
    if np.shape(z) != (N,):
        raise ValueError(f"unknown vector has shape {np.shape(z)}, expected ({N},)")
    orbit, s0, alpha, YU, YS, eps = _views(bvp.pattern.unknowns, z).values()
    return orbit, s0, alpha, YU, YS, eps[0], eps[1]


def unpack_orbit(bvp: HomBvp, z: np.ndarray) -> np.ndarray:
    return _unpack(bvp, z)[0]


def _ricatti(t, Y, nU):
    t11, t12 = t[..., :nU, :nU], t[..., :nU, nU:]
    t21, t22 = t[..., nU:, :nU], t[..., nU:, nU:]
    return t22 @ Y - Y @ t11 + t21 - Y @ t12 @ Y


def _projections(bvp: HomBvp, YU: np.ndarray, YS: np.ndarray) -> tuple:
    """PU (n x nS), orthogonal to the unstable space that YU turns the frozen
    one into, and PS (n x nU), likewise for the stable space and YS."""
    nU, nS = bvp.n_unstable, bvp.n_stable
    return bvp.ZU[:, nU:] - bvp.ZU[:, :nU] @ YU.T, bvp.ZS[:, nS:] - bvp.ZS[:, :nS] @ YS.T


def _in_frozen_bases(bvp: HomBvp, A: np.ndarray) -> tuple:
    """A (or a stack of matrices) in the frozen Schur bases: ZU^T A ZU, ZS^T A ZS."""
    return bvp.ZU.T @ A @ bvp.ZU, bvp.ZS.T @ A @ bvp.ZS


def bvp_residual(bvp: HomBvp, z: np.ndarray) -> np.ndarray:
    orbit, s0, alpha, YU, YS, eps0, eps1 = _unpack(bvp, z)
    model, pat, ntst = bvp.model, bvp.pattern, bvp.mesh.ntst
    r = np.empty(pat.shape[0])
    e = _views(pat.equations, r)

    # collocation: dx/dsigma = 2T f(x, alpha) at Gauss points; the rows are
    # scaled by 1/(2T) so the residual is in vector-field units regardless of
    # the half-return time (the Newton step is invariant under row scaling).
    # The saddle rides along as the last row, saving a second call's fixed cost.
    xg = _at_gauss(pat.P, orbit, ntst, bvp.mesh.ncol)
    dxg = _at_gauss(pat.D, orbit, ntst, bvp.mesh.ncol) * ntst
    f = eval_rhs(model, np.vstack([xg, s0]), alpha)
    e["coll"][...] = dxg / (2.0 * bvp.T) - f[:-1]
    e["saddle"][...] = f[-1]

    e["phase"][...] = np.sum(pat.w[:, None] * bvp.xt_dot_gauss * (xg - bvp.xt_gauss))

    PU, PS = _projections(bvp, YU, YS)
    e["bc_u"][...] = PU.T @ (orbit[0] - s0)
    e["bc_s"][...] = PS.T @ (orbit[-1] - s0)

    tU, tS = _in_frozen_bases(bvp, _saddle_derivatives(bvp, s0, alpha, 1)[0][:, :bvp.n])
    e["ric_u"][...] = _ricatti(tU, YU, bvp.n_unstable)
    e["ric_s"][...] = _ricatti(tS, YS, bvp.n_stable)

    e["dist"][...] = (np.linalg.norm(orbit[0] - s0) - eps0,
                      np.linalg.norm(orbit[-1] - s0) - eps1)
    return r


def bvp_jacobian(bvp: HomBvp, z: np.ndarray) -> scipy.sparse.csc_matrix:
    """Jacobian of `bvp_residual` at z as a sparse (N-1) x N CSC matrix.

    Only the values are computed here: the structure comes from the system's
    cached :class:`_MeshPattern`, whose read-only index arrays J shares.
    """
    orbit, s0, alpha, YU, YS, eps0, eps1 = _unpack(bvp, z)
    model, pat, ntst, n = bvp.model, bvp.pattern, bvp.mesh.ntst, bvp.n
    nU, nS = bvp.n_unstable, bvp.n_stable
    flat = np.empty(pat.pos.size)
    v = _views(pat.slots, flat)

    # [f_x | f_alpha] at all collocation points
    xg = _at_gauss(pat.P, orbit, ntst, bvp.mesh.ncol)
    fxa = derivatives(model, xg, alpha)[0]
    inv2T = 1.0 / (2.0 * bvp.T)
    v["coll"][...] = ((pat.Dg * ntst * inv2T)[:, :, None, None] * np.eye(n)
                      - pat.Pg[:, :, None, None] * fxa[:, None, :, :n])
    v["coll_alpha"][...] = -fxa[:, :, n:]

    # saddle rows; T2 is the second derivative tensor at the saddle
    A_sa, T2 = _saddle_derivatives(bvp, s0, alpha, 2)
    v["saddle"][...] = A_sa

    # phase row
    coeff = pat.w[:, None] * bvp.xt_dot_gauss
    v["phase"][...] = pat.Pg[:, :, None] * coeff[:, None, :]

    # boundary condition rows
    PU, PS = _projections(bvp, YU, YS)
    du0 = orbit[0] - s0
    du1 = orbit[-1] - s0
    v["bc_u_orbit"][...] = PU.T
    v["bc_u_s0"][...] = -PU.T
    v["bc_u_y"][...] = -(du0 @ bvp.ZU[:, :nU])
    v["bc_s_orbit"][...] = PS.T
    v["bc_s_s0"][...] = -PS.T
    v["bc_s_y"][...] = -(du1 @ bvp.ZS[:, :nS])

    # Riccati rows
    tU, tS = _in_frozen_bases(bvp, A_sa[:, :n])

    def ric_y_block(t, Y, k):
        """kron(left, I_k) - kron(I, right^T), by broadcasting."""
        left = t[k:, k:] - Y @ t[:k, k:]
        right = t[:k, :k] + t[:k, k:] @ Y
        I_a, I_b = np.eye(Y.shape[0]), np.eye(k)
        return (left[:, None, :, None] * I_b[None, :, None, :]
                - I_a[:, None, :, None] * right.T[None, :, None, :]).reshape(Y.size, Y.size)

    v["ric_u_y"][...] = ric_y_block(tU, YU, nU)
    v["ric_s_y"][...] = ric_y_block(tS, YS, nS)

    # dA/dp for each (s0, alpha) coordinate p
    dtU, dtS = _in_frozen_bases(bvp, np.moveaxis(T2[:, :n, :], -1, 0))
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


def _bordered(J, c: np.ndarray, order: np.ndarray) -> scipy.sparse.csc_matrix:
    """The square matrix [J; c^T] with its columns in ``order``, built by
    appending c's nonzero entries to the columns of J[:, order]."""
    Jq, cq = J[:, order], c[order]
    nz = np.flatnonzero(cq)
    at = Jq.indptr[nz + 1]               # the border row is last in each column
    indptr = Jq.indptr + np.concatenate([[0], np.cumsum(cq != 0)])
    return scipy.sparse.csc_matrix((np.insert(Jq.data, at, cq[nz]),
                                    np.insert(Jq.indices, at, J.shape[0]), indptr),
                                   shape=(J.shape[1], J.shape[1]))


def _min_norm_step(J, r: np.ndarray, border, order: np.ndarray):
    """Minimum-norm solution of J step = -r, the unit kernel vector t of J, and
    the same solve for other right-hand sides.

    One sparse LU of the bordered square matrix [J; c^T], with c not orthogonal
    to the kernel of J, gives v (J v = -r, c.v = 0) and w (J w = 0, c.w = 1).
    The minimum-norm step is v without its component along t = w/|w|.

    ``border`` is c: a column index k for the unit row e_k, or a dense row;
    either is factored with the columns in the elimination ``order`` as given
    (NATURAL), so no ordering is computed per step.  When [J; e_k^T] is
    singular, or |t_k| = 1/|w| underflows (e_k is numerically orthogonal to
    the kernel), the normalized all-ones row is used instead.
    """
    N = J.shape[1]
    rhs = np.zeros((N, 2))
    rhs[:-1, 0], rhs[-1, 1] = -r, 1.0
    rows = ([np.eye(1, N, int(border))[0], np.full(N, N ** -0.5)] if np.ndim(border) == 0
            else [np.asarray(border, float)])          # e_k, then the fallback row

    def bsolve(b):
        x = np.empty_like(b)
        x[order] = lu.solve(b)
        return x

    for c in rows:
        try:
            lu = scipy.sparse.linalg.splu(_bordered(J, c, order), permc_spec="NATURAL")
        except RuntimeError:                # splu: the factor is exactly singular
            if c is rows[-1]:
                raise
            continue
        v, w = bsolve(rhs).T
        if c is rows[-1] or 0.0 < 1.0 / np.linalg.norm(w) < np.inf:
            break
    t = w / np.linalg.norm(w)

    def solve(rhs):
        x = bsolve(np.append(-rhs, 0.0))
        return x - (t @ x) * t

    return v - (t @ v) * t, t, solve


def newton_correct(bvp: HomBvp, z0: np.ndarray, tol: float = 1e-10,
                   max_iter: int = 20) -> tuple[np.ndarray, int]:
    """Moore-Penrose (minimum-norm) Newton onto the solution manifold.

    A full step borders a fresh Jacobian with a unit row e_k, as in the
    corrector of Allgower & Georg, Introduction to Numerical Continuation
    Methods (2003): any e_k not orthogonal to the kernel gives the same
    minimum-norm step.  The first step takes k = the first active parameter,
    later ones the largest entry of the previous kernel vector;
    `_min_norm_step` falls back to the all-ones row when e_k fails.  After an
    undamped step whose simplified correction is shorter than a quarter of
    it, that correction, from the held factorization, is a simplified step
    (Deuflhard, Newton Methods for Nonlinear Problems (2004), §2.1; the chord
    corrector of Allgower & Georg, ch. 3).

    Each iteration runs one trial loop over its candidates: the simplified
    step, if there is one, then the full step and up to 5 halvings of it.  A
    trial point that meets the stopping test ``|r| <= tol (1 + max|z0|)`` is
    returned.  One whose simplified correction is shorter than the full step,
    or than a quarter of the simplified step, is accepted: Deuflhard's natural
    monotonicity test, which unlike the residual norm does not depend on how
    the equations are scaled.  Where the model fails or the residual diverges
    it is rejected.  A rejected simplified step is followed, in the same
    iteration, by a full step from a fresh Jacobian.

    Returns the corrected unknowns and the number of steps, full and
    simplified.  ``max_iter`` bounds that number: simplified steps converge
    linearly, but no correction of the acceptance-test convergence grids or
    of the benchmark workloads takes more than 7 steps.  A residual whose
    largest entry is too large for its norm to be formed has diverged, a
    :class:`NoConvergenceError`.
    """
    z = np.array(z0, float)
    limit = tol * (1.0 + float(np.max(np.abs(z0))))
    huge = np.sqrt(np.finfo(float).max / (z.size - 1))   # |r| may overflow past it

    k, order = bvp.pattern.border, bvp.pattern.order
    r = bvp_residual(bvp, z)
    if not np.max(np.abs(r)) < huge:
        raise NoConvergenceError("residual diverged")
    if np.linalg.norm(r) <= limit:
        return z, 0
    simplified = False
    for it in range(1, max_iter + 1):
        for fresh in (False, True) if simplified else (True,):
            if fresh:
                try:
                    dz, t, solve = _min_norm_step(bvp_jacobian(bvp, z), r, k, order)
                except RuntimeError as exc:      # splu: the factor is exactly singular
                    raise NoConvergenceError(
                        f"singular bordered Jacobian at iteration {it}: {exc}") from exc
                if not np.all(np.isfinite(dz)):
                    raise NoConvergenceError(f"non-finite Newton step at iteration {it}")
                k = int(np.argmax(np.abs(t)))
                bound, damps = np.linalg.norm(dz), 0.5 ** np.arange(6)
            else:                                # the held factorization's correction
                dz, bound, damps = bar, 0.25 * np.linalg.norm(bar), (1.0,)
            for damp in damps:
                z_new = z + damp * dz
                try:
                    r_new = bvp_residual(bvp, z_new)
                except ModelError:               # rejected, like a diverged residual
                    continue
                if not np.max(np.abs(r_new)) < huge:
                    continue
                if np.linalg.norm(r_new) <= limit:
                    return z_new, it
                bar = solve(r_new)               # the simplified correction at z_new
                if np.linalg.norm(bar) < bound:
                    break
            else:
                continue
            break
        else:
            raise NoConvergenceError(
                f"no descent after damping (residual {np.linalg.norm(r):.3e})")
        z, r = z_new, r_new
        simplified = damp == 1.0 and np.linalg.norm(bar) < 0.25 * np.linalg.norm(dz)
    raise NoConvergenceError(f"Newton stalled at residual {np.linalg.norm(r):.3e}")


def correct_predictor(model: OdeModel, pred: HomPredictor,
                      tol: float = 1e-10) -> tuple[HomBvp, np.ndarray, int]:
    """Build the defining system around a predictor and Newton-correct it.

    A model evaluation that fails (the predictor left the model's domain) is a
    :class:`NoConvergenceError` of its stage, bvp or newton, so callers can retry.
    """
    stage = "bvp"
    try:
        bvp = build_bvp(model, pred.mesh, pred.T, pred.orbit, pred.s0, pred.alpha)
        z0 = pack_unknowns(bvp, pred.orbit, pred.s0, pred.alpha,
                           eps0=pred.eps0, eps1=pred.eps1)
        stage = "newton"
        z, iters = newton_correct(bvp, z0, tol=tol)
    except ModelError as exc:
        raise NoConvergenceError(str(exc), stage=stage) from exc
    return bvp, z, iters


def correct_with_retries(model: OdeModel, expansion: CmExpansion, method,
                         mesh: Mesh | None = None, eps: float = 0.1,
                         k_factor: float = 1e-4, max_tries: int = 8,
                         tol: float = 1e-10):
    """Automatic perturbation-parameter policy: halve eps until Newton converges.

    Starts at eps = 0.1 with end distance k = eps * 1e-4 and retries up to
    ``max_tries`` times, halving eps also when the predictor at eps is unusable.
    A k outside (0, A0) is a ValueError.  Returns (predictor, bvp, corrected z,
    iterations); the NoConvergenceError after the last try has the stage of the
    last failure.
    """
    if mesh is None:
        mesh = make_mesh()
    last_exc = None
    for _ in range(max_tries):
        try:
            pred = sample_predictor(expansion, method, eps, mesh, k=eps * k_factor)
            bvp, z, iters = correct_predictor(model, pred, tol=tol)
            return pred, bvp, z, iters
        except BthomError as exc:     # predictor, bvp or newton
            last_exc = exc
            eps *= 0.5
    raise NoConvergenceError(
        f"no convergence after {max_tries} eps-halvings: {last_exc}",
        stage=getattr(last_exc, "stage", ""))


@dataclass
class ConvergenceRecord:
    """One cell of a convergence study.  ``iterations`` counts the Newton
    steps, full and simplified (see :func:`newton_correct`)."""

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


def convergence_study(model: OdeModel, expansion: CmExpansion, methods,
                      orders, amplitudes, mesh: Mesh | None = None,
                      k_factor: float = 1e-4, tol: float = 1e-12) -> list[ConvergenceRecord]:
    """delta(X) between predicted and corrected orbits over a method/order/A0 grid.

    A cell whose predictor or correction fails with a BthomError is recorded
    with delta = nan and converged = False rather than raised.  A study none of
    whose cells has a usable predictor measured nothing; it raises the first
    cell's error.
    """
    if mesh is None:
        mesh = make_mesh()
    records, unusable = [], []
    for spec in methods:
        for order in orders:
            m = dataclasses.replace(spec, order=order)
            for A0 in amplitudes:
                eps = amplitude_to_eps(A0, expansion.a, expansion.b, expansion.variant)
                delta, iters, ok, pred = float("nan"), 0, False, None
                try:
                    pred = sample_predictor(expansion, m, eps, mesh, k=eps * k_factor)
                    bvp, z, iters = correct_predictor(model, pred, tol=tol)
                    corr = unpack_orbit(bvp, z)
                    delta = float(np.linalg.norm(pred.orbit - corr)
                                  / np.linalg.norm(corr))
                    ok = True
                except BthomError as exc:
                    if pred is None:
                        unusable.append(exc)
                records.append(ConvergenceRecord(
                    model=model.name, method=m.label,
                    variant=expansion.variant.value, order=order,
                    amplitude=float(A0), eps=float(eps), delta=delta,
                    iterations=iters, converged=ok))
    if records and len(unusable) == len(records):
        raise unusable[0]
    return records
