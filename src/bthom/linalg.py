"""Generalized eigenstructure at a double zero and bordered linear solves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BthomError

__all__ = [
    "NotBTError",
    "BorderedSingularError",
    "BTData",
    "bt_eigenstructure",
    "bordered_solve_full",
]


class NotBTError(BthomError):
    """The matrix does not have a double, non-semisimple zero eigenvalue."""

    stage = "eig"


class BorderedSingularError(BthomError):
    stage = "cm"


@dataclass
class BTData:
    """Eigendata of a Bogdanov-Takens linearization.

    Right vectors satisfy A q0 = 0, A q1 = q0 with q0^T q0 = 1, q1^T q0 = 0;
    left vectors satisfy p1 A = 0, p0 A = p1 and p_i q_j = delta_ij.
    """

    x0: np.ndarray
    alpha0: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    p1: np.ndarray
    p0: np.ndarray

    def residuals(self, A: np.ndarray) -> dict[str, float]:
        nA = np.linalg.norm(A, 2)
        return {
            "Aq0": float(np.linalg.norm(A @ self.q0) / nA),
            "Aq1_q0": float(np.linalg.norm(A @ self.q1 - self.q0) / nA),
            "p1A": float(np.linalg.norm(self.p1 @ A) / nA),
            "p0A_p1": float(np.linalg.norm(self.p0 @ A - self.p1) / nA),
            "biorth": float(max(abs(self.p1 @ self.q1 - 1), abs(self.p1 @ self.q0),
                                abs(self.p0 @ self.q0 - 1), abs(self.p0 @ self.q1))),
            "q0q0": float(abs(self.q0 @ self.q0 - 1)),
            "q1q0": float(abs(self.q1 @ self.q0)),
        }


def bordered_solve_full(A, p1, q0, y):
    """Solve the bordered system [[A, p1^T], [q0^T, 0]] (x, s) = (y, 0).

    Returns (x, s).  For a consistent right-hand side s vanishes.
    """
    A = np.asarray(A, float)
    n = A.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = np.asarray(p1, float)
    M[n, :n] = np.asarray(q0, float)
    rhs = np.zeros(n + 1)
    rhs[:n] = np.asarray(y, float)
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise BorderedSingularError(f"bordered matrix is singular: {exc}") from exc
    return sol[:n], float(sol[n])


def _first_nonzero_sign(v: np.ndarray) -> float:
    thresh = 1e-12 * np.max(np.abs(v))
    for entry in v:
        if abs(entry) > thresh:
            return 1.0 if entry > 0 else -1.0
    return 1.0


def bt_eigenstructure(A: np.ndarray):
    """Right/left (generalized) eigenvectors (q0, q1, p1, p0) of a BT matrix.

    Checks that zero is a defective double eigenvalue: exactly one singular
    value of A is negligible (geometric multiplicity one), the two smallest
    singular values of A^2 are negligible with the next one clearly larger
    (algebraic multiplicity two), and no third eigenvalue sits near zero.
    """
    A = np.asarray(A, float)
    n = A.shape[0]
    U, sv, Vt = np.linalg.svd(A)
    nA = sv[0]
    if nA == 0.0:
        raise NotBTError("zero matrix")
    n_null = int(np.sum(sv < 1e-6 * nA))
    if n_null == 0:
        raise NotBTError("no zero eigenvalue (smallest singular value "
                         f"{sv[-1]:.3e} vs scale {nA:.3e})")
    if n_null == 2:
        raise NotBTError("zero eigenvalue is semisimple (kernel dimension 2), not BT")
    if n_null > 2:
        raise NotBTError(f"rank deficiency {n_null} beyond BT structure (degenerate)")

    sv2 = np.linalg.svd(A @ A, compute_uv=False)
    lam = np.sort(np.abs(np.linalg.eigvals(A)))
    if lam[1] > 1e-4 * (1.0 + nA):
        raise NotBTError("zero eigenvalue is simple "
                         f"(second-smallest eigenvalue {lam[1]:.3e})")
    if n > 2:
        if sv2[n - 3] < 50 * max(sv2[n - 2], 1e-14 * nA * nA):
            raise NotBTError("generalized kernel of dimension > 2 (degenerate)")
        if lam[2] < 50 * max(lam[1], 1e-14 * nA):
            raise NotBTError("a third eigenvalue sits near zero (not codim 2)")

    q0 = Vt[-1]
    q0 = q0 * _first_nonzero_sign(q0)
    q0 = q0 / np.linalg.norm(q0)
    p1_raw = U[:, -1]

    # A q1 = q0 with q1^T q0 = 0: bordered solve with the raw left null vector.
    q1, s = bordered_solve_full(A, p1_raw, q0, q0)
    if abs(s) > 1e-6:
        raise NotBTError(f"A q1 = q0 not solvable (s = {s:.3e}); zero eigenvalue simple?")

    denom = p1_raw @ q1
    if abs(denom) < 1e-12:
        raise NotBTError("left null vector orthogonal to q1 (degenerate structure)")
    p1 = p1_raw / denom

    p0, s0 = bordered_solve_full(A.T, q0, q1, p1)
    if abs(s0) > 1e-6 * np.linalg.norm(p1):
        raise NotBTError(f"p0 A = p1 not solvable (s = {s0:.3e})")

    # enforce p_i q_j = delta_ij exactly; the defect is at the rounding level
    # of the bordered solves but gets amplified by the norms of q1 and p0
    gram = np.array([[p1 @ q1, p1 @ q0], [p0 @ q1, p0 @ q0]])
    p1, p0 = np.linalg.solve(gram, np.vstack([p1, p0]))
    return q0, q1, p1, p0
