import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bthom.linalg import (BTData, BorderedSingularError, NotBTError,
                          bordered_solve_full, bt_eigenstructure)

JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]])


class TestEigenstructure:
    def test_jordan_block(self):
        q0, q1, p1, p0 = bt_eigenstructure(JORDAN)
        assert np.allclose(q0, [1, 0], atol=1e-14)
        assert np.allclose(q1, [0, 1], atol=1e-14)
        assert np.allclose(p1, [0, 1], atol=1e-14)
        assert np.allclose(p0, [1, 0], atol=1e-14)

    def test_scaled_jordan_block(self):
        q0, q1, p1, p0 = bt_eigenstructure(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert np.allclose(q0, [1, 0], atol=1e-14)
        assert np.allclose(q1, [0, 0.5], atol=1e-14)
        assert np.allclose(p1, [0, 2.0], atol=1e-14)
        assert np.allclose(p0, [1, 0], atol=1e-14)

    def test_hodgkin_huxley_jacobian(self, hh_orbital):
        oracle, ex = hh_orbital
        A = oracle.A
        q0, q1, p1, p0 = bt_eigenstructure(A)
        data = BTData(x0=oracle.x0, alpha0=oracle.alpha0, q0=q0, q1=q1, p1=p1, p0=p0)
        res = data.residuals(A)
        assert res["Aq0"] <= 1e-8
        assert res["Aq1_q0"] <= 1e-8
        assert res["p1A"] <= 1e-8
        assert res["p0A_p1"] <= 1e-8
        assert res["biorth"] <= 1e-10
        assert res["q0q0"] <= 1e-12
        assert res["q1q0"] <= 1e-12

    def test_first_nonzero_entry_of_q0_positive(self, hh_orbital):
        oracle, _ = hh_orbital
        q0, *_ = bt_eigenstructure(oracle.A)
        nz = q0[np.abs(q0) > 1e-12 * np.max(np.abs(q0))]
        assert nz[0] > 0

    def test_rejects_nonsingular_matrix(self):
        with pytest.raises(NotBTError, match="no zero eigenvalue"):
            bt_eigenstructure(np.array([[1.0, 0.0], [0.0, -2.0]]))

    def test_rejects_semisimple_double_zero(self):
        with pytest.raises(NotBTError, match="semisimple"):
            bt_eigenstructure(np.diag([0.0, 0.0, -1.0]))

    def test_rejects_simple_zero(self):
        with pytest.raises(NotBTError, match="simple"):
            bt_eigenstructure(np.diag([0.0, 1.0, -1.0]))

    def test_rejects_rank_deficiency_beyond_two(self):
        with pytest.raises(NotBTError):
            bt_eigenstructure(np.zeros((3, 3)))

    def test_rejects_triple_degeneracy(self):
        A = np.zeros((3, 3))
        A[0, 1] = 1.0
        A[1, 2] = 1.0  # single 3x3 Jordan block
        with pytest.raises(NotBTError):
            bt_eigenstructure(A)


class TestBorderedSolve:
    def test_zero_rhs(self):
        x, s = bordered_solve_full(JORDAN, [0, 1], [1, 0], [0, 0])
        assert np.allclose(x, 0.0) and s == 0.0

    def test_hand_solved_system(self):
        # [[0,1,0],[0,0,1],[1,0,0]] (x, s) = (1, 0, 0) gives x = (0, 1), s = 0
        x, s = bordered_solve_full(JORDAN, [0, 1], [1, 0], [1, 0])
        assert np.allclose(x, [0, 1], atol=1e-14) and abs(s) <= 1e-14

    def test_singular_bordered_matrix(self):
        with pytest.raises(BorderedSingularError):
            bordered_solve_full(JORDAN, [1, 0], [1, 0], [1, 0])

    def test_round_trip(self, hh_orbital):
        oracle, ex = hh_orbital
        A, q0, p1 = oracle.A, ex.eig.q0, ex.eig.p1
        rng = np.random.default_rng(0)
        y = rng.standard_normal(4)
        y -= p1 * (p1 @ y) / (p1 @ p1)  # make consistent
        x, s = bordered_solve_full(A, p1, q0, y)
        assert np.linalg.norm(A @ x + s * p1 - y) <= 1e-10 * np.linalg.norm(y)
        assert abs(q0 @ x) <= 1e-10 * np.linalg.norm(x)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_linearity(self, seed, hh_orbital):
        oracle, ex = hh_orbital
        A, q0, p1 = oracle.A, ex.eig.q0, ex.eig.p1
        rng = np.random.default_rng(seed)
        y1, y2 = rng.standard_normal((2, 4))
        y1 -= p1 * (p1 @ y1) / (p1 @ p1)
        y2 -= p1 * (p1 @ y2) / (p1 @ p1)
        lhs = bordered_solve_full(A, p1, q0, y1 + y2)[0]
        rhs = bordered_solve_full(A, p1, q0, y1)[0] + bordered_solve_full(A, p1, q0, y2)[0]
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))
