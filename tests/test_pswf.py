"""Tests for the order-zero prolate basis: construction, evaluation,
bandwidth solving, cumulative integral, and window tabulation."""

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from scipy.integrate import quad

from prolate_ewald.pswf import (DomainError, PswfError, build_pswf,
                                eval_phi0, solve_bandwidth, tabulate_window)
from conftest import basis_for


def quadrature_eigensolve(c, n_nodes=400):
    """Independent oracle: dominant eigenpair of the finite Fourier operator
    lambda psi(x) = int_{-1}^{1} psi(t) exp(i c x t) dt on Gauss-Legendre
    nodes.  Returns (lambda0, psi0 evaluator by barycentric resampling)."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    kernel_matrix = np.exp(1j * c * np.outer(nodes, nodes)) * weights[None, :]
    evals, evecs = np.linalg.eig(kernel_matrix)
    top = np.argmax(np.abs(evals))
    lam = evals[top]
    v = evecs[:, top]
    # Normalize to unit L2 and fix the sign at the origin.
    v = v / np.sqrt(np.sum(weights * np.abs(v) ** 2))
    mid = np.argmin(np.abs(nodes))
    v = v * np.sign(v[mid].real)
    assert np.max(np.abs(v.imag)) < 1e-9
    v = v.real

    def evaluate(x):
        # lambda psi(x) = int psi(t) e^{icxt} dt, evaluated by quadrature.
        val = np.sum(weights * v * np.exp(1j * c * x * nodes))
        return (val / lam).real

    return lam.real, evaluate


class TestBuildPswf:
    def test_even_parity(self, basis_c10):
        xs = np.linspace(0.0, 1.0, 37)
        left = basis_c10.psi_series(-xs)
        right = basis_c10.psi_series(xs)
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-13)

    def test_lambda0_identity(self, basis_c10):
        b = basis_c10
        assert abs(b.lambda0 - 2.0 * b.C0 / b.psi0_at_zero) <= 1e-11 * b.lambda0

    def test_unit_l2_norm(self, basis_c10):
        nodes, weights = np.polynomial.legendre.leggauss(200)
        vals = basis_c10.psi_series(nodes)
        norm = np.sum(weights * vals**2)
        assert abs(norm - 1.0) < 1e-12

    def test_positive_and_decreasing_on_unit_interval(self, basis_c10):
        xs = np.linspace(0.0, 1.0, 500)
        vals = basis_c10.psi_series(xs)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_against_quadrature_eigensolve(self, basis_c10):
        lam, psi = quadrature_eigensolve(10.0)
        assert abs(lam - basis_c10.lambda0) <= 1e-10 * abs(lam)
        ref = psi(0.5)
        val = basis_c10.psi_series(0.5)
        assert abs(val - ref) <= 1e-10 * abs(ref)

    def test_eigen_relation_by_quadrature(self, basis_c10):
        # lambda0 psi(x) = int_{-1}^1 psi(t) exp(i c x t) dt at 20 points.
        b = basis_c10
        nodes, weights = np.polynomial.legendre.leggauss(300)
        psi_t = b.psi_series(nodes)
        for x in np.linspace(-1.0, 1.0, 20):
            integral = np.sum(weights * psi_t * np.exp(1j * b.c * x * nodes))
            assert abs(integral.imag) < 1e-12
            assert abs(integral.real - b.lambda0 * b.psi_series(x)) < 1e-9

    def test_derivative_relation_by_quadrature(self, basis_c10):
        # lambda0 psi'(x) = -c int psi(t) t sin(c x t) dt (odd part only).
        b = basis_c10
        nodes, weights = np.polynomial.legendre.leggauss(300)
        psi_t = b.psi_series(nodes)
        for x in np.linspace(-0.9, 0.9, 10):
            integral = -b.c * np.sum(weights * psi_t * nodes
                                     * np.sin(b.c * x * nodes))
            assert abs(integral - b.lambda0 * b.psi_series(x, derivative=1)) < 1e-9

    def test_bandwidth_out_of_range(self):
        with pytest.raises(PswfError):
            build_pswf(0.2)
        with pytest.raises(PswfError):
            build_pswf(120.0)


class TestEvalPsi0:
    """Point evaluation of psi_0^c and its derivative via psi_series."""

    def test_derivative_zero_at_origin(self, basis_c10):
        assert basis_c10.psi_series(0.0, derivative=1) == pytest.approx(0.0, abs=1e-13)

    def test_endpoint_matches_legendre_expansion(self, basis_c10):
        direct = npleg.legval(1.0, basis_c10.legendre_coeffs)
        assert abs(basis_c10.psi_series(1.0) - direct) <= 1e-12

    def test_derivative_matches_finite_difference(self, basis_c10):
        step = 1e-5
        for x in np.linspace(-0.9, 0.9, 15):
            fd = (basis_c10.psi_series(x + step)
                  - basis_c10.psi_series(x - step)) / (2 * step)
            assert abs(basis_c10.psi_series(x, derivative=1) - fd) < 1e-8

    @pytest.mark.parametrize("c", [0.5, 4.26, 12.02, 16.89, 21.69, 31.18,
                                   35.89, 80.0])
    def test_psi_and_slope_matches_series(self, c):
        # The half-degree table in u = 2x^2 - 1 holds the same polynomials
        # as the Legendre expansion, so only roundoff separates them.
        basis = basis_for(c=c)
        x = np.linspace(0.0, 1.0, 503)
        psi, slope = basis.psi_and_slope(x)
        scale = basis.psi0_at_zero
        assert np.max(np.abs(psi - basis.psi_series(x))) <= 1e-13 * scale
        assert np.max(np.abs(slope - x * basis.psi_series(x, derivative=1))) \
            <= 1e-13 * scale
        # Both are even in x.
        np.testing.assert_array_equal(basis.psi_and_slope(-x)[0], psi)


class TestSolveBandwidth:
    def test_round_trip(self):
        b = basis_for(c=16.0)
        delta = b.psi_series(1.0)
        assert solve_bandwidth(delta) == pytest.approx(16.0, rel=1e-6)

    def test_monotone_and_log_scaling(self):
        deltas = np.logspace(-2, -12, 11)
        cs = [solve_bandwidth(d) for d in deltas]
        assert np.all(np.diff(cs) > 0.0)
        for d, c in zip(deltas, cs):
            if d <= 1e-4:
                assert 0.5 <= c / np.log(1.0 / d) <= 2.0

    def test_against_bisection_oracle(self):
        delta = 1e-8
        lo, hi = 0.5, 80.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            val = build_pswf(mid).psi_series(1.0)
            if val > delta:
                lo = mid
            else:
                hi = mid
        assert solve_bandwidth(delta) == pytest.approx(0.5 * (lo + hi), rel=1e-6)

    def test_out_of_range(self):
        with pytest.raises(PswfError):
            solve_bandwidth(0.5)
        with pytest.raises(PswfError):
            solve_bandwidth(1e-15)


class TestEvalPhi0:
    def test_zero_at_origin(self, basis_c12):
        assert eval_phi0(basis_c12, 0.0, 0.9) == 0.0

    def test_one_at_cutoff(self, basis_c12):
        assert eval_phi0(basis_c12, 0.9, 0.9) == pytest.approx(1.0, abs=1e-12)
        assert eval_phi0(basis_c12, 1.7, 0.9) == 1.0

    def test_matches_adaptive_quadrature(self, basis_c12):
        b = basis_c12
        ref, err = quad(lambda t: b.psi_series(t) / b.C0, 0.0, 0.5,
                        epsabs=1e-13, epsrel=1e-13)
        assert abs(eval_phi0(b, 0.45, 0.9) - ref) <= 1e-11

    def test_monotone(self, basis_c12):
        rs = np.linspace(0.0, 1.2, 300)
        vals = eval_phi0(basis_c12, rs, 0.9)
        assert np.all(np.diff(vals) >= 0.0)

    def test_domain_errors(self, basis_c12):
        with pytest.raises(DomainError):
            eval_phi0(basis_c12, -0.1, 0.9)


def window_at(w, t, derivative=0):
    """W(t) (or dW/dt) read from the per-node table: t = P/2 - 1 - j + f."""
    a = np.atleast_1d(np.asarray(t, dtype=float)) - w.P / 2.0
    f = a - np.floor(a)
    j = (-1 - np.floor(a)).astype(int)
    return np.take_along_axis(w(f, derivative), j[:, None], axis=1)[:, 0]


class TestTabulateWindow:
    def test_center_value(self, basis_c10):
        w = tabulate_window(basis_c10, 5)
        assert window_at(w, 0.0)[0] == pytest.approx(basis_c10.psi_series(0.0),
                                                      abs=1e-13)

    def test_matches_rescaled_psi(self, basis_c10):
        w = tabulate_window(basis_c10, 7)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-3.5, 3.5, 10_000)
        ref = basis_c10.psi_series(2.0 * xs / 7.0)
        assert np.max(np.abs(window_at(w, xs) - ref)) <= 1e-12

    def test_derivative_chain_rule(self, basis_c10):
        w = tabulate_window(basis_c10, 6)
        xs = np.linspace(-2.9, 2.9, 41)
        ref = basis_c10.psi_series(2.0 * xs / 6.0, derivative=1) * (2.0 / 6.0)
        assert np.max(np.abs(window_at(w, xs, derivative=1) - ref)) <= 1e-11

    @pytest.mark.parametrize("c", [0.5, 4.26, 12.02, 16.89, 21.69, 31.18,
                                   35.89, 80.0])
    def test_every_order_matches_series(self, c):
        # Bandwidths of delta 1e-2 to 1e-14 and both ends of the allowed
        # range; small P at small delta (P = 2 at c >= 12.02, P = 3 at
        # c >= 21.69, P = 4 at c >= 31.18) is where the window changes
        # fastest across one unit piece.
        basis = basis_for(c=c)
        rng = np.random.default_rng(11)
        f = np.concatenate([[0.0, 0.5, np.nextafter(1.0, 0.0)],
                            rng.uniform(0.0, 1.0, 500)])
        scale = basis.psi0_at_zero
        for P in range(2, 17):
            w = tabulate_window(basis, P)
            x = 2.0 * (P / 2.0 - 1.0 - np.arange(P) + f[:, None]) / P
            value = np.max(np.abs(w(f) - basis.psi_series(x)))
            deriv = np.max(np.abs(w(f, derivative=1)
                                  - basis.psi_series(x, derivative=1) * 2.0 / P))
            assert value <= 1e-12 * scale, (P, value)
            assert deriv <= 1e-11 * scale, (P, deriv)

    def test_order_error(self, basis_c10):
        for P in (0, 1):
            with pytest.raises(PswfError):
                tabulate_window(basis_c10, P)
