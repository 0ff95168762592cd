"""Order-zero prolate spheroidal wave function: construction and evaluation.

The order-zero prolate psi_0^c on [-1, 1] is computed by expanding in
normalized Legendre polynomials and solving the symmetric tridiagonal
eigenproblem of the commuting differential operator

    L = d/dx (1 - x^2) d/dx - c^2 x^2,

whose eigenfunctions coincide with those of the finite Fourier integral
operator.  Even and odd Legendre orders decouple; the order-zero function
lives in the even block and corresponds to the smallest differential
eigenvalue.  psi_0^c and its derivative are evaluated straight from the
expansion.  The mode kernels need psi_0^c and x psi_0^c' together at many
arguments; both are even, so a Legendre expansion of degree 2m is a
polynomial of degree m in u = 2x^2 - 1, and PswfBasis.psi_and_slope reads
the pair from one Chebyshev table of m + 1 terms in u.  The rescaled
spreading window, which the mesh evaluates P times per particle and axis,
is served by a WindowTable: one Chebyshev column per stencil node in the
particle's fractional offset, so all P values of a particle come from its
row of a Chebyshev-Vandermonde matrix times the table, with no search and
no branch on the argument.  The matrix has one row per offset it is given;
the mesh passes the offsets one block at a time (mesh._window_factors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

BANDWIDTH_MIN = 0.5
BANDWIDTH_MAX = 80.0
DELTA_MIN, DELTA_MAX = 1e-14, 1e-1    # the tolerances solve_bandwidth accepts


class PswfError(Exception):
    """Construction or evaluation failure in the prolate machinery."""


class DomainError(PswfError):
    """Argument outside the domain of the requested evaluation."""


def _legendre_coefficients(c: float) -> np.ndarray:
    """Expansion coefficients of psi_0^c over (unnormalized-index) Legendre basis.

    Returns the full coefficient vector ``coef`` such that
    psi_0^c(x) = legval(x, coef); odd entries are zero by parity.
    Normalized so that the L2[-1,1] norm is 1 and psi_0^c(0) > 0.
    """
    # Matrix elements of L in the *normalized* Legendre basis restricted to
    # even orders k = 0, 2, 4, ...
    n_even = max(int(np.ceil(c)) + 16, 40)
    for _ in range(8):
        k = 2.0 * np.arange(n_even)
        diag = k * (k + 1.0) + c * c * (2.0 * k * (k + 1.0) - 1.0) / (
            (2.0 * k + 3.0) * (2.0 * k - 1.0)
        )
        kk = k[:-1]
        offdiag = (
            c * c * (kk + 2.0) * (kk + 1.0)
            / ((2.0 * kk + 3.0) * np.sqrt((2.0 * kk + 1.0) * (2.0 * kk + 5.0)))
        )
        try:
            _, vec = eigh_tridiagonal(diag, offdiag, select="i", select_range=(0, 0))
        except Exception as exc:  # pragma: no cover - LAPACK failure
            raise PswfError(f"prolate eigensolve failed for c={c}: {exc}") from exc
        beta = vec[:, 0]
        # Expansion must have decayed to roundoff at the tail.
        tail = np.max(np.abs(beta[-4:])) / np.max(np.abs(beta))
        if tail < 1e-16:
            break
        n_even *= 2
    else:
        raise PswfError(f"prolate expansion did not converge for c={c}")

    coef = np.zeros(2 * n_even - 1)
    coef[:: 2] = beta * np.sqrt((2.0 * k + 1.0) / 2.0)
    # Trim negligible trailing terms.
    scale = np.max(np.abs(coef))
    nz = np.nonzero(np.abs(coef) > 1e-17 * scale)[0]
    coef = coef[: nz[-1] + 1]
    if npleg.legval(0.0, coef) < 0.0:
        coef = -coef
    return coef


@dataclass(frozen=True)
class PswfBasis:
    """Constructed order-zero prolate for one bandwidth.

    Fields mirror the quantities needed downstream: the Legendre expansion,
    the integral-operator eigenvalue lambda0, psi_0^c(0), and
    C0 = int_0^1 psi_0^c.
    """

    c: float
    legendre_coeffs: np.ndarray
    lambda0: float
    psi0_at_zero: float
    C0: float
    _cumint_coeffs: np.ndarray  # Legendre coefficients of int_0^x psi_0^c
    _mode_table: np.ndarray     # (m + 1, 2) Chebyshev columns in u = 2x^2 - 1

    def psi_series(self, x, derivative: int = 0):
        """Spectrally exact evaluation straight from the Legendre expansion."""
        coef = self.legendre_coeffs
        if derivative:
            coef = npleg.legder(coef, derivative)
        return npleg.legval(np.asarray(x, dtype=float), coef)

    def psi_and_slope(self, x):
        """psi_0^c(x) and x psi_0^c'(x) for |x| <= 1, from one table product.

        Agrees with psi_series to roundoff: both are the same polynomials,
        rewritten in u = 2x^2 - 1.
        """
        x = np.asarray(x, dtype=float)
        vander = np.polynomial.chebyshev.chebvander(2.0 * x * x - 1.0,
                                                    len(self._mode_table) - 1)
        out = vander @ self._mode_table
        return out[..., 0], out[..., 1]

    def cumulative(self, x):
        """int_0^x psi_0^c(t) dt, exact from the expansion."""
        return npleg.legval(np.asarray(x, dtype=float), self._cumint_coeffs)


def build_pswf(c: float) -> PswfBasis:
    """Construct the order-zero prolate basis for bandwidth ``c``."""
    if not (BANDWIDTH_MIN <= c <= BANDWIDTH_MAX):
        raise PswfError(f"bandwidth c={c} outside [{BANDWIDTH_MIN}, {BANDWIDTH_MAX}]")

    coef = _legendre_coefficients(c)
    psi0_0 = float(npleg.legval(0.0, coef))

    # C0 by 64-node Gauss-Legendre on [0, 1]; the integrand is entire.
    nodes, weights = np.polynomial.legendre.leggauss(64)
    x01 = 0.5 * (nodes + 1.0)
    C0 = float(0.5 * np.sum(weights * npleg.legval(x01, coef)))
    lambda0 = 2.0 * C0 / psi0_0

    # psi_0^c and x psi_0^c' are even of degree 2m: interpolating them in
    # u = 2x^2 - 1 at m + 1 Chebyshev points is exact.
    m = (len(coef) - 1) // 2
    cheb = np.polynomial.chebyshev
    u = cheb.chebpts1(m + 1)
    x = np.sqrt(0.5 * (u + 1.0))
    pairs = np.stack([npleg.legval(x, coef),
                      x * npleg.legval(x, npleg.legder(coef))], axis=1)

    return PswfBasis(
        c=float(c),
        legendre_coeffs=coef,
        lambda0=lambda0,
        psi0_at_zero=psi0_0,
        C0=C0,
        _cumint_coeffs=npleg.legint(coef, lbnd=0.0),
        _mode_table=cheb.chebfit(u, pairs, m),
    )


def eval_phi0(basis: PswfBasis, r, r_c: float):
    """Normalized cumulative integral phi_0^c(r) = (1/C0) int_0^{r/r_c} psi_0^c.

    Returns 1 for r >= r_c; monotone nondecreasing.  r_c > 0 is the
    caller's to keep (SplitKernel checks it).
    """
    ra = np.asarray(r, dtype=float)
    if np.any(ra < 0.0):
        raise DomainError("radius must be nonnegative")
    x = np.minimum(ra / r_c, 1.0)
    out = basis.cumulative(x) / basis.C0
    out = np.where(ra >= r_c, 1.0, out)
    return out if out.ndim else float(out)


def _psi_at_one(c: float) -> float:
    coef = _legendre_coefficients(c)
    return float(npleg.legval(1.0, coef))


def solve_bandwidth(delta: float) -> float:
    """Bandwidth c with psi_0^c(1) = delta; strictly decreasing in delta."""
    if not (DELTA_MIN <= delta <= DELTA_MAX):
        raise PswfError(f"delta={delta} outside [{DELTA_MIN}, {DELTA_MAX}]")
    f = lambda c: np.log(max(_psi_at_one(c), 1e-290)) - np.log(delta)
    return float(brentq(f, BANDWIDTH_MIN, BANDWIDTH_MAX, xtol=1e-9, rtol=1e-10))


@dataclass(frozen=True)
class WindowTable:
    """Spreading window W(t) = psi_0^c(2t/P), t in grid units, per stencil node.

    Node j = 0, ..., P-1 of a particle's stencil sits at t_j = P/2 - 1 - j + f
    from it, where f in [0, 1) is the particle's fractional offset (see
    mesh._window_weights), so node j always falls on the same unit piece of
    the window.  Column j of ``value`` (``deriv``) holds the Chebyshev
    coefficients, in s = 2f - 1, of W(t_j) (dW/dt at t_j).
    """

    P: int
    basis: PswfBasis
    value: np.ndarray
    deriv: np.ndarray

    def __call__(self, f, derivative: int = 0) -> np.ndarray:
        """W (or dW/dt) at the P nodes of offsets ``f``; shape f.shape + (P,)."""
        coef = self.deriv if derivative else self.value
        f = np.asarray(f, dtype=float)
        vander = np.polynomial.chebyshev.chebvander(2.0 * f.ravel() - 1.0,
                                                    len(coef) - 1)
        return (vander @ coef).reshape(f.shape + (self.P,))


def tabulate_window(basis: PswfBasis, P: int) -> WindowTable:
    """Chebyshev columns of the P-point spreading window and its derivative.

    On one unit piece the window spans 2/P of psi_0^c, a function of
    bandwidth c; ceil(c/P) + 16 terms keep both columns within 5e-14 of
    the series, relative to psi_0^c(0), for c in [0.5, 80] and P in [2, 16].
    """
    if P < 2:
        raise PswfError(f"spreading order P={P} must be >= 2")
    cheb = np.polynomial.chebyshev
    degree = int(np.ceil(basis.c / P)) + 15
    s = cheb.chebpts1(degree + 1)
    # 2 t_j / P at f = (s + 1) / 2, one column per node j.
    x = (P - 1.0 - 2.0 * np.arange(P) + s[:, None]) / P
    value = cheb.chebfit(s, basis.psi_series(x), degree)
    deriv = cheb.chebfit(s, basis.psi_series(x, derivative=1) * (2.0 / P), degree)
    return WindowTable(P=int(P), basis=basis, value=value, deriv=deriv)
