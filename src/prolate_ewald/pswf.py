"""Order-zero prolate spheroidal wave function: construction and evaluation.

The order-zero prolate psi_0^c on [-1, 1] is computed by expanding in
normalized Legendre polynomials and solving the symmetric tridiagonal
eigenproblem of the commuting differential operator

    L = d/dx (1 - x^2) d/dx - c^2 x^2,

whose eigenfunctions coincide with those of the finite Fourier integral
operator.  Even and odd Legendre orders decouple; the order-zero function
lives in the even block and corresponds to the smallest differential
eigenvalue.  psi_0^c and its derivative are evaluated straight from the
expansion; a piecewise-polynomial (Horner-evaluated) table serves the
rescaled spreading window, which the mesh evaluates per particle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.interpolate import PPoly
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

BANDWIDTH_MIN = 0.5
BANDWIDTH_MAX = 80.0
DEFAULT_TABLE_TOL = 1e-13
DEFAULT_TABLE_DEGREE = 18


class PswfError(Exception):
    """Construction or evaluation failure in the prolate machinery."""


class DomainError(PswfError):
    """Argument outside the domain of the requested evaluation."""


def _legendre_coefficients(c: float, n_min: int | None = None) -> np.ndarray:
    """Expansion coefficients of psi_0^c over (unnormalized-index) Legendre basis.

    Returns the full coefficient vector ``coef`` such that
    psi_0^c(x) = legval(x, coef); odd entries are zero by parity.
    Normalized so that the L2[-1,1] norm is 1 and psi_0^c(0) > 0.
    """
    # Matrix elements of L in the *normalized* Legendre basis restricted to
    # even orders k = 0, 2, 4, ...
    n_even = max(int(np.ceil(c)) + 16, 40)
    if n_min is not None:
        n_even = max(n_even, n_min)
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


def _build_table(fun, degree: int, n_intervals: int, lo: float, hi: float) -> PPoly:
    """Piecewise polynomial of given degree on uniform subintervals of [lo, hi].

    Each piece interpolates ``fun`` at Chebyshev nodes mapped into the piece.
    """
    breaks = np.linspace(lo, hi, n_intervals + 1)
    width = breaks[1] - breaks[0]
    # Chebyshev points of the first kind in [-1, 1].
    s = np.cos(np.pi * (2.0 * np.arange(degree + 1) + 1.0) / (2.0 * (degree + 1)))
    coeffs = np.empty((degree + 1, n_intervals))
    lin = np.polynomial.Polynomial([1.0, 2.0 / width])  # s = -1 + 2 t / width
    for i in range(n_intervals):
        x = breaks[i] + 0.5 * width * (s + 1.0)
        cheb = np.polynomial.chebyshev.Chebyshev.fit(s, fun(x), degree, domain=[-1, 1])
        poly = cheb.convert(kind=np.polynomial.Polynomial)
        # Compose with the affine map t -> s so pieces are in (x - left) powers.
        local = poly(np.polynomial.Polynomial([-1.0, 2.0 / width]))
        cvec = np.zeros(degree + 1)
        cvec[: local.coef.size] = local.coef
        coeffs[:, i] = cvec[::-1]
    return PPoly(coeffs, breaks, extrapolate=False)


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

    def psi_series(self, x, derivative: int = 0):
        """Spectrally exact evaluation straight from the Legendre expansion."""
        coef = self.legendre_coeffs
        if derivative:
            coef = npleg.legder(coef, derivative)
        return npleg.legval(np.asarray(x, dtype=float), coef)

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

    return PswfBasis(
        c=float(c),
        legendre_coeffs=coef,
        lambda0=lambda0,
        psi0_at_zero=psi0_0,
        C0=C0,
        _cumint_coeffs=npleg.legint(coef, lbnd=0.0),
    )


def eval_phi0(basis: PswfBasis, r, r_c: float):
    """Normalized cumulative integral phi_0^c(r) = (1/C0) int_0^{r/r_c} psi_0^c.

    Returns 1 for r >= r_c; monotone nondecreasing.
    """
    if r_c <= 0.0:
        raise DomainError("cutoff r_c must be positive")
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
    if not (1e-14 <= delta <= 1e-1):
        raise PswfError(f"delta={delta} outside [1e-14, 1e-1]")
    f = lambda c: np.log(max(_psi_at_one(c), 1e-290)) - np.log(delta)
    return float(brentq(f, BANDWIDTH_MIN, BANDWIDTH_MAX, xtol=1e-9, rtol=1e-10))


@dataclass(frozen=True)
class WindowTable:
    """Spreading window W(x) = psi_0^c(2x/P) on [-P/2, P/2] in grid units.

    ``value`` and ``deriv`` are per-unit-subinterval polynomial tables for
    the window and its derivative with respect to the grid-unit argument.
    """

    P: int
    degree: int
    table_tol: float
    value: PPoly
    deriv: PPoly
    basis_c: float

    def __call__(self, x, derivative: int = 0):
        table = self.deriv if derivative else self.value
        xa = np.asarray(x, dtype=float)
        out = table(xa)
        out = np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)
        return out if out.ndim else float(out)


def tabulate_window(basis: PswfBasis, P: int, table_tol: float = DEFAULT_TABLE_TOL,
                    degree: int = DEFAULT_TABLE_DEGREE) -> WindowTable:
    """Per-subinterval polynomial tables for the P-point spreading window."""
    if P < 2:
        raise PswfError(f"spreading order P={P} must be >= 2")
    half = P / 2.0
    scale = 2.0 / P
    coef = basis.legendre_coeffs
    dcoef = npleg.legder(coef)

    def wval(x):
        t = np.clip(np.asarray(x) * scale, -1.0, 1.0)
        return npleg.legval(t, coef)

    def wder(x):
        t = np.clip(np.asarray(x) * scale, -1.0, 1.0)
        return npleg.legval(t, dcoef) * scale

    # P unit-length subintervals; refine each into equal pieces if the
    # tolerance demands more resolution.
    pieces = 1
    for _ in range(8):
        n_int = P * pieces
        value = _build_table(wval, degree, n_int, -half, half)
        deriv = _build_table(wder, degree, n_int, -half, half)
        x = np.linspace(-half, half, 4097)
        err = np.max(np.abs(value(x) - wval(x))) / basis.psi0_at_zero
        if err <= table_tol:
            return WindowTable(P=int(P), degree=int(degree),
                               table_tol=float(table_tol), value=value,
                               deriv=deriv, basis_c=basis.c)
        pieces *= 2
    raise PswfError(f"window table did not reach tolerance {table_tol}")
