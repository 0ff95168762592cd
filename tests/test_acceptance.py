"""End-to-end acceptance suite.

Every test here checks the full library against an independent reference:
the analytic splitting identity, quadrature oracles for the prolate basis,
the exact mode-sum and classical-Ewald oracles for the mesh pipeline, and
statistical/complexity properties of the integrator and the solver.

The random ensemble below (20 neutral systems, three sizes, cubic and
non-cubic boxes) is shared by several tests.  Seeds are fixed so the suite
is deterministic; they were screened once so that no system has a total
energy near zero, which would make relative comparisons meaningless.
"""

import time

import numpy as np
import pytest

from conftest import basis_for, kernel_for, random_neutral_system
from fd_checks import fd_pressure_check
from prolate_ewald import (
    Cell,
    CoulombSolver,
    EwaldParameters,
    NptConfig,
    ParticleSystem,
    build_cell_list,
    classical_ewald,
    direct_ksum,
    evaluate_exact,
    far_field,
    integrate,
    near_field,
    short_range,
    solve_bandwidth,
    virial_audit,
)

# ---------------------------------------------------------------------------
# shared ensemble

CUBE = (6.0, 6.0, 6.0)
BRICK = (6.2, 6.0, 6.4)
R_CUT = 2.94
DELTAS = (1e-3, 1e-4, 1e-5, 1e-6)

ENSEMBLE = [
    (8, CUBE, 503), (8, CUBE, 505), (8, CUBE, 522),
    (8, BRICK, 508), (8, BRICK, 527), (8, BRICK, 533),
    (64, CUBE, 502), (64, CUBE, 507), (64, CUBE, 511),
    (64, BRICK, 513), (64, BRICK, 516), (64, BRICK, 523),
    (256, CUBE, 500), (256, CUBE, 513), (256, CUBE, 516),
    (256, BRICK, 518), (256, BRICK, 520), (256, BRICK, 523),
    (64, BRICK, 502), (256, CUBE, 520),
]


def order_for(delta):
    return int(np.ceil(-np.log10(delta))) + 1


def rel(err_value, ref_value):
    return np.linalg.norm(err_value) / np.linalg.norm(ref_value)


@pytest.fixture(scope="module")
def ensemble_runs():
    """Pipeline output and oracle references for every (system, delta) pair.

    Computed once; the equivalence, virial, and cross-oracle tests all
    consume this table.
    """
    table = {}
    for delta in DELTAS:
        P = order_for(delta)
        rows = []
        for (n, lengths, seed) in ENSEMBLE:
            sys = random_neutral_system(n, lengths, seed)
            params = EwaldParameters(r_c=R_CUT, delta_split=delta, P=P,
                                     oversampling=2.0)
            solver = CoulombSolver(sys.cell, params)
            out = solver.evaluate(sys)
            ref = evaluate_exact(sys, params)
            sr = short_range(sys, solver.kern, build_cell_list(sys, R_CUT))
            rows.append({
                "sys": sys,
                "out": out,
                "e_ref": ref.energy,
                "f_ref": ref.forces,
                "p_ref": ref.pressure,
                "p_near": sr.pressure,
            })
        table[delta] = rows
    return table


# ---------------------------------------------------------------------------
# 1. splitting identity

def test_splitting_identity_across_bandwidths():
    rng = np.random.default_rng(1)
    r_c = 1.0
    radii = rng.uniform(1e-6, r_c, 10000)
    for delta in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        kern = kernel_for(delta, r_c)
        resid = (near_field(kern, radii) + far_field(kern, radii)
                 - 1.0 / radii) * radii
        assert np.max(np.abs(resid)) <= 1e-12, delta


# ---------------------------------------------------------------------------
# 2. prolate basis self-consistency

def gauss_legendre_pair(n=400):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-8])
def test_prolate_self_consistency(delta):
    b = basis_for(delta=delta)
    assert abs(b.lambda0 - 2.0 * b.C0 / b.psi0_at_zero) <= 1e-11

    nodes, weights = gauss_legendre_pair()
    psi_t = b.psi_series(nodes)
    # integral operator: lambda psi(x) = int_-1^1 psi(t) e^{i c x t} dt
    for x in np.linspace(-1.0, 1.0, 20):
        integral = np.sum(weights * psi_t * np.exp(1j * b.c * x * nodes))
        assert abs(integral.imag) < 1e-12
        assert abs(integral.real - b.lambda0 * b.psi_series(x)) <= 1e-9
    # x-derivative of the same relation
    for x in np.linspace(-0.95, 0.95, 10):
        integral = np.sum(weights * psi_t * 1j * b.c * nodes
                          * np.exp(1j * b.c * x * nodes))
        assert abs(integral.real
                   - b.lambda0 * b.psi_series(x, derivative=1)) <= 1e-9


# ---------------------------------------------------------------------------
# 3. mesh pipeline vs exact mode sum

def test_mesh_matches_exact_mode_sum(ensemble_runs):
    for delta, rows in ensemble_runs.items():
        for row in rows:
            out = row["out"]
            assert abs(out.energy - row["e_ref"]) / abs(row["e_ref"]) <= delta
            assert rel(out.forces - row["f_ref"], row["f_ref"]) <= delta
            assert rel(out.pressure - row["p_ref"], row["p_ref"]) <= delta


# ---------------------------------------------------------------------------
# 4. cross-splitting agreement with classical Ewald

def non_neutral_system():
    sys = random_neutral_system(64, CUBE, 523)
    q = sys.charges.copy()
    q[0] += 1.5
    return ParticleSystem(cell=sys.cell, positions=sys.positions, charges=q)


def test_agrees_with_classical_ewald():
    # Both solvers run at parameters tight enough that their own errors sit
    # below every tolerance checked; the assertion is that two completely
    # different kernel splittings (prolate band-limited vs Gaussian)
    # reproduce the same physics.
    systems = [random_neutral_system(n, lengths, seed)
               for (n, lengths, seed) in ENSEMBLE]
    systems.append(non_neutral_system())
    params = EwaldParameters(r_c=R_CUT, delta_split=1e-8, oversampling=2.0)
    deviations = []
    for sys in systems:
        out = CoulombSolver(sys.cell, params).evaluate(sys)
        e_cl, f_cl, p_cl = classical_ewald(sys)
        deviations.append((abs(out.energy - e_cl), abs(e_cl),
                           np.linalg.norm(out.forces - f_cl),
                           np.linalg.norm(f_cl),
                           np.linalg.norm(out.pressure - p_cl),
                           np.linalg.norm(p_cl)))
    for delta in DELTAS:
        for (de, e, df, f, dp, p) in deviations:
            assert de <= max(1e-9, delta * e)
            assert df <= max(1e-9, delta * f)
            assert dp <= max(1e-9, delta * p)


# ---------------------------------------------------------------------------
# 5. virial identity

def test_virial_identity(ensemble_runs):
    for delta, rows in ensemble_runs.items():
        for row in rows:
            out = row["out"]
            p_far = out.pressure - row["p_near"]
            report = virial_audit(row["sys"], row["p_near"], p_far,
                                  out.u_near, out.u_far, out.u_self, delta)
            assert report.passed, report


# ---------------------------------------------------------------------------
# 6. pressure is the volume/shape derivative of the energy

def rescaled_energy(sys, params):
    frac = sys.cell.fractional(sys.positions)

    def energy_of_cell(h):
        cell = Cell(h=h)
        probe = ParticleSystem(cell=cell, positions=frac @ h.T,
                               charges=sys.charges)
        return CoulombSolver(cell, params).evaluate(probe).energy

    return energy_of_cell


@pytest.mark.parametrize("coupling", ["isotropic", "anisotropic"])
def test_pressure_is_energy_derivative(coupling):
    params = EwaldParameters(r_c=1.2, delta_split=1e-6, oversampling=2.0)
    sys = random_neutral_system(16, (5.0, 5.5, 6.0), seed=12)
    out = CoulombSolver(sys.cell, params).evaluate(sys)
    report = fd_pressure_check(sys, rescaled_energy(sys, params),
                               out.pressure, coupling=coupling,
                               tolerance=1e-5)
    assert report.passed, report


def triclinic_toy():
    """12 neutral ions in a sheared cell, and their fractional coordinates."""
    rng = np.random.default_rng(14)
    h = np.diag(rng.uniform(5.0, 8.0, 3))
    h[0, 1] = 0.05 * h[1, 1]
    h[0, 2] = 0.05 * h[2, 2]
    h[1, 2] = -0.05 * h[2, 2]
    cell = Cell(h=h)
    frac = rng.uniform(0.0, 1.0, (12, 3))
    q = rng.uniform(0.5, 1.5, 12) * np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    q -= q.mean()
    return ParticleSystem(cell=cell, positions=frac @ h.T, charges=q), frac


def test_pressure_is_cell_derivative_triclinic():
    sys, frac = triclinic_toy()
    q = sys.charges
    kern = kernel_for(1e-6, 1.3)
    _, _, p_far = direct_ksum(sys, kern)

    def energy_of_cell(hmat):
        probe = ParticleSystem(cell=Cell(h=hmat), positions=frac @ hmat.T,
                               charges=q)
        return direct_ksum(probe, kern)[0]

    report = fd_pressure_check(sys, energy_of_cell, p_far,
                               coupling="flexible", tolerance=1e-5)
    assert report.passed, report


def test_mesh_pressure_is_cell_derivative_triclinic():
    # The mesh twin of the test above, with the near field and self terms
    # included.  The grid counts stay pinned, so every probe cell is
    # spread on the same fractional grid.
    sys, frac = triclinic_toy()
    solver = CoulombSolver(sys.cell, EwaldParameters(
        r_c=1.3, delta_split=1e-6, oversampling=2.0))
    grid = solver.spec.M
    pressure = solver.evaluate(sys).pressure

    def energy_of_cell(hmat):
        probe = ParticleSystem(cell=Cell(h=hmat), positions=frac @ hmat.T,
                               charges=sys.charges)
        solver.rebind_cell(probe.cell, fixed_M=grid)
        return solver.evaluate(probe).energy

    report = fd_pressure_check(sys, energy_of_cell, pressure,
                               coupling="flexible", tolerance=1e-5)
    assert report.passed, report


# ---------------------------------------------------------------------------
# 7. spectral convergence in grid size and spreading order

def test_grid_and_order_convergence(capsys):
    sys = random_neutral_system(100, CUBE, 777)
    r_c = 2.4
    delta = 1e-6
    p_ref = evaluate_exact(sys, EwaldParameters(
        r_c=r_c, delta_split=delta)).pressure
    p_norm = np.linalg.norm(p_ref)

    grid_errors = []
    for M in (14, 22, 30, 38):
        solver = CoulombSolver(sys.cell, EwaldParameters(
            r_c=r_c, delta_split=delta, P=7, oversampling=2.0))
        solver.rebind_cell(sys.cell, fixed_M=(M, M, M))
        out = solver.evaluate(sys)
        grid_errors.append((M, np.linalg.norm(out.pressure - p_ref) / p_norm))
        print(f"grid-sweep M {M} pressure-error {grid_errors[-1][1]:.17g}")

    floor = delta
    pre_floor_pairs = 0
    for (m0, e0), (m1, e1) in zip(grid_errors, grid_errors[1:]):
        if e0 > floor:
            assert e1 <= e0 / 10.0, (m0, e0, m1, e1)
            pre_floor_pairs += 1
    assert pre_floor_pairs >= 1
    assert grid_errors[-1][1] <= 10 * floor

    order_errors = []
    for P in range(2, 9):
        solver = CoulombSolver(sys.cell, EwaldParameters(
            r_c=r_c, delta_split=delta, P=P, oversampling=2.0))
        out = solver.evaluate(sys)
        order_errors.append((P, np.linalg.norm(out.pressure - p_ref) / p_norm))
        print(f"order-sweep P {P} pressure-error {order_errors[-1][1]:.17g}")

    pre_floor_pairs = 0
    for (p0, e0), (p2, e2) in zip(order_errors, order_errors[2:]):
        if e0 > floor:
            assert e2 <= 0.1 * e0, (p0, e0, p2, e2)
            pre_floor_pairs += 1
    assert pre_floor_pairs >= 3
    assert order_errors[-1][1] <= 10 * floor


# ---------------------------------------------------------------------------
# 8. band-limited splitting needs far fewer modes than the Gaussian

def count_modes(cell_length, k_cut):
    m = int(np.floor(k_cut * cell_length / (2.0 * np.pi)))
    g = np.arange(-m, m + 1) * 2.0 * np.pi / cell_length
    kx, ky, kz = np.meshgrid(g, g, g, indexing="ij")
    k2 = kx**2 + ky**2 + kz**2
    return int(np.sum((k2 > 0) & (k2 <= k_cut**2)))


def test_mode_economy_vs_gaussian():
    target = 1e-4
    sys = random_neutral_system(100, CUBE, 777)
    L = 6.0
    r_c = 2.4

    e_t, f_t, p_t = classical_ewald(sys)
    p_norm = np.linalg.norm(p_t)

    solver = CoulombSolver(sys.cell, EwaldParameters(
        r_c=r_c, delta_split=target, oversampling=2.0))
    out = solver.evaluate(sys)
    assert np.linalg.norm(out.pressure - p_t) / p_norm <= target
    band_modes = count_modes(L, solver.kern.kmax)

    # Minimal Gaussian mode count: for each real-space decay rate that can
    # reach the target at all, bisect the smallest k_cut that does.
    best_gaussian = None
    for sqrt_alpha in (1.1, 1.2, 1.3, 1.45):
        alpha = sqrt_alpha**2
        lo, hi = 2.0, 14.0
        e, f, p = classical_ewald(sys, alpha=alpha, r_cut=r_c, k_cut=hi)
        if np.linalg.norm(p - p_t) / p_norm > target:
            continue
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            e, f, p = classical_ewald(sys, alpha=alpha, r_cut=r_c, k_cut=mid)
            if np.linalg.norm(p - p_t) / p_norm <= target:
                hi = mid
            else:
                lo = mid
        modes = count_modes(L, hi)
        if best_gaussian is None or modes < best_gaussian:
            best_gaussian = modes
    assert best_gaussian is not None
    assert best_gaussian >= 3 * band_modes, (best_gaussian, band_modes)


# ---------------------------------------------------------------------------
# 9. per-particle pressure tensors recompose the global far field

def test_local_pressure_sums_to_far_field():
    delta = 1e-5
    for (n, lengths, seed) in ENSEMBLE:
        sys = random_neutral_system(n, lengths, seed)
        params = EwaldParameters(r_c=R_CUT, delta_split=delta,
                                 P=order_for(delta), oversampling=2.0)
        solver = CoulombSolver(sys.cell, params)
        out = solver.evaluate(sys)
        neighbors = build_cell_list(sys, R_CUT)
        sr = short_range(sys, solver.kern, neighbors)
        p_far = out.pressure - sr.pressure
        tensors = solver.local_pressure(sys)
        total = tensors.sum(axis=0)
        assert rel(total - p_far, p_far) <= 1e-8


# ---------------------------------------------------------------------------
# 10. force-mode dichotomy: momentum vs energy conservation

def lattice_toy(shape, lengths, seed, jitter):
    rng = np.random.default_rng(seed)
    axes = [(np.arange(m) + 0.5) * (length / m)
            for m, length in zip(shape, lengths)]
    pos = np.array(np.meshgrid(*axes, indexing="ij")).reshape(3, -1).T
    parity = np.indices(shape).sum(axis=0).ravel()
    q = np.where(parity % 2 == 0, 1.0, -1.0)
    pos = pos + jitter * rng.standard_normal(pos.shape)
    return ParticleSystem(cell=Cell.orthorhombic(lengths), positions=pos,
                          charges=q, masses=np.ones(len(q)))


def toy32():
    return lattice_toy((4, 4, 2), (6.0, 6.0, 3.0), seed=9, jitter=0.08)


def test_ik_forces_conserve_momentum_along_trajectory():
    sys = toy32()
    solver = CoulombSolver(sys.cell, EwaldParameters(
        r_c=1.4, delta_split=1e-5, oversampling=2.0, force_mode="ik"))
    dt = 2e-4
    rng = np.random.default_rng(4)
    momenta = 0.05 * rng.standard_normal(sys.positions.shape)
    pos = sys.positions
    forces = solver.evaluate(sys).forces
    for _ in range(100):
        scale = np.abs(forces).max()
        assert np.abs(forces.sum(axis=0)).max() <= 1e-10 * scale
        momenta = momenta + 0.5 * dt * forces
        pos = pos + dt * momenta
        sys = ParticleSystem(cell=sys.cell, positions=pos,
                             charges=sys.charges, masses=sys.masses)
        forces = solver.evaluate(sys).forces
        momenta = momenta + 0.5 * dt * forces


def test_analytic_forces_conserve_energy_over_long_run():
    sys = toy32()
    cfg = NptConfig(dt=5e-4, n_steps=10000, target_T=0.3, beta_T=0.0,
                    thermostat_period=0, barostat=False, seed=11,
                    record_every=100,
                    ewald=EwaldParameters(r_c=1.4, delta_split=1e-5,
                                          oversampling=2.0,
                                          force_mode="analytic"))
    stats = integrate(cfg, sys)
    # target_P0 defaults to zero, so the recorded enthalpy is the total
    # energy (potential + kinetic).
    energies = np.array([r.enthalpy for r in stats.records])
    drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
    assert drift <= 1e-4, drift


# ---------------------------------------------------------------------------
# 11. constant-pressure sampling statistics and reproducibility

def toy216(lengths=7.5):
    return lattice_toy((6, 6, 6), (lengths, lengths, lengths), seed=7,
                       jitter=0.1)


def npt_config(n_steps, seed=5, record_every=20):
    return NptConfig(dt=2e-3, n_steps=n_steps, target_T=0.5, target_P0=1.1,
                     tau_P=0.5, beta_T=0.2, thermostat_period=10,
                     barostat=True, seed=seed, record_every=record_every,
                     ewald=EwaldParameters(r_c=2.2, delta_split=1e-4,
                                           oversampling=1.0, force_mode="ik"))


def test_npt_pressure_statistics():
    # 62500 total steps leaves 50000 sampling steps after the 20% burn-in.
    stats = integrate(npt_config(62500), toy216())
    assert stats.stderr_pressure > 0.0
    assert abs(stats.mean_pressure - 1.1) <= 3.0 * stats.stderr_pressure, (
        stats.mean_pressure, stats.stderr_pressure)


def test_npt_fixed_seed_bitwise_reproducible():
    a = integrate(npt_config(2000, record_every=10), toy216())
    b = integrate(npt_config(2000, record_every=10), toy216())
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.step == rb.step
        assert ra.temperature == rb.temperature
        assert ra.volume == rb.volume
        assert ra.u_coulomb == rb.u_coulomb
        assert ra.u_softcore == rb.u_softcore
        assert ra.kinetic == rb.kinetic
        assert np.array_equal(ra.pressure, rb.pressure)


# ---------------------------------------------------------------------------
# 12. near-linear per-step cost

def test_per_step_cost_scales_linearly():
    rng = np.random.default_rng(42)
    density = 4.0
    sizes = (1000, 4000, 16000, 64000, 100000)
    seconds = []
    for n in sizes:
        L = (n / density) ** (1.0 / 3.0)
        cell = Cell.orthorhombic((L, L, L))
        pos = rng.uniform(0.0, L, (n, 3))
        q = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        sys = ParticleSystem(cell=cell, positions=pos, charges=q)
        solver = CoulombSolver(cell, EwaldParameters(r_c=2.0,
                                                     delta_split=1e-4))
        solver.evaluate(sys)  # warm-up: FFT plans, neighbor structures
        reps = 3 if n <= 16000 else 1
        start = time.perf_counter()
        for _ in range(reps):
            solver.evaluate(sys)
        seconds.append((time.perf_counter() - start) / reps)
    slope = np.polyfit(np.log(sizes), np.log(seconds), 1)[0]
    assert 0.9 <= slope <= 1.3, (slope, seconds)
