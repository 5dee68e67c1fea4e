import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad

from gsqg.errors import (
    ConvergenceError,
    DomainTooSmallError,
    ParameterError,
    RegimeError,
    ResourceLimitError,
)
from gsqg.fields import Field2D, Grid2D, RadialField, lp_norm
from gsqg.kernels import KernelParams, potential_free_grid
from gsqg.limiting import (
    _DAMPING,
    _RESIDUAL_FLOOR,
    LimitingSolution,
    _gauss_legendre,
    _initial_patch,
    _unit_ring_matrix,
    constrained_ascent,
    energy_E0,
    linearized_apply,
    monitored_step,
    radial_to_field,
    ring_potential_matrix,
    solve_limiting,
    solve_multiplier,
    spectral_gap_estimate,
    to_state_2d,
    translational_mode,
    virial_residual,
)
from gsqg.profiles import PowerProfile


def _ring_matrix_broadcast(r_targets, r_nodes, dr, params, n_angles):
    """Reference: the plain broadcast over (target, annulus, angle), with
    the segment term taken separately at the outer and inner radii."""
    r_targets = np.asarray(r_targets, dtype=float)
    r_nodes = np.asarray(r_nodes, dtype=float)
    ang, w_ang = _gauss_legendre(n_angles, 0.0, math.pi)
    sin_a, cos_a = np.sin(ang), np.cos(ang)
    R2o = r_nodes + 0.5 * dr
    R1o = np.clip(r_nodes - 0.5 * dr, 0.0, None)
    two_s = 2.0 * params.s
    r = r_targets[:, None, None]
    b = r * cos_a[None, None, :]
    rs2 = (r * sin_a[None, None, :]) ** 2

    def seg(R):
        g = R[None, :, None] ** 2 - rs2
        sq = np.sqrt(np.clip(g, 0.0, None))
        tp = np.clip(-b + sq, 0.0, None)
        tm = np.clip(-b - sq, 0.0, None)
        return np.where(g > 0.0, tp ** two_s - tm ** two_s, 0.0)

    val = seg(R2o) - seg(R1o)
    return 2.0 * (params.c_s / two_s) * np.sum(val * w_ang[None, None, :],
                                               axis=2)


class TestRingMatrix:
    def test_against_adaptive_2d_quadrature(self):
        # one off-diagonal entry vs scipy's adaptive quadrature in polar form
        params = KernelParams(0.5)
        nr, rmax = 16, 2.0
        dr = rmax / nr
        r = (np.arange(nr) + 0.5) * dr
        M = ring_potential_matrix(r, r, dr, params, n_angles=192)
        i, j = 5, 7
        R1, R2 = r[j] - 0.5 * dr, r[j] + 0.5 * dr

        def integrand(theta, rho):
            d2 = r[i] ** 2 + rho ** 2 - 2 * r[i] * rho * math.cos(theta)
            return params.c_s * d2 ** (params.s - 1.0) * rho

        oracle, _ = dblquad(integrand, R1, R2, 0.0, 2.0 * math.pi,
                            epsabs=1e-12, epsrel=1e-10)
        assert M[i, j] == pytest.approx(oracle, rel=1e-6)

    def test_diagonal_against_fft_grid(self):
        # potential of a radial blob: radial matrix vs the 2D grid route
        params = KernelParams(0.5)
        nr, rmax = 96, 3.0
        dr = rmax / nr
        r = (np.arange(nr) + 0.5) * dr
        prof = np.clip(1.0 - (r / 1.5) ** 2, 0.0, None) ** 1.5
        psi_radial = ring_potential_matrix(r, r, dr, params, 128) @ prof

        g = Grid2D(384, 384, -3.0, 3.0, -3.0, 3.0)
        f = radial_to_field(RadialField(nr, rmax, prof), g)
        psi2d = potential_free_grid(f, params)
        X1, X2 = g.centers()
        rr = np.hypot(X1, X2).ravel()
        order = np.argsort(rr)
        psi_interp = np.interp(r, rr[order], psi2d.ravel()[order])
        np.testing.assert_allclose(psi_radial, psi_interp, rtol=0.01)

    def test_target_at_origin_closed_form(self):
        # disk annulus potential at the center: c_s 2 pi (R2^2s - R1^2s)/(2s)
        params = KernelParams(0.7)
        M = ring_potential_matrix(np.array([0.0]), np.array([1.0]), 0.5,
                                  params, 64)
        s = params.s
        expect = params.c_s * 2 * math.pi * (1.25 ** (2 * s) - 0.75 ** (2 * s)) \
            / (2 * s)
        assert M[0, 0] == pytest.approx(expect, rel=1e-10)

    # the blocked per-edge evaluation must reproduce the broadcast bitwise;
    # s = 0.5 takes numpy's 2s = 1 power fast path
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("nr,n_angles", [(48, 48), (96, 64), (256, 64)])
    def test_matches_broadcast(self, s, nr, n_angles):
        params = KernelParams(s)
        rmax = 2.5
        dr = rmax / nr
        r = (np.arange(nr) + 0.5) * dr
        off = np.concatenate([[0.0], np.linspace(0.0, 1.2 * rmax, 29),
                              r[::7] * (1 + 1e-3)])
        for targets in (r, off):
            np.testing.assert_array_equal(
                ring_potential_matrix(targets, r, dr, params, n_angles),
                _ring_matrix_broadcast(targets, r, dr, params, n_angles))

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_single_node_at_origin(self, s):
        params = KernelParams(s)
        args = (np.array([0.0]), np.array([1.0]), 0.5, params, 64)
        np.testing.assert_array_equal(ring_potential_matrix(*args),
                                      _ring_matrix_broadcast(*args))

    def test_peak_memory(self):
        # the broadcast at nr=256, n_angles=64 peaks near 220 MB
        params = KernelParams(0.3)
        nr = 256
        dr = 3.0 / nr
        r = (np.arange(nr) + 0.5) * dr
        tracemalloc.start()
        try:
            ring_potential_matrix(r, r, dr, params, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    # M is homogeneous of degree 2s in the spacing: the rescaled unit-spacing
    # matrix the sizing passes share differs from a rebuild at roundoff only
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("dr", [1.0 / 96, 0.0235, 2.2613 / 96])
    def test_unit_matrix_rescales(self, s, dr):
        params = KernelParams(s)
        r = (np.arange(96) + 0.5) * dr
        np.testing.assert_allclose(
            dr ** (2.0 * s) * _unit_ring_matrix(96, 64, s),
            ring_potential_matrix(r, r, dr, params, 64), rtol=1e-12, atol=0)

    def test_unit_matrix_is_read_only(self):
        M = _unit_ring_matrix(16, 8, 0.5)
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 0.0
        assert _unit_ring_matrix(16, 8, 0.5) is M


class TestEnergyScaling:
    def test_dilation_family_exponents(self):
        # w_r(x) = r^-2 w(x/r): kernel term scales r^(2s-2), J term r^(2-2g)
        params = KernelParams(0.5)
        prof = PowerProfile(p=1.5, s=0.5)
        n = 96

        def energies(rscale):
            g = Grid2D(n, n, -2 * rscale, 2 * rscale, -2 * rscale, 2 * rscale)
            X1, X2 = g.centers()
            vals = np.clip(1 - (X1 ** 2 + X2 ** 2) / rscale ** 2, 0, None) ** 2 \
                / rscale ** 2
            f = Field2D(g, vals, nonneg=True)
            psi = potential_free_grid(f, params)
            kin = float(np.sum(vals * psi)) * g.cell_area
            jint = float(np.sum(prof.J(vals))) * g.cell_area
            return kin, jint

        k1, j1 = energies(1.0)
        k2, j2 = energies(2.0)
        gamma = prof.gamma
        assert k2 / k1 == pytest.approx(2.0 ** (2 * prof.s - 2), rel=0.02)
        assert j2 / j1 == pytest.approx(2.0 ** (2 - 2 * gamma), rel=0.02)

    def test_zero_field(self):
        g = Grid2D(8, 8, -1, 1, -1, 1)
        f = Field2D(g, np.zeros((8, 8)))
        assert energy_E0(f, PowerProfile(p=1.5, s=0.5),
                         KernelParams(0.5)) == 0.0

    def test_compositional_identity(self):
        rng = np.random.default_rng(0)
        g = Grid2D(24, 24, -1, 1, -1, 1)
        vals = rng.random((24, 24))
        f = Field2D(g, vals, nonneg=True)
        prof = PowerProfile(p=1.5, s=0.5)
        params = KernelParams(0.5)
        psi = potential_free_grid(f, params)
        expect = 0.5 * float(np.sum(vals * psi)) * g.cell_area \
            - float(np.sum(prof.J(vals))) * g.cell_area
        assert energy_E0(f, prof, params) == pytest.approx(expect, rel=1e-13)


class TestMultiplierBisection:
    def test_mass_constraint_met_exactly(self):
        rng = np.random.default_rng(1)
        prof = PowerProfile(p=1.5, s=0.5)
        psi = rng.random(200) * 2.0
        meas = np.full(200, 0.01)
        mu, omega = solve_multiplier(psi, meas, prof, kappa=1.0)
        assert float(np.sum(meas * omega)) == pytest.approx(1.0, rel=1e-10)

    def test_monotone_in_kappa(self):
        rng = np.random.default_rng(2)
        prof = PowerProfile(p=1.5, s=0.5)
        psi = rng.random(100)
        meas = np.full(100, 0.05)
        mus = [solve_multiplier(psi, meas, prof, kappa=k)[0]
               for k in (0.5, 1.0, 2.0)]
        assert mus[0] > mus[1] > mus[2]


def _bisection_mu(psi, meas, prof, kappa):
    """Reference multiplier: plain bisection to the last bit."""
    def mass_at(mu):
        return float(np.sum(meas * prof.Jprime_inverse(psi - mu)))

    hi = float(psi.max())
    lo = hi - 1.0
    while mass_at(lo) <= kappa:
        lo -= 2.0 * (hi - lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if mass_at(mid) > kappa:
            lo = mid
        else:
            hi = mid


class _CountingProfile:
    """Delegates to a profile and counts its (J')^{-1} calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def Jprime_inverse(self, tau):
        self.calls += 1
        return self.inner.Jprime_inverse(tau)


class TestMultiplierNewton:
    @staticmethod
    def _problem(seed, n=300):
        rng = np.random.default_rng(seed)
        return rng.random(n) * 2.0, np.full(n, 0.01)

    @pytest.mark.parametrize("p", [0.8, 1.0, 1.5, 1.9])
    def test_matches_reference_bisection(self, p):
        psi, meas = self._problem(3)
        prof = PowerProfile(p=p, s=0.5)
        mu, omega = solve_multiplier(psi, meas, prof, kappa=1.0)
        ref = _bisection_mu(psi, meas, prof, 1.0)
        assert mu == pytest.approx(ref, rel=1e-12)
        assert float(np.sum(meas * omega)) == pytest.approx(1.0, abs=1e-12)
        expect = prof.Jprime_inverse(psi - ref)
        np.testing.assert_allclose(omega, expect / np.sum(meas * expect),
                                   rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("p", [0.8, 1.5])
    def test_warm_start_anywhere_gives_same_mu(self, p):
        psi, meas = self._problem(4)
        prof = PowerProfile(p=p, s=0.5)
        cold = solve_multiplier(psi, meas, prof, kappa=1.0)[0]
        top = float(psi.max())
        # far left, just under the top (a one-cell active set), above it
        for mu0 in (-50.0, top - 1e-9, top + 3.0):
            mu = solve_multiplier(psi, meas, prof, kappa=1.0, mu0=mu0)[0]
            assert mu == pytest.approx(cold, rel=1e-12)

    def test_negative_root_expands_bracket(self):
        psi, meas = self._problem(5)
        psi = 0.05 * psi
        prof = PowerProfile(p=1.5, s=0.5)
        ref = _bisection_mu(psi, meas, prof, 40.0)
        assert ref < -1.0
        for mu0 in (None, 0.01):
            mu, omega = solve_multiplier(psi, meas, prof, kappa=40.0, mu0=mu0)
            assert mu == pytest.approx(ref, rel=1e-12)
            assert float(np.sum(meas * omega)) == pytest.approx(40.0,
                                                                rel=1e-12)

    def test_warm_started_calls_take_at_most_four_evaluations(
            self, monkeypatch):
        from gsqg import pair

        lim = solve_limiting(0.5, 1.5, kappa=1.0, L=0.1, nr=64, n_angles=48,
                             tol=1e-5)
        problem = pair.PairProblem(s=0.5, p=1.5, kappa=1.0, W=1.0, eps=0.2,
                                   L=0.1)

        def counts_of_one_solve():
            counts = []

            def counting(psi_eff, measures, profile, kappa, **kw):
                prof = _CountingProfile(profile)
                out = solve_multiplier(psi_eff, measures, prof, kappa, **kw)
                counts.append((kw.get("mu0") is not None, prof.calls))
                return out

            monkeypatch.setattr(pair, "solve_multiplier", counting)
            pair.solve_pair(problem, n=48, limiting=lim)
            return counts

        counts = counts_of_one_solve()
        warm = [c for w, c in counts if w]
        assert len(warm) >= 20
        assert max(warm) <= 4
        assert counts_of_one_solve() == counts


class TestMonitoredStep:
    def test_accepted_step_regrows_theta(self):
        # energy -(x - 1)^2 from x = 0 towards 1: the first trial ascends
        x, (e, _), theta, ok = monitored_step(
            lambda t: t, lambda x: (-(x - 1.0) ** 2, None), -1.0, 0.25)
        assert ok and x == 0.25 and e == -(0.75 ** 2)
        assert theta == 0.25 * 1.3
        # regrowth stops at the damping, the first and largest step
        theta = monitored_step(
            lambda t: t, lambda x: (-(x - 1.0) ** 2, None), -1.0, 0.45)[2]
        assert theta == _DAMPING == 0.5

    def test_rejected_path_halves_then_forces_smallest_step(self):
        thetas = []

        def trial_at(t):
            thetas.append(t)
            return t

        x, (e, aux), theta, ok = monitored_step(
            trial_at, lambda x: (-x, "aux"), 0.0, 0.5)
        assert not ok
        assert thetas == [0.5 / 2 ** k for k in range(8)]
        assert theta == x == 0.5 / 128
        assert (e, aux) == (-0.5 / 128, "aux")


class TestConstrainedAscent:
    @staticmethod
    def _radial(nr=48, rmax=0.4):
        # small radial ground-state problem (s 0.5, p 1.5, L 0.1; support
        # radius ~0.12) started from a uniform disk of radius 0.2
        params = KernelParams(0.5)
        prof = PowerProfile(p=1.5, s=0.5, L=0.1)
        dr = rmax / nr
        r = (np.arange(nr) + 0.5) * dr
        meas = math.pi * ((np.arange(nr) + 1) ** 2
                          - np.arange(nr) ** 2) * dr ** 2
        M = ring_potential_matrix(r, r, dr, params, n_angles=48)
        x0 = np.where(r < 0.2, 1.0, 0.0)
        x0 /= float(np.sum(meas * x0))
        residuals = []

        def evaluate(x):
            psi = M @ x
            e = 0.5 * float(np.sum(meas * x * psi)) \
                - float(np.sum(meas * prof.J(x)))
            return e, psi

        def mass(v):
            # the ascent measures only |f - x|, once per iteration, so with
            # kappa = 1 the recorded masses are the residuals
            residuals.append(float(np.sum(meas * v)))
            return residuals[-1]

        def run(**kw):
            residuals.clear()
            return constrained_ascent(
                x0, evaluate,
                lambda psi, mu: solve_multiplier(psi, meas, prof, 1.0, mu0=mu),
                mass, kappa=1.0, anderson=False, **kw)

        return run, residuals

    def test_plain_run_stops_at_first_residual_below_tol(self):
        run, residuals = self._radial()
        tol = 1e-6
        x, psi, mu, energy, residual, iters = run(tol=tol, max_iter=2000)
        # one residual per iteration; the last is the first <= tol
        assert len(residuals) == iters
        assert residual == residuals[-1] <= tol
        assert all(res > tol for res in residuals[:-1])
        last_above = residuals[-2]
        with pytest.raises(ConvergenceError) as exc:
            run(tol=tol, max_iter=iters - 1)
        assert exc.value.iterations == iters - 1
        assert exc.value.residual == last_above

    @staticmethod
    def _scripted(residuals, **kw):
        # a mixed run whose residual at iteration it is residuals[it - 1]:
        # the mass measure reads the script in place of mass(|g|)
        script = iter(residuals)
        return constrained_ascent(
            np.linspace(1.0, 2.0, 7), lambda x: (0.0, x),
            lambda psi, mu: (0.0, 0.5 * psi),
            lambda v: next(script), kappa=1.0, anderson=True,
            **kw)

    def test_mixed_run_stops_at_the_floor(self):
        # started at the fixed point the residual is 0 on iteration 1
        x0 = np.linspace(1.0, 2.0, 7)
        calls = []

        def target(psi, mu):
            calls.append(mu)
            return 0.0, x0.copy()

        out = constrained_ascent(
            x0, lambda x: (0.0, x), target, lambda v: float(np.sum(v)),
            kappa=1.0, tol=1e-6, max_iter=100, anderson=True)
        np.testing.assert_array_equal(out[0], x0)
        assert out[4] == 0.0 and out[5] == 1 and calls == [None]
        # residuals <= tol but above the floor do not stop the run
        out = self._scripted([1e-3, 1e-7, 1e-10, 1e-12, 0.0], tol=1e-6,
                             max_iter=100)
        assert out[4] == _RESIDUAL_FLOOR == 1e-12 and out[5] == 4

    def test_mixed_run_falls_back_on_a_plateau(self):
        # a residual stuck at 1e-8, above the floor and below tol, never
        # improves 0.7x again: the run stops 30 iterations after the first
        out = self._scripted(itertools.repeat(1e-8), tol=1e-6, max_iter=100)
        assert out[4] == 1e-8 and out[5] == 31
        with pytest.raises(ConvergenceError) as exc:
            self._scripted(itertools.repeat(1e-8), tol=1e-6, max_iter=30)
        assert exc.value.iterations == 30 and exc.value.residual == 1e-8

    def test_mixed_run_tol_below_floor(self):
        # tol under the floor: the first residual <= tol stops the run
        out = self._scripted([1e-3, 1e-12, 1e-13, 1e-14, 0.0], tol=1e-14,
                             max_iter=100)
        assert out[4] == 1e-14 and out[5] == 4
        with pytest.raises(ConvergenceError) as exc:
            self._scripted(itertools.repeat(1e-13), tol=1e-14, max_iter=50)
        assert exc.value.iterations == 50 and exc.value.residual == 1e-13

    def test_polish_budget_raises_named_error(self):
        sol = solve_limiting(0.5, 1.5, kappa=1.0, L=0.1, nr=48, n_angles=48,
                             tol=1e-5)
        with pytest.raises(ConvergenceError) as exc:
            to_state_2d(sol, 32, polish_iters=5)
        assert exc.value.iterations == 5
        assert exc.value.residual > 1e-8


class TestSolveLimiting:
    def test_initial_patch_has_positive_energy(self):
        prof = PowerProfile(p=1.5, s=0.5)
        params = KernelParams(0.5)
        _, _, energy = _initial_patch(prof, params, kappa=1.0)
        assert energy > 0

    def test_invariants_at_reference_point(self, limiting_canonical):
        sol = limiting_canonical
        assert sol.residuals["fixed_point"] <= 1e-6
        assert sol.omega0.mass() == pytest.approx(sol.kappa, rel=1e-9)
        assert sol.mu0 > 0
        assert sol.omega0.is_nonincreasing()
        assert sol.support_radius < 0.9 * sol.omega0.rmax
        assert sol.residuals["virial"] <= 0.02
        assert sol.residuals["multiplier_vs_integrals"] <= 0.02
        assert sol.residuals["multiplier_vs_energy"] <= 0.02

    def test_multiplier_energy_relation(self, limiting_canonical):
        # mu0 * kappa = A_gamma * E0 with A_gamma = 3 here
        sol = limiting_canonical
        assert sol.mu0 * sol.kappa == pytest.approx(3.0 * sol.E0, rel=0.02)

    @pytest.mark.parametrize("squeeze", [1.1, 1.2])
    def test_scaled_profile_breaks_virial(self, limiting_canonical, squeeze):
        # squeezing w(r) -> w(squeeze*r) rescales the two integrals by
        # different powers; the residual of the exact maximizer becomes
        # (1 - squeeze^(-2s)) / (1 + squeeze^(-2s)) analytically
        sol = limiting_canonical
        r = sol.omega0.radii()
        squeezed = np.interp(squeeze * r, r, sol.omega0.values, right=0.0)
        M = ring_potential_matrix(r, r, sol.omega0.dr, sol.params,
                                  n_angles=64)
        meas = RadialField(sol.omega0.nr, sol.omega0.rmax,
                           squeezed).annulus_measures()
        psi = M @ squeezed
        kin = float(np.sum(meas * squeezed * psi))
        jint = float(np.sum(meas * sol.profile.J(squeezed)))
        fake = LimitingSolution(
            s=sol.s, p=sol.p, L=sol.L, kappa=sol.kappa,
            omega0=RadialField(sol.omega0.nr, sol.omega0.rmax, squeezed),
            mu0=sol.mu0, E0=0.5 * kin - jint, kinetic=kin,
            j_integral=jint, support_radius=sol.support_radius,
            iterations=0, residuals={})
        lam = squeeze ** (-2.0 * sol.s)
        expect = (1.0 - lam) / (1.0 + lam)
        resid = virial_residual(fake)
        assert resid == pytest.approx(expect, rel=0.05)
        assert resid > 10 * sol.residuals["virial"]

    def test_report_keys(self, limiting_canonical):
        rep = limiting_canonical.report()
        assert set(rep) == {"s", "p", "kappa", "mu0", "E0", "support_radius",
                            "virial_residual", "multiplier_residual",
                            "iterations", "converged", "warnings"}
        assert rep["warnings"] == []

    def test_builds_two_ring_matrices(self, monkeypatch):
        # the sizing passes share one unit-spacing matrix; the certified
        # pass builds its own
        import gsqg.limiting
        built = []
        ring = gsqg.limiting.ring_potential_matrix

        def counting(r_targets, r_nodes, dr, params, n_angles=128):
            built.append((len(r_nodes), dr))
            return ring(r_targets, r_nodes, dr, params, n_angles)

        monkeypatch.setattr(gsqg.limiting, "ring_potential_matrix", counting)
        _unit_ring_matrix.cache_clear()
        sol = solve_limiting(0.5, 1.5, kappa=1.0, L=0.1, nr=256)
        assert len(built) == 2
        assert built[0] == (96, 1.0)
        assert built[1] == (256, sol.omega0.dr)

    def test_growth_bound_rejected(self):
        with pytest.raises(ParameterError):
            solve_limiting(0.5, 2.5, nr=32)

    def test_domain_too_small(self):
        with pytest.raises(DomainTooSmallError):
            solve_limiting(0.5, 1.5, nr=48, rmax=2.0, n_angles=48)

    def test_small_p_accepted_with_warning(self):
        sol = solve_limiting(0.5, 0.8, kappa=1.0, nr=64, n_angles=48,
                             tol=1e-5)
        assert any("uniqueness" in w for w in sol.warnings)
        assert sol.mu0 > 0


class TestLinearized:
    def test_polish_satisfies_2d_fixed_point(self, limiting_state_2d_96):
        # one multiplier solve on the state's potential maps the field to
        # within the polish tolerance of itself
        st = limiting_state_2d_96
        a = st.field.grid.cell_area
        _, f = solve_multiplier(st.psi, np.full(st.psi.shape, a), st.profile,
                                st.kappa, mu0=st.mu)
        residual = float(np.sum(np.abs(f - st.field.values))) * a / st.kappa
        assert residual <= 1e-8

    def test_identity_outside_coefficient_support(self, limiting_state_2d_96):
        st = limiting_state_2d_96
        g = st.field.grid
        X1, X2 = g.centers()
        # test function supported where psi - mu < 0 (outside the vortex)
        outside = (st.psi - st.mu) < -0.1 * st.mu
        phi_vals = np.where(outside, np.cos(X1) * X2, 0.0)
        phi_vals -= outside * (phi_vals.sum() / max(outside.sum(), 1))
        phi = Field2D(g, phi_vals)
        out = linearized_apply(phi, st)
        np.testing.assert_array_equal(out.values[outside], phi.values[outside])

    def test_linearity_exact(self, limiting_state_2d_96):
        st = limiting_state_2d_96
        rng = np.random.default_rng(3)
        shape = st.field.values.shape
        p1 = Field2D(st.field.grid, rng.standard_normal(shape))
        p2 = Field2D(st.field.grid, rng.standard_normal(shape))
        lhs = linearized_apply(
            Field2D(st.field.grid, 2.0 * p1.values - 0.5 * p2.values), st)
        rhs = 2.0 * linearized_apply(p1, st).values \
            - 0.5 * linearized_apply(p2, st).values
        np.testing.assert_allclose(lhs.values, rhs, rtol=1e-12, atol=1e-14)

    def test_translational_mode_nearly_in_kernel(self, limiting_state_2d_96):
        st = limiting_state_2d_96
        mode = translational_mode(st, axis=2)
        out = linearized_apply(mode, st, include_mean_term=False)
        assert lp_norm(out, 2) / lp_norm(mode, 2) <= 0.05

    def test_regime_gate_needs_p_above_one(self):
        sol = solve_limiting(0.5, 0.9, kappa=1.0, nr=48, n_angles=48,
                             tol=1e-4)
        st = to_state_2d(sol, 32, polish_iters=40, polish_tol=1e-4)
        phi = Field2D(st.field.grid, np.zeros_like(st.field.values))
        with pytest.raises(RegimeError):
            linearized_apply(phi, st)
        with pytest.raises(RegimeError):
            spectral_gap_estimate(st, method="dense")


class TestSpectralGap:
    def test_dense_and_iterative_agree(self, limiting_canonical):
        st = to_state_2d(limiting_canonical, 48)
        dense = spectral_gap_estimate(st, method="dense")
        iterative = spectral_gap_estimate(st, method="iterative")
        assert dense["gap"] == pytest.approx(iterative["gap"], rel=1e-3)

    def test_translational_kernel_without_projection(self, limiting_canonical):
        st = to_state_2d(limiting_canonical, 48)
        dense = spectral_gap_estimate(st, method="dense")
        small = dense["unprojected_smallest"]
        # two near-zero singular values (the translations), then a gap
        assert small[1] < 0.02 * dense["gap"]
        assert small[2] > 10 * small[1]

    def test_zeroed_coefficient_gives_identity(self, limiting_canonical):
        st = to_state_2d(limiting_canonical, 48)
        stz = type(st)(field=st.field,
                       psi=np.zeros_like(st.psi),  # coefficient (psi-mu)+ = 0
                       mu=1.0, E0=st.E0, s=st.s, p=st.p, L=st.L,
                       kappa=st.kappa)
        dense = spectral_gap_estimate(stz, method="dense")
        assert dense["gap"] == 1.0

    def test_resource_cap(self, limiting_state_2d_96):
        with pytest.raises(ResourceLimitError):
            spectral_gap_estimate(limiting_state_2d_96, method="dense",
                                  max_cells=10)
