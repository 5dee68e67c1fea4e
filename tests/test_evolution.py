import math

import numpy as np
import pytest

from gsqg.errors import ConvergenceError, DomainError, ParameterError
from gsqg.evolution import (
    _CFL_MAX,
    _MAX_DT_HALVINGS,
    EvolutionConfig,
    _bilinear_stencil,
    _cr_weights,
    _recenter,
    _restore_sum,
    _sample_bilinear,
    advect_step,
    evolve,
    perturb,
    stability_experiment,
    support_touches_wall,
    window_outflow,
)
from gsqg.fields import Field2D, Grid2D, lp_norm, mass
from gsqg.kernels import riesz_constant, velocity_pair_grid


def blob_field(n=96, center=(2.0, 0.0), radius=0.4, x1span=(1.0, 3.0)):
    g = Grid2D(n, n, x1span[0], x1span[1], -0.5 * (x1span[1] - x1span[0]),
               0.5 * (x1span[1] - x1span[0]))
    X1, X2 = g.centers()
    r2 = (X1 - center[0]) ** 2 + (X2 - center[1]) ** 2
    vals = np.clip(1.0 - r2 / radius ** 2, 0.0, None) ** 1.5
    return Field2D(g, vals, nonneg=True)


S = 0.5  # kernel order of the module's fields


def _sample_bicubic_reference(arr, fx, fy):
    """Reference: Catmull-Rom on the unpadded array with its own floor,
    clip and fraction, as before the departure stencil was shared."""
    ny, nx = arr.shape
    i0 = np.floor(fx).astype(int)
    j0 = np.floor(fy).astype(int)
    usable = (i0 >= 1) & (i0 <= nx - 3) & (j0 >= 1) & (j0 <= ny - 3)
    i0c = np.clip(i0, 1, nx - 3)
    j0c = np.clip(j0, 1, ny - 3)
    wx = _cr_weights(fx - i0c)
    wy = _cr_weights(fy - j0c)
    flat = arr.ravel()
    corner = (j0c - 1) * nx + (i0c - 1)
    val = np.empty_like(fx, dtype=float)
    row = np.empty_like(val)
    out = np.zeros_like(val)
    for a in range(4):
        row.fill(0.0)
        for b in range(4):
            np.take(flat[a * nx + b:], corner, out=val, mode="clip")
            np.multiply(wx[b], val, out=val)
            np.add(row, val, out=row)
        np.multiply(wy[a], row, out=row)
        np.add(out, row, out=out)
    return out, usable


def _advect_step_reference(field, u1, u2, dt):
    """Reference: the bicubic step with the departure points passed to
    _sample_bicubic_reference, as before the departure stencil was shared."""
    g = field.grid
    II, JJ = np.meshgrid(np.arange(g.nx, dtype=float),
                         np.arange(g.ny, dtype=float))
    mid = _bilinear_stencil(u1.shape, II - 0.5 * dt * u1 / g.h1,
                            JJ - 0.5 * dt * u2 / g.h2)
    fxd = II - dt * _sample_bilinear(u1, mid) / g.h1
    fyd = JJ - dt * _sample_bilinear(u2, mid) / g.h2
    dep = _bilinear_stencil(field.values.shape, fxd, fyd, ring=1)
    lin, lo, hi = _sample_bilinear(np.pad(field.values, 1), dep, bounds=True)
    cub, usable = _sample_bicubic_reference(field.values, fxd, fyd)
    new_vals = np.where(usable, np.clip(cub, lo, hi), lin)
    target = (float(np.sum(field.values))
              - window_outflow(field, u1, u2, dt) / g.cell_area)
    new_vals = _restore_sum(new_vals, lo, hi, target)
    new_field = Field2D(g, new_vals, nonneg=field.nonneg)
    return new_field, mass(field) - mass(new_field)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            EvolutionConfig(T=-1.0)
        with pytest.raises(ParameterError):
            EvolutionConfig(T=1.0, dt=2.0)

    @pytest.mark.parametrize("bad", [dict(diag_every=0), dict(diag_every=-3),
                                     dict(cfl=0.0), dict(cfl=-0.4),
                                     dict(cfl=math.nan),
                                     dict(snapshot_every=-1),
                                     dict(cfl=0.8), dict(cfl=5.0)])
    def test_numeric_knobs_rejected(self, bad):
        with pytest.raises(ParameterError):
            EvolutionConfig(T=1.0, **bad)

    def test_cfl_ceiling_accepted(self):
        assert EvolutionConfig(T=1.0, cfl=_CFL_MAX).cfl == 0.5

    def test_knobs(self):
        from dataclasses import fields
        assert [f.name for f in fields(EvolutionConfig)] == [
            "dt", "T", "cfl", "diag_every", "snapshot_every"]


class TestVelocity:
    def test_self_induced_drift_matches_point_pair(self):
        # far-from-wall blob: velocity at its exact center is the
        # image-induced drift -c_s (2-2s) kappa (2a)^(2s-3) e2 + O((R/a)^2)
        from oracles import direct_sum

        a = 8.0
        f = blob_field(n=128, center=(a, 0.0), radius=0.35,
                       x1span=(a - 1.0, a + 1.0))
        kappa = mass(f)
        u = direct_sum(f, [[a, 0.0]], S, velocity=True,
                       halfplane=True)[0]
        expect = -riesz_constant(S) * (2 - 2 * S) * kappa \
            * (2 * a) ** (2 * S - 3)
        assert u[1] == pytest.approx(expect, rel=0.05)
        assert abs(u[0]) < 0.05 * abs(expect)

    def test_linearity(self):
        f = blob_field(n=48)
        u1a, u2a = velocity_pair_grid(f, S)
        f2 = Field2D(f.grid, 2.0 * f.values, nonneg=True)
        u1b, u2b = velocity_pair_grid(f2, S)
        np.testing.assert_allclose(u1b, 2 * u1a, rtol=1e-12, atol=1e-16)
        np.testing.assert_allclose(u2b, 2 * u2a, rtol=1e-12, atol=1e-16)

    def test_wall_touch_detector(self):
        g = Grid2D(8, 8, 0.0, 1.0, -0.5, 0.5)
        vals = np.zeros((8, 8))
        vals[3, 0] = 1.0
        assert support_touches_wall(Field2D(g, vals))
        vals2 = np.zeros((8, 8))
        vals2[3, 4] = 1.0
        assert not support_touches_wall(Field2D(g, vals2))


class TestAdvection:
    def test_bicubic_matches_reference_loop(self):
        from gsqg.evolution import _sample_bicubic
        rng = np.random.default_rng(4)
        arr = rng.random((23, 17))
        fx = rng.uniform(-2.0, 18.0, (23, 17))
        fy = rng.uniform(-2.0, 24.0, (23, 17))
        dep = _bilinear_stencil(arr.shape, fx, fy, ring=1)
        out, usable = _sample_bicubic(np.pad(arr, 1), dep)
        i0 = np.floor(fx).astype(int)
        j0 = np.floor(fy).astype(int)
        assert np.array_equal(usable, (i0 >= 1) & (i0 <= 17 - 3)
                              & (j0 >= 1) & (j0 <= 23 - 3))
        assert 0 < np.count_nonzero(usable) < usable.size
        i0 = np.clip(i0, 1, 17 - 3)
        j0 = np.clip(j0, 1, 23 - 3)
        wx, wy = _cr_weights(fx - i0), _cr_weights(fy - j0)
        ref = np.zeros_like(fx)
        for a in range(4):
            row = np.zeros_like(fx)
            for b in range(4):
                row += wx[b] * arr[j0 - 1 + a, i0 - 1 + b]
            ref += wy[a] * row
        assert np.array_equal(out[usable], ref[usable])

    @pytest.mark.parametrize("shape", [(23, 17), (40, 96), (64, 31),
                                       (48, 48)])
    @pytest.mark.parametrize("cells", [0.3, 2.5, 9.0])
    def test_matches_unshared_stencil(self, shape, cells):
        # random velocities of up to `cells` cells per step send departure
        # points past all four window edges; the shared stencil changes
        # no bit of the step
        rng = np.random.default_rng(shape[0] * 131 + shape[1])
        ny, nx = shape
        g = Grid2D(nx, ny, 0.5, 2.0, -1.0, 1.0)
        vals = rng.random(shape) * (rng.random(shape) > 0.3)
        f = Field2D(g, vals, nonneg=True)
        dt = 0.05
        u1 = rng.uniform(-cells, cells, shape) * g.h1 / dt
        u2 = rng.uniform(-cells, cells, shape) * g.h2 / dt
        out, lost, _ = advect_step(f, u1, u2, dt)
        ref, ref_lost = _advect_step_reference(f, u1, u2, dt)
        assert np.array_equal(out.values, ref.values)
        assert lost == ref_lost

    def test_zero_velocity_identity(self):
        f = blob_field(n=64)
        z = np.zeros_like(f.values)
        out, lost, outflow = advect_step(f, z, z, 0.1)
        assert np.array_equal(out.values, f.values)
        assert lost == outflow == 0.0

    def test_aligned_uniform_shift_exact(self):
        f = blob_field(n=64)
        g = f.grid
        dt = 0.05
        v = g.h2 / dt
        out, _, _ = advect_step(f, np.zeros_like(f.values),
                                np.full_like(f.values, v), dt)
        np.testing.assert_array_equal(out.values[2:-2, 2:-2],
                                      f.values[1:-3, 2:-2])

    def test_solid_rotation_low_diffusion(self):
        # rigid rotation of a radial blob: invariant within interpolation
        # diffusion, L2 decay at most 1% per revolution
        g = Grid2D(128, 128, 0.0, 2.0, -1.0, 1.0)
        X1, X2 = g.centers()
        f = Field2D(g, np.exp(-((X1 - 1.0) ** 2 + X2 ** 2) / 0.08),
                    nonneg=True)
        om = 2.0
        u1, u2 = -om * X2, om * (X1 - 1.0)
        speed = float(np.max(np.hypot(u1, u2)))
        n_steps = int(math.ceil(2 * math.pi / om / (0.4 * g.h1 / speed)))
        dt = 2 * math.pi / om / n_steps
        cur = f
        for _ in range(n_steps):
            cur, _, _ = advect_step(cur, u1, u2, dt)
        l2_0 = lp_norm(f, 2)
        decay = (l2_0 - lp_norm(cur, 2)) / l2_0
        err = lp_norm(Field2D(g, cur.values - f.values), 2) / l2_0
        assert decay <= 0.01
        assert err <= 0.01

    def test_monotone_no_new_extrema(self):
        rng = np.random.default_rng(0)
        f = blob_field(n=48)
        u1 = rng.standard_normal(f.values.shape) * 0.3
        u2 = rng.standard_normal(f.values.shape) * 0.3
        out, _, _ = advect_step(f, u1, u2, 0.02)
        assert out.values.max() <= f.values.max()
        assert out.values.min() >= 0.0

    def test_outflow_zero_inflow(self):
        f = blob_field(n=48, center=(2.8, 0.0), radius=0.3)
        push = np.full_like(f.values, 5.0)
        out, lost, outflow = advect_step(f, push, np.zeros_like(f.values),
                                         0.05)
        assert lost > 0
        assert lost == pytest.approx(outflow, rel=1e-12)
        assert out.values.min() >= 0.0

    def test_solid_rotation_conserves_mass(self):
        # interior rotation of a compact blob: the clamp clips the smooth
        # peak, only interpolation tails reach the window edges, and the
        # mass budget (old mass minus window outflow) holds to roundoff
        g = Grid2D(64, 64, 0.0, 2.0, -1.0, 1.0)
        X1, X2 = g.centers()
        r2 = (X1 - 1.0) ** 2 + X2 ** 2
        f = Field2D(g, np.clip(1.0 - r2 / 0.25, 0.0, None) ** 1.5,
                    nonneg=True)
        om = 2.0
        u1, u2 = -om * X2, om * (X1 - 1.0)
        speed = float(np.max(np.hypot(u1, u2)))
        n_steps = int(math.ceil(2 * math.pi / om / (0.4 * g.h1 / speed)))
        dt = 2 * math.pi / om / n_steps
        cur = f
        outflow = 0.0
        for _ in range(n_steps):
            out_k = window_outflow(cur, u1, u2, dt)
            cur, lost, outflow_k = advect_step(cur, u1, u2, dt)
            assert outflow_k == out_k
            assert abs(lost - out_k) <= 1e-14 * mass(f)
            outflow += out_k
        assert outflow <= 1e-6 * mass(f)
        assert lp_norm(cur, math.inf) < lp_norm(f, math.inf)
        assert cur.values.min() >= 0.0
        assert abs(mass(cur) - (mass(f) - outflow)) <= 1e-12 * mass(f)

    @pytest.mark.parametrize("axis, cells", [(1, 0.4), (2, -2.5)])
    def test_lost_is_window_edge_flux(self, axis, cells):
        # uniform flow out through one edge: the mass change is the swept
        # strip of the edge cells, whole cells plus the fractional rest
        center = (2.8, 0.0) if axis == 1 else (2.0, -0.8)
        f = blob_field(n=48, center=center, radius=0.3)
        g = f.grid
        dt = 0.05
        zero = np.zeros_like(f.values)
        if axis == 1:
            u1, u2 = np.full_like(f.values, cells * g.h1 / dt), zero
            strip = f.values[:, ::-1]
        else:
            u1, u2 = zero, np.full_like(f.values, cells * g.h2 / dt)
            strip = f.values.T
        whole = int(abs(cells))
        swept = (np.sum(strip[:, :whole])
                 + (abs(cells) - whole) * np.sum(strip[:, whole]))
        flux = float(swept) * g.cell_area
        assert flux > 0
        assert window_outflow(f, u1, u2, dt) == pytest.approx(flux, rel=1e-12)
        out, lost, outflow = advect_step(f, u1, u2, dt)
        assert lost == pytest.approx(flux, rel=1e-12)
        assert outflow == window_outflow(f, u1, u2, dt)
        assert mass(out) == pytest.approx(mass(f) - flux, rel=1e-12)
        assert out.values.min() >= 0.0
        assert out.values.max() <= f.values.max()

    def test_no_inflow_at_upwind_edge(self):
        # density on the inflow edge: the upwind column takes zero from
        # beyond the window, so its sample is 0.6 (inflow would make it 1),
        # and the block moves 0.4 cells with its mass unchanged.  The 4-wide
        # block's far edge is clipped bicubic, 0.376 in place of 0.4; the
        # mass restore spreads that deficit over every stencil with room,
        # the upwind column included, which the 1-wide block never needs
        g = Grid2D(32, 32, 0.0, 1.0, 0.0, 1.0)
        dt = 0.1
        for width in (1, 4):
            vals = np.zeros((32, 32))
            vals[:, :width] = 1.0
            f = Field2D(g, vals, nonneg=True)
            out, lost, outflow = advect_step(
                f, np.full_like(vals, 0.4 * g.h1 / dt), np.zeros_like(vals),
                dt)
            assert lost == outflow == 0.0
            assert np.all(out.values[:, width + 1:] == 0.0)
            assert np.all(out.values[:, 1:width] == 1.0)
            edge = out.values[:, 0]
            if width == 1:
                assert np.all(edge == 0.6)
                assert np.all(out.values[:, 1] == 0.4)
            else:
                assert np.all((0.6 < edge) & (edge < 0.62))

    def test_recenter_zero_field_stays_put(self):
        # a zero field has no center of mass: the window does not move
        f = blob_field(n=32)
        zero = Field2D(f.grid, np.zeros_like(f.values), nonneg=True)
        out, shift = _recenter(zero)
        assert out is zero and shift == (0, 0)


class TestEvolve:
    def test_conservation_at_rest(self):
        # all diagnostics constant to machine precision when u is frozen to 0
        f = blob_field(n=48)
        cur = f
        vals0 = (mass(f), lp_norm(f, 2), lp_norm(f, math.inf))
        for _ in range(4):
            cur, _, _ = advect_step(cur, np.zeros_like(f.values),
                                    np.zeros_like(f.values), 0.1)
        assert (mass(cur), lp_norm(cur, 2), lp_norm(cur, math.inf)) == vals0

    def test_short_run_diagnostics(self):
        f = blob_field(n=64)
        cfg = EvolutionConfig(T=0.3, diag_every=5, snapshot_every=2)
        rep = evolve(f, S, cfg, reference=f)
        assert rep.steps >= 1
        assert rep.drift("mass") <= 1e-3
        assert all(rep.linf[i + 1] <= rep.linf[i] * (1 + 1e-14)
                   for i in range(len(rep.linf) - 1))
        assert sorted(rep.snapshots) == list(range(2, rep.steps + 1, 2))
        assert len(rep.rows()) == len(rep.times)
        # mass budget: what the window edges let out, and the rest
        assert rep.outflow >= rep.outflow_max >= 0.0
        assert abs(rep.scheme_error()) <= 1e-12 * rep.mass[0]

    def test_cfl_halving_then_abort(self):
        # dt at 2^k times the CFL step: k halvings are allowed, k + 1 not
        f = blob_field(n=48)
        u1, u2 = velocity_pair_grid(f, S)
        dt_cfl = 0.4 * f.grid.h1 / float(np.max(np.hypot(u1, u2)))
        dt = 2 ** _MAX_DT_HALVINGS * dt_cfl
        rep = evolve(f, S, EvolutionConfig(T=dt, dt=dt))
        assert rep.steps == 2 ** _MAX_DT_HALVINGS
        assert sum("dt halved" in m for m in rep.flags) == _MAX_DT_HALVINGS
        with pytest.raises(ConvergenceError):
            evolve(f, S, EvolutionConfig(T=4 * dt, dt=4 * dt))

    def test_negative_input_rejected(self):
        g = Grid2D(8, 8, 0.0, 1.0, -0.5, 0.5)
        f = Field2D(g, -np.ones((8, 8)))
        with pytest.raises(DomainError):
            evolve(f, S, EvolutionConfig(T=0.1))

    def test_steady_pair_stays_put_short_horizon(self, pair_regime):
        # the converged traveling profile under its own dynamics: over a
        # couple hundred steps the orbital distance stays at the scheme floor
        sol = pair_regime[0.2]
        f = sol.omega
        u1, u2 = velocity_pair_grid(f, sol.problem.profile.s)
        h = min(f.grid.h1, f.grid.h2)
        dt = 0.4 * h / float(np.max(np.hypot(u1, u2)))
        cfg = EvolutionConfig(T=200 * dt, dt=dt, diag_every=50)
        rep = evolve(f, sol.problem.profile.s, cfg, reference=f,
                     speed_hint=sol.problem.speed)
        x1 = f.grid.x1_centers()
        norm = (lp_norm(f, 1) + lp_norm(f, 2)
                + float(np.sum(np.abs(f.values) * x1[None, :])
                        * f.grid.cell_area))
        assert max(rep.orbital_distance) <= 0.02 * norm
        assert rep.drift("mass") <= 1e-4
        assert rep.drift("impulse") <= 1e-3


class TestPerturbations:
    def test_kinds_preserve_mass_and_sign(self, pair_regime):
        f = pair_regime[0.2].omega
        rng = np.random.default_rng(3)
        for kind in ("none", "bump", "shear", "dimple"):
            out = perturb(f, kind, 0.05, rng)
            assert mass(out) == pytest.approx(mass(f), rel=1e-12)
            assert out.values.min() >= 0.0
            if kind != "none":
                assert not np.array_equal(out.values, f.values)

    def test_unknown_kind(self, pair_regime):
        with pytest.raises(ParameterError):
            perturb(pair_regime[0.2].omega, "wiggle", 0.1,
                    np.random.default_rng(0))

    def test_experiment_rows(self, pair_regime):
        sol = pair_regime[0.2]
        f = sol.omega
        u1, u2 = velocity_pair_grid(f, sol.problem.profile.s)
        h = min(f.grid.h1, f.grid.h2)
        dt = 0.4 * h / float(np.max(np.hypot(u1, u2)))
        cfg = EvolutionConfig(T=30 * dt, dt=dt, diag_every=10)
        rows = stability_experiment(
            f, sol.problem.profile.s,
            [("none", 0.0, 0), ("bump", 0.04, 1), ("bump", 0.02, 1)],
            cfg, speed_hint=sol.problem.speed, seed=0)
        assert rows[0]["delta_meas"] == 0.0
        assert rows[1]["delta_meas"] > rows[2]["delta_meas"] > 0
        for r in rows:
            assert r["sup_distance"] >= r["final_distance"] >= 0 or \
                r["sup_distance"] >= 0
