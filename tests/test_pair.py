import numpy as np
import pytest

from gsqg.errors import DomainError, ParameterError
from gsqg.fields import (
    Field2D,
    mass,
    orbital_distance,
    read_field,
    rearrangement_equimeasurable,
    write_field,
)
from gsqg.kernels import potential_free_grid, riesz_constant
from gsqg.limiting import _RESIDUAL_FLOOR, radial_to_field, solve_limiting
from gsqg.pair import (
    ConstraintActiveError,
    PairProblem,
    ball_mask,
    desingularization_check,
    energy_E_eps,
    location_residual,
    maximize_over_rearrangement_class,
    multiplier_pair_residual,
    pair_grid,
    rearrangement_shift_experiment,
    rebuild_solution,
    s_eps_norm,
    solve_pair,
    steiner_asymmetry,
    weak_form_battery,
    weak_form_residual,
)
from gsqg.profiles import PowerProfile

from conftest import EPS_SET, REGIME_L
from oracles import reflect_oddify


def _weak_form_full_plane(sol, battery):
    """Reference: the weak form on the full-plane grid of the odd extension
    (window, wall gap and their mirror image), with the free potential of
    the oddified field and maxima over that whole grid."""
    pb = sol.problem
    w_tr = reflect_oddify(sol.omega)
    g = w_tr.grid
    psi = potential_free_grid(w_tr, pb.profile.s)
    v1 = np.zeros_like(psi)
    v2 = np.zeros_like(psi)
    v1[1:-1, :] = (psi[2:, :] - psi[:-2, :]) / (2 * g.h2)
    v2[:, 1:-1] = -(psi[:, 2:] - psi[:, :-2]) / (2 * g.h1)
    v2 += pb.speed
    X1, X2 = g.centers()
    a = g.cell_area
    l1 = float(np.sum(np.abs(w_tr.values))) * a
    vmax = float(np.max(np.hypot(v1, v2)))
    out = {}
    for name, grad in battery:
        g1, g2 = grad(X1, X2)
        integral = float(np.sum(w_tr.values * (v1 * g1 + v2 * g2))) * a
        gmax = float(np.max(np.hypot(g1, g2)))
        out[name] = abs(integral) / (l1 * vmax * gmax)
    return out


class TestProblemGeometry:
    def test_speed_and_ball(self):
        pb = PairProblem(PowerProfile(p=1.5, s=0.5), kappa=1.0, W=1.0, eps=0.1)
        assert pb.speed == pytest.approx(0.1 ** 2, rel=1e-13)
        d0 = pb.constants.d0
        assert pb.ball_center == (pytest.approx(10 * d0), 0.0)
        assert pb.ball_radius == pytest.approx(5 * d0)

    def test_point_vortex_balance_is_d0(self):
        # the leading translation balance 2(1-s) c_s kappa^2 / (2 d)^(3-2s)
        # = W eps^(3-2s) kappa picks out exactly d = d0 after rescaling
        for s, kappa, W in ((0.5, 1.0, 1.0), (0.7, 2.0, 0.3)):
            prof = PowerProfile(p=min(1.2, 0.8 / (1 - s) + 0.1), s=s)
            pb = PairProblem(prof, kappa=kappa, W=W, eps=0.05)
            c = pb.constants
            d_tilde = 0.5 * (2 * (1 - s) * c.c_s * kappa / pb.speed) ** (
                1.0 / (3 - 2 * s))
            assert pb.eps * d_tilde == pytest.approx(c.d0, rel=1e-12)

    def test_window_snapped_and_inside_halfplane(self):
        pb = PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L), eps=0.1)
        g = pair_grid(pb, 96, support_estimate=0.12)
        assert g.x1min >= 0.0
        k = g.x1min / g.h1
        assert abs(k - round(k)) < 1e-9

    def test_window_needs_cells_inside_its_margins(self):
        # 4 margin cells on each side: n = 8 leaves none inside
        pb = PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L), eps=0.1)
        with pytest.raises(ParameterError):
            pair_grid(pb, 8, support_estimate=0.12)
        assert pair_grid(pb, 9, support_estimate=0.12).nx == 9

    @pytest.mark.parametrize("key", ["kappa", "W", "eps"])
    @pytest.mark.parametrize("value", [
        -1.0, 0.0, np.nan, np.inf, None, "0.1", True])
    def test_positive_parameters_required(self, key, value):
        # the problem checks its own kappa, W and eps: finite numbers > 0
        args = {"kappa": 1.0, "W": 1.0, "eps": 0.1, key: value}
        with pytest.raises(ParameterError, match=rf"\b{key} must"):
            PairProblem(PowerProfile(p=1.5, s=0.5), **args)



class TestControls:
    @pytest.mark.parametrize("tol,max_iter", [
        (0.0, 100), (1.0, 100), (np.inf, 100), (np.nan, 100), (1e-6, 0)])
    def test_checked_before_the_limiting_state_is_read(self, tol, max_iter):
        # solve_pair shares solve_limiting's check of tol and max_iter
        pb = PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L), eps=0.1)
        with pytest.raises(ParameterError, match="tol"):
            solve_pair(pb, None, n=32, tol=tol, max_iter=max_iter)


class TestEnergy:
    def test_zero_field(self):
        pb = PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L), eps=0.1)
        g = pair_grid(pb, 32, support_estimate=0.12)
        assert energy_E_eps(Field2D(g, np.zeros((g.ny, g.nx))), pb) == 0.0

    def test_compositional_identity(self):
        rng = np.random.default_rng(0)
        pb = PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L), eps=0.1)
        g = pair_grid(pb, 24, support_estimate=0.12)
        vals = rng.random((g.ny, g.nx))
        f = Field2D(g, vals, nonneg=True)
        from gsqg.kernels import potential_halfplane_grid
        from gsqg.fields import impulse
        psi = potential_halfplane_grid(f, pb.profile.s)
        expect = 0.5 * float(np.sum(vals * psi)) * g.cell_area \
            - pb.speed * impulse(f) \
            - float(np.sum(pb.profile.J(vals))) * g.cell_area
        assert energy_E_eps(f, pb) == pytest.approx(expect, rel=1e-13)


class TestLocationSides:
    def test_lhs_matches_image_double_sum(self):
        # -int w u2 from the pair velocity against the image double sum
        # 2(1-s) c_s sum_x sum_y w(x)(x1+y1) w(y) |x-ybar|^(2s-4) a^2
        from gsqg.pair import _location_sides

        rng = np.random.default_rng(4)
        pb = PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L), eps=0.1)
        g = pair_grid(pb, 16, support_estimate=0.12)
        f = Field2D(g, rng.random((g.ny, g.nx)), nonneg=True)
        X1, X2 = g.centers()
        x1, x2, w = X1.ravel(), X2.ravel(), f.values.ravel()
        s, a = pb.profile.s, g.cell_area
        c_s = riesz_constant(s)
        double_sum = sum(
            np.sum(w[k] * (x1[k] + x1) * w
                   * ((x1[k] + x1) ** 2 + (x2[k] - x2) ** 2) ** (s - 2.0))
            for k in range(w.size))
        expect = 2.0 * (1.0 - s) * c_s * double_sum * a * a
        assert _location_sides(f, pb)[0] == pytest.approx(expect, rel=1e-11)


class TestSolvePair:
    def test_invariants(self, pair_regime):
        for eps, sol in pair_regime.items():
            assert sol.residuals["fixed_point"] <= 1e-6
            assert mass(sol.omega) == pytest.approx(1.0, rel=1e-9)
            assert sol.ball_clearance > 2 * sol.omega.grid.h1
            assert sol.mu > 0
            # Steiner symmetry holds exactly after the final pass
            assert steiner_asymmetry(sol) <= 1e-10
            assert sol.warnings == []

    def test_support_radius_uniform_in_eps(self, pair_regime):
        radii = [pair_regime[e].support_radius for e in EPS_SET]
        assert max(radii) / min(radii) <= 1.25

    def test_multiplier_converges_to_limiting(self, pair_regime,
                                              limiting_regime):
        # |mu_eps - mu0| = O(eps^(2-2s)); the 10% band is an engineering
        # tolerance met from eps = 0.1 down, and the gap shrinks with eps
        mu0 = limiting_regime.mu0
        gap = {e: abs(pair_regime[e].mu - mu0) for e in EPS_SET}
        assert gap[0.1] <= 0.1 * mu0
        assert gap[0.1] < gap[0.2]

    def test_location_identity(self, pair_regime):
        for eps, sol in pair_regime.items():
            d_eps, gap, resid = location_residual(sol)
            assert resid <= 0.05
            assert gap <= 0.02 * sol.problem.constants.d0

    def test_multiplier_identities(self, pair_regime):
        for eps, sol in pair_regime.items():
            res = multiplier_pair_residual(sol)
            assert res["identity_mu"] <= 0.05
            assert res["identity_scaling"] <= 0.05

    def test_b_term_drops_at_reference_point(self, pair_regime):
        # B_gamma = 0 at s=1/2, p=3/2: the impulse term cannot influence the
        # multiplier identity, so doubling W inside that term changes nothing
        sol = pair_regime[0.1]
        pb = sol.problem
        c = pb.constants
        rhs = (c.A_gamma * sol.E0_part + c.B_gamma * pb.speed * sol.impulse
               + c.C_gamma * sol.cross_image)
        rhs_doubled = (c.A_gamma * sol.E0_part
                       + c.B_gamma * (2 * pb.speed) * sol.impulse
                       + c.C_gamma * sol.cross_image)
        assert rhs == rhs_doubled

    def test_energy_bracket(self, pair_regime, limiting_regime):
        e0 = limiting_regime.E0
        deficits = {}
        for eps, sol in pair_regime.items():
            assert sol.E_eps <= e0 + 1e-3
            deficits[eps] = e0 - sol.E_eps
            assert deficits[eps] > 0
        # deficit ~ eps^(2-2s): ratio near 2 at s = 1/2 with O(eps) slack
        ratio = deficits[0.2] / deficits[0.1]
        assert 1.4 <= ratio <= 2.6

    def test_multi_start_uniqueness_probe(self, limiting_regime):
        # uniqueness is probed empirically: a very different start (uniform
        # density over the constraint disk) converges to the same state up
        # to an x2 translate
        pb = PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L), eps=0.2)
        sol_a = solve_pair(pb, n=96, limiting=limiting_regime, tol=1e-6,
                           max_iter=2000)
        grid = sol_a.omega.grid
        uniform = Field2D(grid, ball_mask(grid, pb).astype(float),
                          nonneg=True)
        sol_b = solve_pair(pb, n=96, limiting=limiting_regime, tol=1e-6,
                           max_iter=3000, init_field=uniform)
        d, _ = orbital_distance(sol_b.omega, sol_a.omega,
                                -4 * grid.h2, 4 * grid.h2)
        norm = mass(sol_a.omega) * (1 + sol_a.omega.grid.x1max)
        assert d <= 0.02 * norm

    def test_stops_at_the_floor_and_ulp_stable(self, limiting_regime):
        # a converging solve stops at its first residual <= 1e-12, and a
        # 1-ulp change of the start moves d_eps by at most 1e-9 relative
        pb = PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L), eps=0.2)
        sol = solve_pair(pb, n=96, limiting=limiting_regime)
        assert sol.stop == "floor"
        assert sol.ascent_residual <= _RESIDUAL_FLOOR
        grid = sol.omega.grid
        init = radial_to_field(limiting_regime.omega0, grid,
                               center=pb.ball_center).values
        j, i = np.indices(init.shape)
        nudged = np.where(((i + j) % 2 == 0) & (init > 0),
                          np.nextafter(init, np.inf), init)
        again = solve_pair(pb, n=96, limiting=limiting_regime,
                           init_field=Field2D(grid, nudged))
        assert again.stop == "floor"
        assert abs(again.d_eps / sol.d_eps - 1.0) <= 1e-9

    def test_small_eps_reaches_the_floor(self):
        # solve-pair's default limiting state: with every multiplier image
        # symmetrized, eps 0.08 at n=192 stops at the floor; a map that
        # symmetrized only on a schedule stopped there on a plateau (2.7e-7)
        lim = solve_limiting(0.5, 1.5, kappa=1.0, L=REGIME_L, nr=256)
        pb = PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L), eps=0.08)
        sol = solve_pair(pb, lim, n=192)
        assert sol.stop == "floor"
        assert sol.ascent_residual <= _RESIDUAL_FLOOR

    def test_constraint_active_diagnosed_at_canonical_parameters(
            self, limiting_canonical):
        pb = PairProblem(PowerProfile(p=1.5, s=0.5), kappa=1.0, W=1.0, eps=0.1)
        with pytest.raises(ConstraintActiveError) as exc:
            solve_pair(pb, n=96, limiting=limiting_canonical, tol=1e-5,
                       max_iter=1200)
        sol = exc.value.solution
        assert sol is not None
        assert sol.ball_clearance <= 2 * sol.omega.grid.h1
        assert any("outside the asymptotic regime" in w for w in sol.warnings)

    def test_rebuild_matches_solution(self, pair_regime, tmp_path):
        sol = pair_regime[0.2]
        path = tmp_path / "omega.field"
        write_field(sol.omega, path)
        back = read_field(path)
        back.nonneg = True
        rebuilt = rebuild_solution(sol.problem, back)
        # solve_pair certifies through rebuild_solution and the field
        # round-trips exactly, so the reload reproduces every number
        assert rebuilt.mu == sol.mu
        assert rebuilt.E_eps == sol.E_eps
        assert rebuilt.d_eps == sol.d_eps
        assert rebuilt.residuals == sol.residuals
        assert set(sol.residuals) == {
            "fixed_point", "location", "multiplier", "steiner_asymmetry",
            "weak_form_max", "s_eps_sup"}
        assert rebuilt.residuals["fixed_point"] <= 1.5e-6

    def test_rebuild_image_potential_matches_direct_sum(self):
        # psi_image = free minus half-plane potential, against the oracle
        from oracles import direct_sum

        rng = np.random.default_rng(6)
        pb = PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L), eps=0.1)
        g = pair_grid(pb, 16, support_estimate=0.12)
        vals = rng.random((g.ny, g.nx)) * ball_mask(g, pb)
        f = Field2D(g, vals / (np.sum(vals) * g.cell_area), nonneg=True)
        X1, X2 = g.centers()
        tg = np.column_stack([X1.ravel(), X2.ravel()])
        direct = (direct_sum(f, tg, pb.profile.s)
                  - direct_sum(f, tg, pb.profile.s, halfplane=True))
        np.testing.assert_allclose(rebuild_solution(pb, f).psi_image,
                                   direct.reshape(g.ny, g.nx), rtol=1e-10)

    def test_rebuild_keeps_the_solver_potential(self):
        # psi_halfplane is the solver's G+ w itself, not free minus image,
        # and the whole battery transforms on the window grid only
        from gsqg.kernels import _spectra, potential_halfplane_grid

        rng = np.random.default_rng(7)
        pb = PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L), eps=0.1)
        g = pair_grid(pb, 16, support_estimate=0.12)
        vals = rng.random((g.ny, g.nx)) * ball_mask(g, pb)
        f = Field2D(g, vals / (np.sum(vals) * g.cell_area), nonneg=True)
        _spectra.cache_clear()
        sol = rebuild_solution(pb, f)
        assert _spectra.cache_info().currsize == 1
        np.testing.assert_array_equal(
            sol.psi_halfplane, potential_halfplane_grid(f, pb.profile.s))
        np.testing.assert_array_equal(sol.psi_image,
                                      sol.psi_free - sol.psi_halfplane)


class TestAsymptotics:
    def test_d_eps_rate(self, pair_regime):
        d0 = pair_regime[0.1].problem.constants.d0
        gaps = {e: abs(pair_regime[e].d_eps - d0) for e in EPS_SET}
        assert 2.5 <= gaps[0.2] / gaps[0.1] <= 6.0

    def test_s_eps_terms_scale(self, pair_regime):
        sups = {e: s_eps_norm(pair_regime[e]) for e in EPS_SET}
        # each term of the residual operator scales like eps^(2-2s);
        # the summed sup can cancel further (B_gamma = 0 here), so the rate
        # window applies to the dominant term magnitude
        for key in ("impulse_term_sup", "image_potential_sup"):
            ratio = sups[0.2][1][key] / sups[0.1][1][key]
            lo = 2.0 ** (2 - 2 * 0.5) / 1.5
            hi = 1.5 * 2.0 ** (2 - 2 * 0.5)
            assert lo <= ratio <= hi
        # and the sum is not larger than the dominant term
        for e in EPS_SET:
            assert sups[e][0] <= 1.5 * max(sups[e][1].values())

    def test_desingularization_rescaling(self, pair_regime, limiting_regime):
        # three eps spanning a factor 4; the rescaled support geometry and
        # the support radius itself stay uniform
        sol05 = solve_pair(
            PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L), kappa=1.0,
                        W=1.0, eps=0.05),
            n=192, limiting=limiting_regime, tol=1e-6, max_iter=3000)
        sols = [pair_regime[0.2], pair_regime[0.1], sol05]
        rep = desingularization_check(sols)
        rows = rep["per_eps"]
        for row in rows:
            assert row["mass_right"] == pytest.approx(1.0, rel=1e-9)
        ratios = [row["sup_dist_over_eps"] for row in rows]
        assert max(ratios) / min(ratios) <= 1.5
        radii = [s.support_radius for s in sols]
        assert max(radii) / min(radii) <= 1.25


class TestPotentialDecayShape:
    def test_halfplane_potential_profile_along_ray(self, pair_regime):
        # |G+ w(x)| is controlled by C * min(x1, x1^(2s-2/r)) along a ray
        # x2 = const: linear vanishing into the wall, power decay far out.
        # C is fitted on even-indexed sample points and checked on the rest.
        from oracles import direct_sum

        sol = pair_regime[0.1]
        pb = sol.problem
        r_exp = 1.2  # any r < 1/s makes the far exponent negative
        expo = 2 * pb.profile.s - 2.0 / r_exp
        x1s = np.concatenate([np.linspace(0.02, 0.3, 8),
                              np.linspace(0.5, 12.0, 14)])
        targets = np.column_stack([x1s, np.full_like(x1s, 0.05)])
        psi = direct_sum(sol.omega, targets, pb.profile.s, halfplane=True)
        shape = np.minimum(x1s, x1s ** expo)
        ratio = np.abs(psi) / shape
        c_fit = ratio[::2].max()
        assert np.all(ratio[1::2] <= 1.5 * c_fit)
        # near-wall linearity: |psi|/x1 stays bounded as x1 -> 0
        near = np.abs(psi[:3]) / x1s[:3]
        assert near.max() <= 3.0 * near.min()


class TestWeakForm:
    def test_battery_residuals_small(self, pair_regime):
        res = weak_form_residual(pair_regime[0.1])
        for name, val in res.items():
            assert val <= 0.02, f"{name}: {val}"

    def test_constant_test_function_exact_zero(self, pair_regime):
        sol = pair_regime[0.2]
        battery = [("const",
                    lambda X1, X2: (np.zeros_like(X1), np.zeros_like(X1)))]
        res = weak_form_residual(sol, battery=battery)
        assert res["const"] == 0.0

    @pytest.mark.parametrize("eps", EPS_SET)
    def test_window_route_matches_full_plane(self, pair_regime, eps,
                                             monkeypatch):
        # the odd symmetry folded onto the window reproduces the full-plane
        # sum, and reads the solver's potential without a transform.  The
        # default battery barely reaches the mirror image; x1*x2 weighs both
        # halves, and its gradient peaks at the window's outer corners.
        import gsqg.kernels

        sol = pair_regime[eps]
        product = [("product_x1x2", lambda X1, X2: (X2, X1))]
        ref = _weak_form_full_plane(sol, weak_form_battery(sol) + product)
        calls = []

        def spy(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("hat", "forward", "inverse"):
            monkeypatch.setattr(gsqg.kernels._Lattice, name,
                                spy(getattr(gsqg.kernels._Lattice, name)))
        res = weak_form_residual(sol)
        res.update(weak_form_residual(sol, battery=product))
        assert calls == []
        assert res.keys() == ref.keys()
        for name, val in res.items():
            assert val == pytest.approx(ref[name], rel=1e-6, abs=1e-15), name


class TestRearrangementAscent:
    def test_bathtub_single_step_placement(self):
        # reference = indicator of k cells: one step puts the k values on
        # the k cells with the largest transported stream function
        pb = PairProblem(PowerProfile(p=1.5, s=0.5, L=REGIME_L), eps=0.1)
        g = pair_grid(pb, 16, support_estimate=0.12)
        rng = np.random.default_rng(1)
        vals = np.zeros(g.ny * g.nx)
        vals[rng.choice(vals.size, size=9, replace=False)] = 1.0
        ref = Field2D(g, vals.reshape(g.ny, g.nx), nonneg=True)
        zeta, info = maximize_over_rearrangement_class(ref, pb, ref,
                                                       max_iter=1)
        from gsqg.kernels import potential_halfplane_grid
        psi = potential_halfplane_grid(ref, pb.profile.s) \
            - pb.speed * g.x1_centers()[None, :]
        order = np.argsort(-psi.ravel(), kind="stable")
        expect = np.zeros(g.ny * g.nx)
        expect[order[:9]] = 1.0
        np.testing.assert_array_equal(zeta.values.ravel(), expect)

    def test_trace_monotone_and_equimeasurable(self, pair_regime):
        sol = pair_regime[0.2]
        rng = np.random.default_rng(2)
        g = sol.omega.grid
        ref = Field2D(g, rng.random((g.ny, g.nx)) * ball_mask(g, sol.problem),
                      nonneg=True)
        zeta, info = maximize_over_rearrangement_class(ref, sol.problem, ref,
                                                       max_iter=40)
        trace = info["energy_trace"]
        assert all(trace[i + 1] >= trace[i] - 1e-10 * abs(trace[i])
                   for i in range(len(trace) - 1))
        assert rearrangement_equimeasurable(zeta, ref)

    def test_start_must_be_rearrangement(self, pair_regime):
        sol = pair_regime[0.2]
        with pytest.raises(DomainError):
            maximize_over_rearrangement_class(
                sol.omega, sol.problem,
                start=Field2D(sol.omega.grid, 2.0 * sol.omega.values,
                              nonneg=True))

    def test_collapse_to_translate(self, pair_regime):
        result = rearrangement_shift_experiment(pair_regime[0.2].omega,
                                                pair_regime[0.2].problem,
                                                shift_cells=5, max_iter=300)
        assert result["energy_trace_monotone"]
        assert result["equimeasurable"]
        assert result["collapsed_to_translate"], result

    def test_truncation_optimality(self, pair_regime):
        # with mu > 0, no support cell sits below mu: zeroing the cells of
        # negative transported stream function removes no mass and cannot
        # raise the objective
        sol = pair_regime[0.1]
        assert sol.mu > 0
        x1 = sol.omega.grid.x1_centers()
        psi_t = sol.psi_halfplane - sol.problem.speed * x1[None, :]
        supp = sol.omega.values > 1e-12 * sol.omega.values.max()
        assert supp.any()
        assert np.all(psi_t[supp] - sol.mu >= -1e-10 * abs(sol.mu))
