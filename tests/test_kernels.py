import math

import numpy as np
import pytest

from gsqg.errors import ParameterError
from gsqg.fields import Field2D, Grid2D
from gsqg.kernels import (
    potential_free_grid,
    potential_halfplane_grid,
    riesz_constant,
    singular_cell_weight,
    velocity_pair_grid,
)
from gsqg.limiting import ring_potential_matrix
from oracles import direct_sum

# frozen from a 40-digit mpmath evaluation of Gamma(1-s)/(2^(2s) pi Gamma(s))
C_075 = 0.3329679355017003
C_025 = 0.07607427986246771
# frozen from the exact polar reduction of the square-cell kernel integral,
# 8 * int_0^{pi/4} ((h/2)/cos a)^(2s) / (2s) da * c_s  at s=0.75, h=0.1
SQUARE_CELL_075 = 0.018613269960259382


# grids whose padded FFT lattices have odd lengths or an odd ny
PADDING_GRIDS = pytest.mark.parametrize("grid", [
    # odd padded lengths (27 x 35), source touching the wall
    Grid2D(13, 17, 0.0, 1.3, -0.85, 0.85),
    # padded 40 x 18, odd ny
    Grid2D(20, 9, 0.15, 2.15, -0.45, 0.45),
], ids=["13x17", "20x9"])


class TestRieszConstant:
    def test_half_is_inverse_two_pi(self):
        assert riesz_constant(0.5) == pytest.approx(1.0 / (2.0 * math.pi),
                                                    rel=1e-12)

    def test_against_high_precision_oracle(self):
        assert riesz_constant(0.75) == pytest.approx(C_075, rel=1e-12)
        assert riesz_constant(0.25) == pytest.approx(C_025, rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.3, 1.7])
    def test_open_interval(self, s):
        with pytest.raises(ParameterError):
            riesz_constant(s)

    def test_gamma_anchor_values(self):
        assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert math.gamma(1.0) == 1.0
        assert math.gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2,
                                                rel=1e-15)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.3, 1.7])
    @pytest.mark.parametrize("op", [
        lambda f, s: singular_cell_weight(f.grid.h1, s),
        lambda f, s: direct_sum(f, [[0.5, 0.0]], s),
        potential_free_grid,
        lambda f, s: ring_potential_matrix([0.5], [0.5], 1.0, s, 64),
    ], ids=["singular_cell_weight", "direct_sum", "potential_free_grid",
            "ring_potential_matrix"])
    def test_kernels_take_s_in_open_interval(self, op, s):
        # c_s is not an argument: each kernel derives it from s, which must
        # lie in (0, 1)
        f = Field2D(Grid2D(4, 4, 0.0, 1.0, -0.5, 0.5), np.ones((4, 4)))
        with pytest.raises(ParameterError):
            op(f, s)


class TestSingularCellWeight:
    def test_collapses_to_one(self):
        # s=1/2, h=sqrt(pi): rho=1 and c_s * pi / s = 1
        assert singular_cell_weight(math.sqrt(math.pi), 0.5) == \
            pytest.approx(1.0, rel=1e-14)

    def test_scaling_in_h(self):
        s = 0.35
        w1 = singular_cell_weight(0.2, s)
        w2 = singular_cell_weight(0.1, s)
        assert w1 / w2 == pytest.approx(2.0 ** (2 * s), rel=1e-13)

    def test_disk_model_vs_square_cell_quadrature(self):
        # the 3% budget is the accepted disk-vs-square model error
        w = singular_cell_weight(0.1, 0.75)
        assert abs(w - SQUARE_CELL_075) / SQUARE_CELL_075 < 0.03

    def test_bad_width(self):
        with pytest.raises(ParameterError):
            singular_cell_weight(0.0, 0.5)


def _disk_field(n, s_support=1.0, box=1.2):
    g = Grid2D(n, n, -box, box, -box, box)
    X1, X2 = g.centers()
    vals = ((X1 ** 2 + X2 ** 2) <= s_support ** 2).astype(float)
    return Field2D(g, vals, nonneg=True)


class TestPotentialFree:
    def test_zero_field(self):
        f = Field2D(Grid2D(8, 8, -1, 1, -1, 1), np.zeros((8, 8)))
        out = direct_sum(f, [[0.1, 0.2], [0.5, -0.5]], 0.5)
        assert np.all(out == 0.0)

    def test_unit_disk_center_value(self):
        # int_{|y|<1} (2 pi |y|)^{-1} dy = 1 exactly at s = 1/2
        f = _disk_field(128)
        val = direct_sum(f, [[0.0, 0.0]], 0.5)[0]
        assert val == pytest.approx(1.0, rel=0.04)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        g = Grid2D(16, 12, 0.0, 1.6, -0.6, 0.6)
        v1 = rng.random((12, 16))
        v2 = rng.random((12, 16))
        s = 0.6
        t = [[0.3, 0.1], [1.1, -0.2]]
        a, b = 2.5, -1.25
        lhs = direct_sum(Field2D(g, a * v1 + b * v2), t, s)
        rhs = a * direct_sum(Field2D(g, v1), t, s) \
            + b * direct_sum(Field2D(g, v2), t, s)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_against_refined_quadrature(self):
        # continuum bump sampled at two resolutions; targets sit at coarse
        # cell centers, which a 3x refinement keeps as cell centers
        def bump(X1, X2):
            r2 = (X1 - 0.1) ** 2 + (X2 + 0.15) ** 2
            return np.clip(1 - r2 / 1.1, 0.0, None) ** 2

        s = 0.5
        g0 = Grid2D(72, 72, -2.0, 2.0, -2.0, 2.0)
        X1, X2 = g0.centers()
        targets = [[X1[j, i], X2[j, i]] for (i, j) in
                   ((36, 36), (42, 30), (27, 39))]
        vals = {}
        for n in (72, 216):
            g = Grid2D(n, n, -2.0, 2.0, -2.0, 2.0)
            Y1, Y2 = g.centers()
            vals[n] = direct_sum(Field2D(g, bump(Y1, Y2)), targets, s)
        np.testing.assert_allclose(vals[72], vals[216], rtol=0.01)

    def test_grid_fft_matches_direct(self):
        rng = np.random.default_rng(6)
        g = Grid2D(14, 10, 0.2, 1.6, -0.5, 0.5)
        f = Field2D(g, rng.random((10, 14)))
        s = 0.45
        X1, X2 = g.centers()
        tg = np.column_stack([X1.ravel(), X2.ravel()])
        direct = direct_sum(f, tg, s).reshape(10, 14)
        np.testing.assert_allclose(potential_free_grid(f, s), direct,
                                   rtol=1e-12, atol=1e-15)

    def test_refinement_convergence_factor(self):
        # fixed smooth field: successive refinements shrink the deviation by
        # >= 1.5 per doubling, i.e. >= 1.5^log2(3) = 1.9 on this 3x ladder
        # (3x keeps the evaluation points at cell centers)
        def bump(X1, X2):
            r2 = (X1 - 0.2) ** 2 + X2 ** 2
            return np.clip(1.0 - r2, 0.0, None) ** 2

        s = 0.5
        g0 = Grid2D(24, 24, -1.5, 1.5, -1.5, 1.5)
        X1, X2 = g0.centers()
        targets = [[X1[j, i], X2[j, i]] for (i, j) in
                   ((12, 12), (14, 11), (10, 14))]
        out = {}
        for n in (24, 72, 216):
            g = Grid2D(n, n, -1.5, 1.5, -1.5, 1.5)
            Y1, Y2 = g.centers()
            out[n] = direct_sum(Field2D(g, bump(Y1, Y2)), targets, s)
        d1 = np.max(np.abs(out[24] - out[72]))
        d2 = np.max(np.abs(out[72] - out[216]))
        assert d1 / d2 >= 1.9


    def test_centered_grid_builds_only_the_potential_spectrum(
            self, monkeypatch):
        # a velocity is read only on a grid in {x1 >= 0}: a centered grid
        # transforms the potential tableau alone, a half-plane grid all six
        import gsqg.kernels as kernels

        calls = []
        hat = kernels._Lattice.hat

        def spy(self, tab):
            calls.append(tab.shape)
            return hat(self, tab)

        monkeypatch.setattr(kernels._Lattice, "hat", spy)
        rng = np.random.default_rng(3)
        vals = rng.random((12, 10))
        centered = Grid2D(10, 12, -0.5, 0.5, -0.6, 0.6)
        shifted = Grid2D(10, 12, 0.2, 1.2, -0.6, 0.6)
        kernels._spectra.cache_clear()
        try:
            free = potential_free_grid(Field2D(centered, vals), 0.5)
            assert len(calls) == 1
            moved = potential_free_grid(Field2D(shifted, vals), 0.5)
            assert len(calls) == 1 + 6
        finally:
            kernels._spectra.cache_clear()
        # the free tableau depends on the cell size alone
        np.testing.assert_array_equal(free, moved)


class TestLattice:
    @pytest.mark.parametrize("ny,nx,lattice", [
        (64, 64, (128, 128)), (128, 128, (256, 256)),
        (96, 96, (192, 192)), (33, 48, (66, 96)),
        (100, 132, (200, 264)), (13, 17, (27, 35))],
        ids=["pow2", "pow2-256", "3smooth", "3smooth-nonsquare",
             "nonsquare", "odd"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_inverse_is_the_cropped_2d_inverse_bitwise(self, ny, nx,
                                                        lattice, workers):
        import scipy.fft
        from gsqg.kernels import _Lattice
        lat = _Lattice(ny, nx)
        assert (lat.py, lat.px) == lattice
        rng = np.random.default_rng(ny * nx)
        spec = scipy.fft.rfft2(rng.random(lattice))
        with scipy.fft.set_workers(workers):
            ref = scipy.fft.irfft2(spec, s=lattice)[:ny, :nx]
            out = lat.inverse(spec)
        np.testing.assert_array_equal(out, ref)


class TestPotentialHalfplane:
    def test_wall_exact_zero(self):
        rng = np.random.default_rng(7)
        g = Grid2D(12, 12, 0.1, 1.3, -0.6, 0.6)
        f = Field2D(g, rng.random((12, 12)))
        wall = np.column_stack([np.zeros(9), np.linspace(-0.5, 0.5, 9)])
        out = direct_sum(f, wall, 0.5, halfplane=True)
        assert np.all(out == 0.0)

    def test_far_from_wall_image_bound(self):
        # blob at distance D from the wall: deviation from the free potential
        # is bounded by c_s ||w||_1 / (2 x1_min)^(2-2s)
        s = 0.5
        g = Grid2D(32, 32, 6.0, 8.0, -1.0, 1.0)
        X1, X2 = g.centers()
        vals = np.exp(-8 * ((X1 - 7.0) ** 2 + X2 ** 2))
        f = Field2D(g, vals, nonneg=True)
        t = [[7.0, 0.0], [6.5, 0.3]]
        free = direct_sum(f, t, s)
        half = direct_sum(f, t, s, halfplane=True)
        l1 = float(np.sum(vals)) * g.cell_area
        bound = riesz_constant(s) * l1 / (2 * 6.0) ** (2 - 2 * s)
        assert np.all(np.abs(free - half) <= bound * 1.0001)
        assert np.all(np.abs(free - half) > 0)

    def test_grid_fft_matches_direct(self):
        rng = np.random.default_rng(8)
        g = Grid2D(10, 12, 0.3, 1.4, -0.7, 0.7)
        f = Field2D(g, rng.random((12, 10)))
        s = 0.65
        X1, X2 = g.centers()
        tg = np.column_stack([X1.ravel(), X2.ravel()])
        direct = direct_sum(f, tg, s, halfplane=True).reshape(12, 10)
        np.testing.assert_allclose(potential_halfplane_grid(f, s), direct,
                                   rtol=1e-11, atol=1e-15)

    @pytest.mark.parametrize("s", [0.3, 0.5])
    @PADDING_GRIDS
    def test_fused_grid_matches_split_and_direct(self, grid, s):
        # one forward transform feeds both terms; equal to the direct oracle
        rng = np.random.default_rng(12)
        f = Field2D(grid, rng.random((grid.ny, grid.nx)))
        fused = potential_halfplane_grid(f, s)
        X1, X2 = grid.centers()
        tg = np.column_stack([X1.ravel(), X2.ravel()])
        direct = direct_sum(f, tg, s, halfplane=True).reshape(grid.ny, grid.nx)
        np.testing.assert_allclose(fused, direct, rtol=1e-11, atol=1e-15)


class TestVelocity:
    def test_radial_center_is_zero(self):
        g = Grid2D(33, 33, -1.0, 1.0, -1.0, 1.0)
        X1, X2 = g.centers()
        f = Field2D(g, np.exp(-5 * (X1 ** 2 + X2 ** 2)))
        u = direct_sum(f, [[0.0, 0.0]], 0.5, velocity=True)[0]
        assert np.allclose(u, 0.0, atol=1e-13)

    def test_single_cell_rotation_direction(self):
        # positive point mass at the origin must rotate counterclockwise:
        # at (1, 0) the u2 component is positive, magnitude c_s(2-2s)
        g = Grid2D(3, 3, -0.15, 0.15, -0.15, 0.15)
        vals = np.zeros((3, 3))
        vals[1, 1] = 1.0 / g.cell_area  # unit mass
        f = Field2D(g, vals)
        for s in (0.3, 0.5, 0.75):
            c_s = riesz_constant(s)
            u = direct_sum(f, [[1.0, 0.0]], s, velocity=True)[0]
            assert u[0] == pytest.approx(0.0, abs=1e-15)
            assert u[1] == pytest.approx(c_s * (2 - 2 * s), rel=1e-12)
            # tangential direction at (0, 1) is -x1: still counterclockwise
            u_top = direct_sum(f, [[0.0, 1.0]], s, velocity=True)[0]
            assert u_top[0] == pytest.approx(-c_s * (2 - 2 * s), rel=1e-12)

    def test_discrete_divergence_free(self):
        g = Grid2D(48, 48, 0.0, 2.4, -1.2, 1.2)
        X1, X2 = g.centers()
        f = Field2D(g, np.exp(-4 * ((X1 - 1.3) ** 2 + (X2 + 0.2) ** 2)))
        u1, u2 = velocity_pair_grid(f, 0.5)
        div = ((u1[1:-1, 2:] - u1[1:-1, :-2]) / (2 * g.h1)
               + (u2[2:, 1:-1] - u2[:-2, 1:-1]) / (2 * g.h2))
        scale = np.max(np.hypot(u1, u2))
        assert np.max(np.abs(div)) * g.h1 / scale < 1e-3

    @staticmethod
    def _check_pair_grid(g, s, seed):
        rng = np.random.default_rng(seed)
        f = Field2D(g, rng.random((g.ny, g.nx)))
        X1, X2 = g.centers()
        tg = np.column_stack([X1.ravel(), X2.ravel()])
        direct = direct_sum(f, tg, s, velocity=True, halfplane=True)
        u1, u2 = velocity_pair_grid(f, s)
        np.testing.assert_allclose(u1, direct[:, 0].reshape(g.ny, g.nx),
                                   rtol=1e-11, atol=1e-14)
        np.testing.assert_allclose(u2, direct[:, 1].reshape(g.ny, g.nx),
                                   rtol=1e-11, atol=1e-14)

    def test_pair_grid_matches_direct(self):
        self._check_pair_grid(Grid2D(11, 12, 0.4, 1.5, -0.6, 0.6), 0.5, 10)

    @pytest.mark.parametrize("s", [0.3, 0.5])
    @PADDING_GRIDS
    def test_pair_grid_matches_direct_padding(self, grid, s):
        self._check_pair_grid(grid, s, 12)

    def test_wall_normal_velocity_exactly_zero(self):
        rng = np.random.default_rng(11)
        g = Grid2D(10, 14, 0.2, 1.2, -0.7, 0.7)
        f = Field2D(g, rng.random((14, 10)))
        wall = np.column_stack([np.zeros(7), np.linspace(-0.6, 0.6, 7)])
        out = direct_sum(f, wall, 0.6, velocity=True, halfplane=True)
        assert np.all(out[:, 0] == 0.0)
