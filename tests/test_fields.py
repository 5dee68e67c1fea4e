import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsqg.errors import (
    DegenerateInputError,
    DomainError,
    FieldFormatError,
    ParameterError,
)
from gsqg.fields import (
    Field2D,
    Grid2D,
    RadialField,
    annulus_areas,
    center_of_mass,
    default_levels,
    embed,
    excess_mass,
    impulse,
    lp_norm,
    mass,
    orbital_distance,
    read_field,
    rearrangement_equimeasurable,
    shift_x2,
    steiner_symmetrize_x2,
    union_grid,
    weak_closure_membership,
    write_field,
)
from gsqg.evolution import _recenter

from oracles import reflect_oddify


def rand_field(rng, nx=12, ny=10, nonneg=True, x1min=0.0):
    g = Grid2D(nx, ny, x1min, x1min + 1.2, -0.5, 0.5)
    vals = rng.random((ny, nx))
    if not nonneg:
        vals -= 0.5
    return Field2D(g, vals, nonneg=nonneg)


class TestGridField:
    def test_grid_invariants(self):
        with pytest.raises(ParameterError):
            Grid2D(1, 4, 0, 1, 0, 1)
        with pytest.raises(ParameterError):
            Grid2D(4, 4, 1, 0, 0, 1)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("k", range(4))
    def test_extents_finite(self, k, value):
        ext = [0.0, 1.0, 0.0, 1.0]
        ext[k] = value
        with pytest.raises(ParameterError, match="finite"):
            Grid2D(4, 4, *ext)

    def test_extent_span_finite(self):
        # finite extents whose difference overflows give an infinite cell
        with pytest.raises(ParameterError, match="finite"):
            Grid2D(4, 4, -1e308, 1e308, 0.0, 1.0)

    def test_field_shape_check(self):
        g = Grid2D(4, 3, 0, 1, 0, 1)
        with pytest.raises(ParameterError):
            Field2D(g, np.zeros((4, 3)))

    def test_nonneg_flag_enforced(self):
        g = Grid2D(3, 3, 0, 1, 0, 1)
        with pytest.raises(ParameterError):
            Field2D(g, -np.ones((3, 3)), nonneg=True)

    def test_finite_required(self):
        g = Grid2D(3, 3, 0, 1, 0, 1)
        vals = np.zeros((3, 3))
        vals[1, 1] = np.nan
        with pytest.raises(ParameterError):
            Field2D(g, vals)

    def test_radial_measures_sum_to_disk(self):
        r = RadialField(64, 2.0, np.ones(64))
        assert annulus_areas(r.nr, r.dr).sum() == pytest.approx(
            math.pi * 4.0, rel=1e-12)


class TestIntegrals:
    def test_mass_zero_and_linearity(self):
        rng = np.random.default_rng(0)
        f = rand_field(rng)
        assert mass(Field2D(f.grid, np.zeros_like(f.values))) == 0.0
        assert mass(Field2D(f.grid, 3.0 * f.values)) == pytest.approx(
            3.0 * mass(f), rel=1e-14)

    def test_mass_of_disk(self):
        g = Grid2D(256, 256, -1.2, 1.2, -1.2, 1.2)
        X1, X2 = g.centers()
        f = Field2D(g, (X1 ** 2 + X2 ** 2 <= 1.0).astype(float))
        assert mass(f) == pytest.approx(math.pi, rel=0.01)

    def test_center_of_mass_single_cell(self):
        g = Grid2D(5, 5, 0, 1, 0, 1)
        vals = np.zeros((5, 5))
        vals[2, 3] = 2.0
        c = center_of_mass(Field2D(g, vals))
        assert c == (pytest.approx(0.7), pytest.approx(0.5))

    def test_center_of_mass_two_cells(self):
        g = Grid2D(4, 2, 0.0, 4.0, -1.0, 1.0)
        vals = np.zeros((2, 4))
        vals[0, 0] = 1.0   # center (0.5, -0.5)
        vals[0, 2] = 1.0   # center (2.5, -0.5)
        c = center_of_mass(Field2D(g, vals))
        assert c[0] == pytest.approx(1.5)

    def test_center_of_mass_zero_field(self):
        g = Grid2D(3, 3, 0, 1, 0, 1)
        with pytest.raises(DegenerateInputError):
            center_of_mass(Field2D(g, np.zeros((3, 3))))

    def test_impulse_point_mass_and_shift(self):
        g = Grid2D(8, 8, 0.0, 2.0, -1.0, 1.0)
        vals = np.zeros((8, 8))
        vals[4, 3] = 1.0 / g.cell_area   # unit mass at x1 = 0.875
        f = Field2D(g, vals)
        assert impulse(f) == pytest.approx(0.875, rel=1e-13)
        # exact grid-aligned x1 shift: I -> I + t * mass
        vals2 = np.zeros((8, 8))
        vals2[4, 5] = 1.0 / g.cell_area
        assert impulse(Field2D(g, vals2)) == pytest.approx(
            impulse(f) + 2 * g.h1 * mass(f), rel=1e-13)

    def test_lp_norms(self):
        g = Grid2D(10, 10, 0, 1, 0, 1)
        f = Field2D(g, np.zeros((10, 10)))
        assert lp_norm(f, 1) == 0.0
        # indicator of area A has Lp norm A^(1/p)
        vals = np.zeros((10, 10))
        vals[:5, :] = 1.0
        f = Field2D(g, vals)
        for p in (1, 2, 1.5, 2 - 0.5):
            assert lp_norm(f, p) == pytest.approx(0.5 ** (1 / p), rel=1e-12)
        assert lp_norm(f, math.inf) == 1.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = rand_field(rng, nonneg=False)
            g = rand_field(rng, nonneg=False)
            for p in (1, 2, 1.5):
                assert lp_norm(Field2D(f.grid, f.values + g.values), p) <= \
                    lp_norm(f, p) + lp_norm(g, p) + 1e-12


class TestSteiner:
    def test_documented_column_pattern(self):
        # column (0,3,1,2,0) -> (0,2,3,1,0): largest center, alternating decay
        g = Grid2D(2, 5, 0, 1, 0, 1)
        vals = np.zeros((5, 2))
        vals[:, 0] = [0, 3, 1, 2, 0]
        vals[:, 1] = [0, 3, 1, 2, 0]
        out = steiner_symmetrize_x2(Field2D(g, vals, nonneg=True))
        np.testing.assert_array_equal(out.values[:, 0], [0, 2, 3, 1, 0])

    def test_fixed_point_on_symmetric_decreasing(self):
        g = Grid2D(2, 5, 0, 1, 0, 1)
        vals = np.tile(np.array([[0.0], [2.0], [3.0], [1.0], [0.0]]), (1, 2))
        f = Field2D(g, vals, nonneg=True)
        out = steiner_symmetrize_x2(f)
        np.testing.assert_array_equal(out.values, vals)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(2)
        for ny in (6, 7):
            f = rand_field(rng, nx=9, ny=ny)
            once = steiner_symmetrize_x2(f)
            twice = steiner_symmetrize_x2(once)
            np.testing.assert_array_equal(once.values, twice.values)

    def test_preserves_multisets_and_norms_exactly(self):
        rng = np.random.default_rng(3)
        f = rand_field(rng, nx=11, ny=8)
        out = steiner_symmetrize_x2(f)
        for i in range(11):
            np.testing.assert_array_equal(
                np.sort(f.values[:, i]), np.sort(out.values[:, i]))
        assert mass(out) == mass(f)
        for p in (1, 2, math.inf):
            assert lp_norm(out, p) == lp_norm(f, p)

    def test_rejects_negative(self):
        g = Grid2D(3, 3, 0, 1, 0, 1)
        with pytest.raises(DomainError):
            steiner_symmetrize_x2(Field2D(g, -np.ones((3, 3))))

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0),
                    min_size=2, max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_column_alternating_placement(self, col):
        ny = len(col)
        g = Grid2D(2, ny, 0, 1, 0, 1)
        vals = np.tile(np.asarray(col)[:, None], (1, 2))
        out = steiner_symmetrize_x2(Field2D(g, vals, nonneg=True)).values[:, 0]
        # multiset preserved and unimodal about the midline
        np.testing.assert_array_equal(np.sort(out), np.sort(col))
        peak = int(np.argmax(out))
        assert all(out[i] <= out[i + 1] + 1e-15 for i in range(peak))
        assert all(out[i] >= out[i + 1] - 1e-15 for i in range(peak, ny - 1))


class TestRearrangementPredicates:
    def test_permutation_is_rearrangement(self):
        rng = np.random.default_rng(4)
        f = rand_field(rng)
        perm = rng.permutation(f.values.ravel()).reshape(f.values.shape)
        assert rearrangement_equimeasurable(f, Field2D(f.grid, perm))

    def test_scaling_is_not(self):
        rng = np.random.default_rng(5)
        f = rand_field(rng)
        assert not rearrangement_equimeasurable(
            f, Field2D(f.grid, 2.0 * f.values))

    def test_steiner_is_rearrangement(self):
        rng = np.random.default_rng(6)
        f = rand_field(rng)
        assert rearrangement_equimeasurable(f, steiner_symmetrize_x2(f))

    def test_incompatible_cell_areas(self):
        f1 = Field2D(Grid2D(4, 4, 0, 1, 0, 1), np.ones((4, 4)))
        f2 = Field2D(Grid2D(4, 4, 0, 2, 0, 1), np.ones((4, 4)))
        with pytest.raises(DomainError):
            rearrangement_equimeasurable(f1, f2)


class TestWeakClosure:
    def test_reflexive_with_equality(self):
        rng = np.random.default_rng(7)
        f = rand_field(rng)
        reports = weak_closure_membership(f, f)
        assert all(r.ok for r in reports)
        for r in reports:
            assert r.excess_candidate == pytest.approx(r.excess_reference,
                                                       abs=1e-14)

    def test_truncation_passes(self):
        rng = np.random.default_rng(8)
        f = rand_field(rng)
        trunc = f.values.copy()
        trunc[:, ::2] = 0.0
        reports = weak_closure_membership(Field2D(f.grid, trunc), f)
        assert all(r.ok for r in reports)

    def test_doubling_fails_small_levels(self):
        rng = np.random.default_rng(9)
        f = rand_field(rng)
        reports = weak_closure_membership(Field2D(f.grid, 2.0 * f.values), f)
        assert not reports[0].ok  # smallest level sees the doubled mass

    def test_excess_mass_values(self):
        g = Grid2D(2, 2, 0, 1, 0, 1)
        f = Field2D(g, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert excess_mass(f, 2.5) == pytest.approx((0.5 + 1.5) * 0.25)

    def test_level_sampling_covers_extremes(self):
        rng = np.random.default_rng(10)
        f = rand_field(rng)
        levels = default_levels(f)
        assert levels[0] <= 1e-10 * f.values.max()
        assert levels[-1] == pytest.approx(f.values.max())


class TestReflectOddify:
    def test_values_and_mass(self):
        rng = np.random.default_rng(11)
        g = Grid2D(6, 4, 0.5, 1.1, -0.2, 0.2)
        f = Field2D(g, rng.random((4, 6)), nonneg=True)
        full = reflect_oddify(f)
        X1, X2 = full.grid.centers()
        # odd in x1: value at (-a, b) = -value at (a, b)
        np.testing.assert_array_equal(full.values, -full.values[:, ::-1])
        assert abs(mass(full)) < 1e-15
        # right-half restriction reproduces the input
        i0 = int(round((g.x1min - full.grid.x1min) / g.h1))
        np.testing.assert_array_equal(
            full.values[:, i0:i0 + g.nx], f.values)

    def test_rejects_left_support(self):
        g = Grid2D(4, 4, -0.5, 0.5, -0.5, 0.5)
        with pytest.raises(DomainError):
            reflect_oddify(Field2D(g, np.ones((4, 4))))


class TestOrbitalDistance:
    def test_zero_at_identity(self):
        rng = np.random.default_rng(12)
        f = rand_field(rng)
        d, c = orbital_distance(f, f, -0.3, 0.3)
        assert d == 0.0 and c == 0.0

    def test_exact_grid_shift_recovered(self):
        rng = np.random.default_rng(13)
        f = rand_field(rng, nx=10, ny=16)
        k = 3
        shifted = shift_x2(f, -k * f.grid.h2)  # xi(x) = omega(x - k h e2)
        d, c = orbital_distance(shifted, f, -0.5, 0.5)
        assert d <= 1e-12
        assert c == pytest.approx(-k * f.grid.h2, abs=1e-9)

    def test_never_exceeds_zero_shift_value(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            f = rand_field(rng)
            g = rand_field(rng)
            d, _ = orbital_distance(f, g, -0.2, 0.2)
            d0 = (lp_norm(Field2D(f.grid, f.values - g.values), 1)
                  + lp_norm(Field2D(f.grid, f.values - g.values), 2)
                  + float(np.sum(np.abs(f.values - g.values)
                                 * np.abs(f.grid.x1_centers())[None, :])
                          * f.grid.cell_area))
            assert d <= d0 + 1e-14

    def test_bump_perturbation_bounded(self):
        rng = np.random.default_rng(15)
        f = rand_field(rng)
        delta = 0.01 * rng.random(f.values.shape)
        xi = Field2D(f.grid, f.values + delta)
        d, _ = orbital_distance(xi, f, -0.2, 0.2)
        df = Field2D(f.grid, delta)
        bound = (lp_norm(df, 1) + lp_norm(df, 2)
                 + float(np.sum(np.abs(delta)
                                * np.abs(f.grid.x1_centers())[None, :])
                         * f.grid.cell_area))
        assert d <= bound + 1e-14

    def test_empty_range_rejected(self):
        rng = np.random.default_rng(16)
        f = rand_field(rng)
        with pytest.raises(ParameterError):
            orbital_distance(f, f, 0.5, -0.5)

    def test_union_grid_and_embed(self):
        g1 = Grid2D(4, 4, 0.0, 1.0, 0.0, 1.0)
        g2 = Grid2D(4, 4, 0.5, 1.5, 0.25, 1.25)
        u = union_grid(g1, g2)
        assert u.x1min == 0.0 and u.x1max == 1.5
        f = Field2D(g1, np.ones((4, 4)))
        e = embed(f, u)
        assert mass(e) == pytest.approx(mass(f), rel=1e-14)

    def test_recentered_window(self):
        # evolve's recentering moves the window by whole cells, so the
        # distance to the reference is taken on the union of two grids
        g = Grid2D(64, 64, 0.5, 2.5, -1.0, 1.0)
        X1, X2 = g.centers()
        r2 = (X1 - 1.5) ** 2 + (X2 - 16 * g.h2) ** 2
        blob = Field2D(g, np.clip(1.0 - r2 / 0.09, 0.0, None) ** 2,
                       nonneg=True)
        moved, shift = _recenter(blob)
        assert shift == (0, 16)
        assert moved.grid != g
        assert mass(moved) == pytest.approx(mass(blob), rel=1e-14)
        d, c = orbital_distance(moved, blob, -0.25, 0.25)
        assert d <= 1e-14
        assert c == pytest.approx(0.0, abs=1e-9)
        # xi(x) = omega(x + 3 h e2)
        d, c = orbital_distance(shift_x2(moved, 3 * g.h2), blob, -0.25, 0.25)
        assert d <= 1e-12
        assert c == pytest.approx(3 * g.h2, abs=1e-9)


class TestFieldFile:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        f = rand_field(rng, nx=7, ny=5, x1min=0.3)
        f.values[0, 0] = 1.0 / 3.0
        f.values[1, 2] = 1e-300
        path = tmp_path / "field.txt"
        write_field(f, path)
        back = read_field(path)
        assert back.grid == f.grid
        np.testing.assert_array_equal(back.values, f.values)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("gsqg-field 2\n1 1 0 1 0 1\n0\n")
        with pytest.raises(FieldFormatError) as exc:
            read_field(path)
        assert "version" in str(exc.value)

    def test_truncated_row(self, tmp_path):
        path = tmp_path / "trunc.txt"
        path.write_text("gsqg-field 1\n3 2 0 1 0 1\n1 2 3\n4 5\n")
        with pytest.raises(FieldFormatError) as exc:
            read_field(path)
        assert exc.value.line == 4

    @pytest.mark.parametrize("grid_line,line", [
        ("100000000000 2 0 1 0 1", 3), ("3 100000000000 0 1 0 1", 5)],
        ids=["nx", "ny"])
    def test_grid_beyond_the_rows_fails_before_allocating(
            self, tmp_path, grid_line, line):
        # the header names a grid of 1.6 TB or more; the two data rows
        # fail the check before any array is allocated
        path = tmp_path / "huge.txt"
        path.write_text(f"gsqg-field 1\n{grid_line}\n1 2 3\n4 5 6\n")
        with pytest.raises(FieldFormatError) as exc:
            read_field(path)
        assert exc.value.line == line

    @pytest.mark.parametrize("extent", ["inf", "-inf"])
    def test_non_finite_extent(self, tmp_path, extent):
        # a grid Grid2D rejects is a format error of the grid line
        path = tmp_path / "inf.txt"
        path.write_text(f"gsqg-field 1\n2 2 0 {extent} 0 1\n1 2\n3 4\n")
        with pytest.raises(FieldFormatError, match="finite") as exc:
            read_field(path)
        assert exc.value.line == 2

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.txt"
        path.write_text("not-a-field\n")
        with pytest.raises(FieldFormatError):
            read_field(path)
