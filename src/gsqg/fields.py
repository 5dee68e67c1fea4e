"""Grid and field containers, integrals, rearrangements, and distances.

Fields are cell-averaged densities on uniform rectangular grids (finite-volume
view); every integral below is a midpoint sum with the cell area as measure.
Rows of the value array index x2, columns index x1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DomainError,
    FieldFormatError,
    ParameterError,
)

_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class Grid2D:
    """Uniform cell grid on [x1min, x1max] x [x2min, x2max]."""

    nx: int
    ny: int
    x1min: float
    x1max: float
    x2min: float
    x2max: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ParameterError("grid needs nx, ny >= 2")
        # a non-finite extent makes its span non-finite too
        spans = (self.x1max - self.x1min, self.x2max - self.x2min)
        if not all(math.isfinite(d) for d in spans):
            raise ParameterError(
                "grid extents and their spans must be finite, got x1 in "
                f"[{self.x1min}, {self.x1max}], x2 in [{self.x2min}, "
                f"{self.x2max}]")
        if not (self.x1max > self.x1min and self.x2max > self.x2min):
            raise ParameterError("grid extents must be ordered")

    @property
    def h1(self):
        return (self.x1max - self.x1min) / self.nx

    @property
    def h2(self):
        return (self.x2max - self.x2min) / self.ny

    @property
    def cell_area(self):
        return self.h1 * self.h2

    def x1_centers(self):
        return self.x1min + (np.arange(self.nx) + 0.5) * self.h1

    def x2_centers(self):
        return self.x2min + (np.arange(self.ny) + 0.5) * self.h2

    def centers(self):
        """Meshgrid of cell centers, each of shape (ny, nx)."""
        X1, X2 = np.meshgrid(self.x1_centers(), self.x2_centers())
        return X1, X2

    def aligned_with(self, other):
        """Same spacing and cell centers on a common lattice."""
        d1 = (self.x1min - other.x1min) / self.h1
        d2 = (self.x2min - other.x2min) / self.h2
        return (abs(self.h1 - other.h1) <= _ALIGN_TOL * self.h1
                and abs(self.h2 - other.h2) <= _ALIGN_TOL * self.h2
                and abs(d1 - round(d1)) <= _ALIGN_TOL
                and abs(d2 - round(d2)) <= _ALIGN_TOL)


@dataclass
class Field2D:
    """Cell-averaged scalar density on a Grid2D."""

    grid: Grid2D
    values: np.ndarray  # shape (ny, nx), row index increases with x2
    nonneg: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.ny, self.grid.nx):
            raise ParameterError(
                f"values shape {self.values.shape} != (ny, nx) = "
                f"({self.grid.ny}, {self.grid.nx})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("field values must be finite")
        if self.nonneg and np.any(self.values < 0):
            raise ParameterError("nonneg field has negative values")

    def copy(self):
        return Field2D(self.grid, self.values.copy(), self.nonneg)


def annulus_areas(nr, dr):
    """Areas pi ((k+1)^2 - k^2) dr^2 of the annuli k dr < r < (k+1) dr,
    k = 0..nr-1 (equal to 2 pi r_k dr at the midpoint radii r_k)."""
    k = np.arange(nr)
    return math.pi * ((k + 1) ** 2 - k ** 2) * dr ** 2


@dataclass
class RadialField:
    """Radially symmetric profile sampled at cell-centered radii.

    Node i sits at r_i = (i + 1/2) * rmax / nr and represents the annulus
    |r - r_i| < dr/2.
    """

    nr: int
    rmax: float
    values: np.ndarray

    def __post_init__(self):
        if self.nr < 2 or self.rmax <= 0:
            raise ParameterError("radial grid needs nr >= 2, rmax > 0")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.nr,):
            raise ParameterError("radial values shape mismatch")
        if np.any(self.values < 0):
            raise ParameterError("radial profile must be nonnegative")

    @property
    def dr(self):
        return self.rmax / self.nr

    def radii(self):
        return (np.arange(self.nr) + 0.5) * self.dr


# ---------------------------------------------------------------------------
# integrals and norms


def mass(f: Field2D) -> float:
    return float(np.sum(f.values) * f.grid.cell_area)


def center_of_mass(f: Field2D):
    m = mass(f)
    if m == 0.0:
        raise DegenerateInputError("center of mass of a zero-mass field")
    X1, X2 = f.grid.centers()
    a = f.grid.cell_area
    return (
        float(np.sum(X1 * f.values) * a / m),
        float(np.sum(X2 * f.values) * a / m),
    )


def impulse(f: Field2D) -> float:
    """First moment in x1 (the conserved impulse of half-plane dynamics)."""
    x1 = f.grid.x1_centers()
    return float(np.sum(f.values * x1[None, :]) * f.grid.cell_area)


def lp_norm(f: Field2D, p) -> float:
    if p == math.inf:
        return float(np.max(np.abs(f.values), initial=0.0))
    p = float(p)
    if p < 1:
        raise ParameterError("lp_norm needs p >= 1")
    a = f.grid.cell_area
    return float(np.sum(np.abs(f.values) ** p) * a) ** (1.0 / p)


# ---------------------------------------------------------------------------
# rearrangement machinery


def steiner_symmetrize_x2(f: Field2D) -> Field2D:
    """Columnwise symmetric-decreasing rearrangement about the grid midline.

    Each column keeps its multiset of cell values; the largest value goes to
    the central cell and successive values alternate outward.  Idempotent and
    exactly mass/norm preserving (pure sorting).  The cells in order of
    distance from the midline, ties by index, take the values in
    descending order.
    """
    if np.any(f.values < 0):
        raise DomainError("Steiner symmetrization needs a nonnegative field")
    ny = f.grid.ny
    order = np.argsort(np.abs(np.arange(ny) - (ny - 1) / 2), kind="stable")
    out = np.empty_like(f.values)
    srt = np.sort(f.values, axis=0)[::-1, :]  # descending per column
    out[order, :] = srt
    return Field2D(f.grid, out, nonneg=True)


def rearrangement_equimeasurable(f1: Field2D, f2: Field2D) -> bool:
    """True iff the sorted cell-value sequences are equal.

    Grids may differ in extent but must share the cell area; the shorter
    value list is padded with zeros (the rest of the plane).
    """
    a1, a2 = f1.grid.cell_area, f2.grid.cell_area
    if abs(a1 - a2) > _ALIGN_TOL * a1:
        raise DomainError("equimeasurability comparison needs equal cell areas")
    v1 = np.sort(f1.values, axis=None)[::-1]
    v2 = np.sort(f2.values, axis=None)[::-1]
    n = max(v1.size, v2.size)
    v1 = np.pad(v1, (0, n - v1.size))
    v2 = np.pad(v2, (0, n - v2.size))
    return bool(np.array_equal(v1, v2))


def excess_mass(f: Field2D, alpha: float) -> float:
    return float(np.sum(np.clip(f.values - alpha, 0.0, None)) * f.grid.cell_area)


_N_LEVELS = 32        # quantile levels of default_levels
_CLOSURE_TOL = 1e-12  # slack of each excess-mass inequality, times the mass


def default_levels(reference: Field2D):
    """Level sampling for weak-closure tests: quantiles of the positive part
    plus a level near zero and the maximum."""
    pos = reference.values[reference.values > 0]
    if pos.size == 0:
        return np.array([0.0])
    qs = np.quantile(pos, np.linspace(0.0, 1.0, _N_LEVELS,
                                      endpoint=False)[1:])
    vmax = float(pos.max())
    levels = np.concatenate([[1e-12 * vmax], qs, [vmax]])
    return np.unique(levels)


@dataclass
class LevelReport:
    alpha: float
    excess_candidate: float
    excess_reference: float
    ok: bool


def weak_closure_membership(candidate: Field2D, reference: Field2D):
    """Check the excess-mass inequalities defining the weak closure of the
    rearrangement class, int (zeta - a)_+ <= int (xi - a)_+ for all a > 0,
    at the levels of default_levels(reference)."""
    if np.any(candidate.values < 0) or np.any(reference.values < 0):
        raise DomainError("weak-closure test needs nonnegative fields")
    scale = max(mass(reference), 1.0)
    reports = []
    for a in default_levels(reference):
        ec = excess_mass(candidate, float(a))
        er = excess_mass(reference, float(a))
        reports.append(LevelReport(float(a), ec, er,
                                   ec <= er + _CLOSURE_TOL * scale))
    return reports


# ---------------------------------------------------------------------------
# orbital distance


def shift_x2(f: Field2D, c: float) -> Field2D:
    """Sample f at x2 + c (grid-aligned part exact, remainder linear)."""
    h2 = f.grid.h2
    k = math.floor(c / h2 + 0.5)
    frac = c / h2 - k
    v = np.zeros_like(f.values)
    ny = f.grid.ny
    lo, hi = max(0, -k), min(ny, ny - k)
    if hi > lo:
        v[lo:hi, :] = f.values[lo + k:hi + k, :]
    if abs(frac) > 1e-14:
        w = np.zeros_like(f.values)
        kk = k + (1 if frac > 0 else -1)
        lo, hi = max(0, -kk), min(ny, ny - kk)
        if hi > lo:
            w[lo:hi, :] = f.values[lo + kk:hi + kk, :]
        v = (1.0 - abs(frac)) * v + abs(frac) * w
    return Field2D(f.grid, v, nonneg=f.nonneg)


def embed(f: Field2D, grid: Grid2D) -> Field2D:
    """Copy f onto an aligned enclosing grid, zero outside."""
    if not f.grid.aligned_with(grid):
        raise DomainError("embedding requires aligned grids")
    i0 = int(round((f.grid.x1min - grid.x1min) / grid.h1))
    j0 = int(round((f.grid.x2min - grid.x2min) / grid.h2))
    if i0 < 0 or j0 < 0 or i0 + f.grid.nx > grid.nx or j0 + f.grid.ny > grid.ny:
        raise DomainError("target grid does not enclose the field")
    v = np.zeros((grid.ny, grid.nx))
    v[j0:j0 + f.grid.ny, i0:i0 + f.grid.nx] = f.values
    return Field2D(grid, v, nonneg=f.nonneg)


def union_grid(g1: Grid2D, g2: Grid2D) -> Grid2D:
    if not g1.aligned_with(g2):
        raise DomainError("union grid requires aligned grids")
    h1, h2 = g1.h1, g1.h2
    x1min = min(g1.x1min, g2.x1min)
    x2min = min(g1.x2min, g2.x2min)
    nx = int(round((max(g1.x1max, g2.x1max) - x1min) / h1))
    ny = int(round((max(g1.x2max, g2.x2max) - x2min) / h2))
    return Grid2D(nx, ny, x1min, x1min + nx * h1, x2min, x2min + ny * h2)


def distance_norm(xi: Field2D, om: Field2D) -> float:
    """||xi - om||_1 + ||xi - om||_2 + ||x1 (xi - om)||_1 on xi's grid."""
    d = Field2D(xi.grid, xi.values - om.values)
    x1 = d.grid.x1_centers()
    return (lp_norm(d, 1) + lp_norm(d, 2)
            + float(np.sum(np.abs(d.values) * np.abs(x1)[None, :])
                    * d.grid.cell_area))


def orbital_distance(xi: Field2D, omega: Field2D, c_min, c_max):
    """Minimum over x2-shifts c of ||xi - omega(.+c e2)||_1 + ||.||_2
    + ||x1 (.)||_1 over shifts one cell apart, with a parabolic sub-grid
    refinement around the coarse minimizer.  Returns (distance, best c)."""
    if c_max < c_min:
        raise ParameterError("empty shift range")
    g = union_grid(xi.grid, omega.grid)
    xi_e = embed(xi, g)
    om_e = embed(omega, g)
    step = g.h2
    cs = list(np.arange(c_min, c_max + 0.5 * step, step))
    if c_min <= 0.0 <= c_max:
        cs.append(0.0)
    cs = sorted(set(float(c) for c in cs))
    vals = [(distance_norm(xi_e, shift_x2(om_e, c)), c) for c in cs]
    best_val, best_c = min(vals)
    # 3-point parabolic refinement with linearly interpolated shifts
    d_m = distance_norm(xi_e, shift_x2(om_e, best_c - step))
    d_p = distance_norm(xi_e, shift_x2(om_e, best_c + step))
    denom = d_m - 2.0 * best_val + d_p
    if denom > 0:
        c_v = best_c + 0.5 * step * (d_m - d_p) / denom
        c_v = min(max(c_v, best_c - step), best_c + step)
        d_v = distance_norm(xi_e, shift_x2(om_e, c_v))
        if d_v < best_val:
            best_val, best_c = d_v, c_v
    return best_val, best_c


# ---------------------------------------------------------------------------
# field file format: "gsqg-field 1"

_FMT = "%.17g"


def write_field(f: Field2D, path):
    g = f.grid
    with open(path, "w") as fh:
        fh.write("gsqg-field 1\n")
        fh.write(
            "%d %d %s %s %s %s\n"
            % (g.nx, g.ny, _FMT % g.x1min, _FMT % g.x1max,
               _FMT % g.x2min, _FMT % g.x2max)
        )
        for j in range(g.ny):
            fh.write(" ".join(_FMT % v for v in f.values[j]) + "\n")


def read_field(path) -> Field2D:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FieldFormatError("empty field file", line=1)
    head = lines[0].split()
    if len(head) != 2 or head[0] != "gsqg-field":
        raise FieldFormatError(f"bad header {lines[0]!r}", line=1)
    if head[1] != "1":
        raise FieldFormatError(f"unsupported version {head[1]!r}", line=1)
    if len(lines) < 2:
        raise FieldFormatError("missing grid line", line=2)
    toks = lines[1].split()
    if len(toks) != 6:
        raise FieldFormatError("grid line needs 6 tokens", line=2)
    try:
        grid = Grid2D(int(toks[0]), int(toks[1]), *map(float, toks[2:]))
    except ValueError as exc:
        raise FieldFormatError(f"bad grid line: {exc}", line=2) from exc
    nx, ny = grid.nx, grid.ny
    # the data rows are counted before the grid's array is allocated, so a
    # grid line naming more cells than the file holds fails here
    rows = lines[2:2 + ny]
    if len(rows) < ny:
        raise FieldFormatError(f"missing data row {len(rows)}",
                               line=3 + len(rows))
    for j, row in enumerate(rows):
        count = len(row.split())
        if count != nx:
            raise FieldFormatError(
                f"row {j} has {count} values, expected {nx}", line=3 + j)
    vals = np.empty((ny, nx))
    for j, row in enumerate(rows):
        try:
            vals[j] = [float(t) for t in row.split()]
        except ValueError as exc:
            raise FieldFormatError(f"bad value in row {j}: {exc}",
                                   line=3 + j) from exc
    return Field2D(grid, vals)
