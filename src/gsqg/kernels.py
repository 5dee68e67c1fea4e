"""Riesz kernel evaluation, half-plane images, and desingularized quadrature.

The free-space kernel is G(z) = c_s |z|^(2s-2) with
c_s = Gamma(1-s) / (2^(2s) * pi * Gamma(s)) for 0 < s < 1.  The half-plane
kernel subtracts the image across the wall x1 = 0:

    G+(x, y) = G(x - y) - G(x - ybar),   ybar = (-y1, y2).

Potentials and velocities of cell-averaged fields are midpoint-rule sums over
cell centers.  The potential's self cell uses the exact kernel integral over
the equal-area disk of radius h/sqrt(pi); the velocity's self cell is zero
(odd kernel over a symmetric cell).  Two evaluation routes exist:

* direct summation at arbitrary targets, fixed per-target order (the
  oracle, `direct_sum`);
* FFT convolution of the identical tableau for grid-aligned targets:
  `potential_free_grid`, `potential_halfplane_grid` and
  `velocity_pair_grid`.  Each takes one forward transform of the source
  and multiplies it by kernel spectra cached per (grid, s); the image term
  reuses that transform through the spectrum of the x1-flipped source.
"""

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np
from scipy.fft import next_fast_len, irfft2, rfft2

from .errors import DomainError, ParameterError
from .fields import Field2D, Grid2D

_COINCIDE_REL = 1e-9  # target closer than this (in cell widths) is "the cell"


def riesz_constant(s: float) -> float:
    """c_s = Gamma(1-s) / (2^(2s) * pi * Gamma(s)), the Riesz normalization."""
    if not 0.0 < s < 1.0:
        raise ParameterError(f"order s must lie in the open interval (0, 1), got {s}")
    return math.gamma(1.0 - s) / (2.0 ** (2.0 * s) * math.pi * math.gamma(s))


@dataclass(frozen=True)
class KernelParams:
    """Order s of the kernel; its normalization c_s = riesz_constant(s)."""

    s: float
    c_s: float = dc_field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "c_s", riesz_constant(self.s))


def singular_cell_weight(h: float, params: KernelParams) -> float:
    """Exact kernel integral over the equal-area disk of a square cell.

    The disk radius is rho = h / sqrt(pi) (same area as the cell), and
    int_{|z|<rho} c_s |z|^(2s-2) dz = c_s * pi * rho^(2s) / s.
    """
    if h <= 0:
        raise ParameterError("cell width must be positive")
    rho = h / math.sqrt(math.pi)
    return params.c_s * math.pi * rho ** (2.0 * params.s) / params.s


# ---------------------------------------------------------------------------
# direct summation at arbitrary targets


def _cell_data(field: Field2D):
    g = field.grid
    X1, X2 = g.centers()
    m = field.values * g.cell_area
    return X1.ravel(), X2.ravel(), m.ravel()


def direct_sum(field: Field2D, targets, params: KernelParams,
               velocity=False, halfplane=False):
    """Midpoint-rule potential or velocity of a field at arbitrary targets.

    The potential is sum_y G(x - y) m(y); the velocity is
    u(x) = sum_y c_s (2s-2) |x-y|^(2s-4) (x-y)^perp m(y), with
    (a1, a2)^perp = (a2, -a1), returned as an (n, 2) array.  A target
    coinciding with a cell center takes that cell's contribution from the
    equal-area-disk weight (potential) or zero (velocity) instead of the
    singular kernel value.  With halfplane=True the reflection of the field
    is subtracted (the odd-in-x1 extension); each pair (cell, image cell) is
    combined before summation, so on the wall x1 = 0 the potential and u1
    vanish exactly in floating point.  Summation is numpy's fixed pairwise
    order per target; results do not depend on how targets are partitioned
    across workers.
    """
    g = field.grid
    if halfplane and g.x1min < -1e-12 * g.h1:
        raise DomainError("half-plane sums need support in {x1 >= 0}")
    cx, cy, m = _cell_data(field)
    fac, expo = params.c_s, params.s - 1.0
    w_self = singular_cell_weight(g.h1, params) / g.cell_area
    if velocity:
        fac, expo, w_self = fac * (2.0 * params.s - 2.0), params.s - 2.0, 0.0
    tol2 = (_COINCIDE_REL * g.h1) ** 2
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    out = np.empty((targets.shape[0], 2 if velocity else 1))
    for k, (tx, ty) in enumerate(targets):
        dx, dy = tx - cx, ty - cy
        r2 = dx * dx + dy * dy
        hit = r2 < tol2
        kern = np.where(hit, w_self, fac * np.where(hit, 1.0, r2) ** expo)
        if halfplane:
            dxi = tx + cx
            kern_i = fac * (dxi * dxi + dy * dy) ** expo
        if not velocity:
            out[k] = np.sum((kern - kern_i if halfplane else kern) * m)
        elif halfplane:
            out[k] = (np.sum((kern - kern_i) * dy * m),
                      np.sum((-kern * dx + kern_i * dxi) * m))
        else:
            out[k] = np.sum(kern * dy * m), np.sum(kern * (-dx) * m)
    return out if velocity else out[:, 0]


# ---------------------------------------------------------------------------
# grid-aligned FFT fast paths (identical tableau, O(N log N))


def _tableaus(grid, params, image):
    """Potential and velocity kernels (u1, u2) at every cell-center
    displacement d, -(n-1)..n-1 cells per axis, yielded in that order (a
    caller may stop after the potential).  The free term takes d = x - y
    and its (0, 0) entry carries the self weight (potential) or zero
    (velocity).  The image term takes d = x - ybar against the x1-flipped
    source, so its x1 separations x1 + y1 are all positive."""
    nx, ny, h1, h2 = grid.nx, grid.ny, grid.h1, grid.h2
    s, c_s = params.s, params.c_s
    d = np.arange(-(nx - 1), nx)
    d1 = (d + nx) * h1 + 2.0 * grid.x1min if image else d * h1
    d2 = np.arange(-(ny - 1), ny) * h2
    R2 = d2[:, None] ** 2 + d1[None, :] ** 2
    if image:
        yield c_s * R2 ** (s - 1.0)
        rad = c_s * R2 ** (s - 2.0) * (2.0 * s - 2.0)
    else:
        ctr = (ny - 1, nx - 1)
        R2[ctr] = 1.0
        pot = c_s * R2 ** (s - 1.0)
        pot[ctr] = singular_cell_weight(h1, params) / grid.cell_area
        yield pot
        rad = c_s * (2.0 * s - 2.0) * R2 ** (s - 2.0)
        rad[ctr] = 0.0
    yield rad * d2[:, None]
    yield -rad * d1[None, :]


class _Lattice:
    """Circulant embedding of an (ny, nx) grid in a padded (>= 2ny, >= 2nx)
    lattice, where displacements -(n-1)..n-1 never alias.  hat(tab) is the
    spectrum of a displacement tableau, forward(v) that of a zero-padded
    source, and inverse(spec) the grid part of a real field: the linear
    convolution sum_d T[d] v[x - d] is inverse(forward(v) * hat(T))."""

    def __init__(self, ny, nx):
        self.ny, self.nx = ny, nx
        self.py = next_fast_len(2 * ny)
        self.px = next_fast_len(2 * nx)

    def hat(self, tab):
        ny, nx, py, px = self.ny, self.nx, self.py, self.px
        C = np.zeros((py, px))
        C[:ny, :nx] = tab[ny - 1:, nx - 1:]
        C[:ny, px - nx + 1:] = tab[ny - 1:, :nx - 1]
        C[py - ny + 1:, :nx] = tab[:ny - 1, nx - 1:]
        C[py - ny + 1:, px - nx + 1:] = tab[:ny - 1, :nx - 1]
        return rfft2(C)

    def forward(self, v):
        pad = np.zeros((self.py, self.px))
        pad[:self.ny, :self.nx] = v
        return rfft2(pad)

    def inverse(self, spec):
        return irfft2(spec, s=(self.py, self.px))[:self.ny, :self.nx]


@lru_cache(maxsize=16)
def _spectra(nx, ny, h1, h2, x1min, s):
    """Lattice and kernel spectra of one grid: free "pot", and on a grid in
    {x1 >= 0} (the only kind a velocity is read on) free "vel" (u1, u2)
    and the image "img_pot" and "img_vel".

    The tableaus are translation invariant in x2 and depend on x1 only
    through x1min (image terms), so the key drops the x2 extents and window
    recentering along the travel direction reuses the spectra.  The x1-flipped
    source v[:, ::-1] of a real v with spectrum M has spectrum
    phase * conj(M[rev]), rev = (-k2) mod py; the phase is folded into the
    image spectra, so the source's one forward transform feeds both terms."""
    grid = Grid2D(nx, ny, x1min, x1min + nx * h1, 0.0, ny * h2)
    params = KernelParams(s)
    lat = _Lattice(ny, nx)
    free = _tableaus(grid, params, image=False)
    sp = {"lattice": lat, "pot": lat.hat(next(free))}
    if grid.x1min >= -1e-12 * grid.h1:
        sp["vel"] = tuple(lat.hat(t) for t in free)
        k1 = np.arange(lat.px // 2 + 1)
        phase = np.exp(-2j * np.pi * ((k1 * (nx - 1)) % lat.px) / lat.px)
        pot, *vel = (lat.hat(t) * phase
                     for t in _tableaus(grid, params, image=True))
        sp.update(img_pot=pot, img_vel=tuple(vel),
                  rev=-np.arange(lat.py) % lat.py)
    return sp


def _grid_spectra(grid, s, halfplane_op=None):
    """_spectra of a grid; halfplane_op names an operator with image terms,
    which needs the grid in {x1 >= 0}."""
    if halfplane_op and grid.x1min < -1e-12 * grid.h1:
        raise DomainError(f"{halfplane_op} needs a grid in {{x1 >= 0}}")
    return _spectra(grid.nx, grid.ny, grid.h1, grid.h2, grid.x1min, s)


def potential_free_grid(field: Field2D, params: KernelParams) -> np.ndarray:
    """Free-space potential at every cell center of the field's own grid.

    Computes exactly the midpoint sum of `direct_sum` via FFT convolution
    (deterministic, identical up to roundoff)."""
    sp = _grid_spectra(field.grid, params.s)
    lat = sp["lattice"]
    return lat.inverse(lat.forward(field.values * field.grid.cell_area)
                       * sp["pot"])


def potential_halfplane_grid(field: Field2D, params: KernelParams) -> np.ndarray:
    """Half-plane potential (free minus image) at cell centers.  One forward
    transform of the source feeds both terms."""
    g = field.grid
    sp = _grid_spectra(g, params.s, "half-plane potential")
    lat = sp["lattice"]
    M = lat.forward(field.values * g.cell_area)
    return lat.inverse(sp["pot"] * M - sp["img_pot"] * np.conj(M[sp["rev"]]))


def velocity_pair_grid(field: Field2D, params: KernelParams):
    """(u1, u2) at cell centers induced by the odd-in-x1 extension of a
    half-plane field (field minus its reflection).  One forward transform of
    the source feeds both the free and the image terms."""
    g = field.grid
    sp = _grid_spectra(g, params.s, "pair velocity")
    lat = sp["lattice"]
    M = lat.forward(field.values * g.cell_area)
    Mr = np.conj(M[sp["rev"]])
    return tuple(lat.inverse(sp["vel"][k] * M - sp["img_vel"][k] * Mr)
                 for k in (0, 1))
