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
* FFT convolution of the identical tableau for grid-aligned targets.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import next_fast_len, irfft2, rfft2

from .errors import DomainError, ParameterError, SingularityError
from .fields import Field2D, Grid2D

_COINCIDE_REL = 1e-9  # target closer than this (in cell widths) is "the cell"


def riesz_constant(s: float) -> float:
    """c_s = Gamma(1-s) / (2^(2s) * pi * Gamma(s)), the Riesz normalization."""
    if not 0.0 < s < 1.0:
        raise ParameterError(f"order s must lie in the open interval (0, 1), got {s}")
    return math.gamma(1.0 - s) / (2.0 ** (2.0 * s) * math.pi * math.gamma(s))


@dataclass(frozen=True)
class KernelParams:
    s: float
    c_s: float

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ParameterError(f"order s must lie in (0, 1), got {self.s}")
        ref = riesz_constant(self.s)
        if not (self.c_s > 0 and abs(self.c_s - ref) <= 1e-12 * ref):
            raise ParameterError("c_s inconsistent with Gamma(1-s)/(2^(2s) pi Gamma(s))")

    @classmethod
    def from_order(cls, s: float) -> "KernelParams":
        return cls(s, riesz_constant(s))


def kernel_free(z, params: KernelParams):
    """G(z) = c_s |z|^(2s-2); z may be one displacement or an (n, 2) batch."""
    z = np.asarray(z, dtype=float)
    r2 = np.sum(z * z, axis=-1)
    if np.any(r2 == 0.0):
        raise SingularityError("free kernel evaluated at zero separation")
    return params.c_s * r2 ** (params.s - 1.0)


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


def _displacement_tableau(grid, params, self_weight):
    """Kernel values at all cell-center displacements di in [-(nx-1), nx-1],
    dj in [-(ny-1), ny-1]; entry (0,0) carries the self weight."""
    nx, ny, h1, h2 = grid.nx, grid.ny, grid.h1, grid.h2
    di = np.arange(-(nx - 1), nx) * h1
    dj = np.arange(-(ny - 1), ny) * h2
    R2 = dj[:, None] ** 2 + di[None, :] ** 2
    ctr = (ny - 1, nx - 1)
    R2[ctr] = 1.0
    tab = params.c_s * R2 ** (params.s - 1.0)
    tab[ctr] = self_weight
    return tab


def _image_tableau(grid, params, exponent):
    """c_s * |x - ybar|^(2*exponent) on the displacement lattice of the
    flipped-source correlation; all separations are strictly positive."""
    nx, ny, h1, h2 = grid.nx, grid.ny, grid.h1, grid.h2
    d = np.arange(-(nx - 1), nx)
    sx = (d + nx) * h1 + 2.0 * grid.x1min  # x1 + y1 separations, all > 0
    dj = np.arange(-(ny - 1), ny) * h2
    R2 = dj[:, None] ** 2 + sx[None, :] ** 2
    return params.c_s * R2 ** exponent, sx


class _TableauFFT:
    """Precomputed FFT of one displacement tableau on a padded lattice.

    apply(v) returns the linear convolution sum_d T[d] v[x - d] restricted to
    the grid, via circulant embedding of size (2ny, 2nx): displacements
    -(n-1)..n-1 never alias there.  forward and inverse are its two halves,
    so one source spectrum can feed several tableaus."""

    def __init__(self, tab, ny, nx):
        self.ny, self.nx = ny, nx
        self.py = next_fast_len(2 * ny)
        self.px = next_fast_len(2 * nx)
        C = np.zeros((self.py, self.px))
        C[:ny, :nx] = tab[ny - 1:, nx - 1:]
        C[:ny, self.px - nx + 1:] = tab[ny - 1:, :nx - 1]
        C[self.py - ny + 1:, :nx] = tab[:ny - 1, nx - 1:]
        C[self.py - ny + 1:, self.px - nx + 1:] = tab[:ny - 1, :nx - 1]
        self.hat = rfft2(C)

    def forward(self, v):
        """Spectrum of v zero-padded to the circulant lattice."""
        pad = np.zeros((self.py, self.px))
        pad[:self.ny, :self.nx] = v
        return rfft2(pad)

    def inverse(self, spec):
        """Grid part of the real field with spectrum spec."""
        return irfft2(spec, s=(self.py, self.px))[:self.ny, :self.nx]

    def apply(self, v):
        return self.inverse(self.forward(v) * self.hat)


def _grid_transforms(grid, s):
    """Cached tableau FFTs: free and image potentials plus velocities.

    The kernel tableaus are translation invariant in x2 and depend on x1
    only through x1min (image terms), so the cache key drops x2 extents and
    window recentering along the travel direction reuses the transforms."""
    return _grid_transforms_cached(grid.nx, grid.ny, grid.h1, grid.h2,
                                   grid.x1min, s)


def _image_transform(grid, s, exponent):
    """Cached tableau FFT of c_s |x - ybar|^(2*exponent), applied to the
    x1-flipped source (same cache key as _grid_transforms)."""
    return _image_transform_cached(grid.nx, grid.ny, grid.h1, grid.h2,
                                   grid.x1min, s, exponent)


@lru_cache(maxsize=16)
def _image_transform_cached(nx, ny, h1, h2, x1min, s, exponent):
    grid = Grid2D(nx, ny, x1min, x1min + nx * h1, 0.0, ny * h2)
    tab, _ = _image_tableau(grid, KernelParams.from_order(s), exponent)
    return _TableauFFT(tab, ny, nx)


@lru_cache(maxsize=16)
def _grid_transforms_cached(nx, ny, h1, h2, x1min, s):
    grid = Grid2D(nx, ny, x1min, x1min + nx * h1, 0.0, ny * h2)
    params = KernelParams.from_order(s)
    w_self = singular_cell_weight(grid.h1, params) / grid.cell_area

    pot = _TableauFFT(_displacement_tableau(grid, params, w_self), ny, nx)

    img = None
    if grid.x1min >= -1e-12 * grid.h1:
        img_pot = _image_transform(grid, s, params.s - 1.0)
        rad_img, sx = _image_tableau(grid, params, params.s - 2.0)
        rad_img = rad_img * (2.0 * params.s - 2.0)
        dj = np.arange(-(ny - 1), ny) * grid.h2
        # The x1-flipped source v[:, ::-1] of a real v with spectrum M has
        # spectrum phase * conj(M[-k2, k1]); fold the phase into the image
        # tableaus so the fused potential and the velocity need no second
        # forward transform.
        py, px = pot.py, pot.px
        k1 = np.arange(px // 2 + 1)
        phase = np.exp(-2j * np.pi * ((k1 * (nx - 1)) % px) / px)
        img = {
            "pot": img_pot,
            "pot_hat": img_pot.hat * phase,
            "vel_hat": tuple(_TableauFFT(t, ny, nx).hat * phase
                             for t in (rad_img * dj[:, None],
                                       -rad_img * sx[None, :])),
            "rev": -np.arange(py) % py,
        }

    di = np.arange(-(nx - 1), nx) * grid.h1
    dj = np.arange(-(ny - 1), ny) * grid.h2
    R2 = dj[:, None] ** 2 + di[None, :] ** 2
    ctr = (ny - 1, nx - 1)
    R2[ctr] = 1.0
    rad = params.c_s * (2.0 * params.s - 2.0) * R2 ** (params.s - 2.0)
    rad[ctr] = 0.0
    vel = (_TableauFFT(rad * dj[:, None], ny, nx),
           _TableauFFT(-rad * di[None, :], ny, nx))
    return {"pot": pot, "vel": vel, "img": img}


def potential_free_grid(field: Field2D, params: KernelParams) -> np.ndarray:
    """Free-space potential at every cell center of the field's own grid.

    Computes exactly the midpoint sum of `direct_sum` via FFT convolution
    (deterministic, identical up to roundoff)."""
    tf = _grid_transforms(field.grid, params.s)
    return tf["pot"].apply(field.values * field.grid.cell_area)


def potential_image_grid(field: Field2D, params: KernelParams) -> np.ndarray:
    """Image potential int c_s |x - ybar|^(2s-2) field(y) dy at cell centers."""
    g = field.grid
    if g.x1min < -1e-12 * g.h1:
        raise DomainError("image potential needs a grid in {x1 >= 0}")
    tf = _grid_transforms(g, params.s)
    return tf["img"]["pot"].apply(field.values[:, ::-1] * g.cell_area)


def potential_halfplane_grid(field: Field2D, params: KernelParams) -> np.ndarray:
    """Half-plane potential (free minus image) at cell centers.  One forward
    transform of the source feeds both terms, so it equals
    potential_free_grid - potential_image_grid up to roundoff."""
    g = field.grid
    if g.x1min < -1e-12 * g.h1:
        raise DomainError("half-plane potential needs a grid in {x1 >= 0}")
    tf = _grid_transforms(g, params.s)
    pot, img = tf["pot"], tf["img"]
    M = pot.forward(field.values * g.cell_area)
    return pot.inverse(pot.hat * M - img["pot_hat"] * np.conj(M[img["rev"]]))


def velocity_pair_grid(field: Field2D, params: KernelParams):
    """(u1, u2) at cell centers induced by the odd-in-x1 extension of a
    half-plane field (field minus its reflection).  One forward transform of
    the source feeds both the free and the image terms."""
    g = field.grid
    if g.x1min < -1e-12 * g.h1:
        raise DomainError("pair velocity needs a grid in {x1 >= 0}")
    tf = _grid_transforms(g, params.s)
    free, img = tf["vel"], tf["img"]
    M = free[0].forward(field.values * g.cell_area)
    Mr = np.conj(M[img["rev"]])
    return tuple(free[k].inverse(free[k].hat * M - img["vel_hat"][k] * Mr)
                 for k in (0, 1))
