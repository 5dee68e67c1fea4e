"""Riesz kernel evaluation, half-plane images, and desingularized quadrature.

The free-space kernel is G(z) = c_s |z|^(2s-2) with
c_s = Gamma(1-s) / (2^(2s) * pi * Gamma(s)) for 0 < s < 1.  The half-plane
kernel subtracts the image across the wall x1 = 0:

    G+(x, y) = G(x - y) - G(x - ybar),   ybar = (-y1, y2).

Potentials and velocities of cell-averaged fields are midpoint-rule sums over
cell centers.  The potential's self cell uses the exact kernel integral over
the equal-area disk of radius h/sqrt(pi); the velocity's self cell is zero
(odd kernel over a symmetric cell).  The sums are evaluated at the cell
centers of the field's own grid by FFT convolution of the tableau of kernel
values: `potential_free_grid`, `potential_halfplane_grid` and
`velocity_pair_grid`.  Each takes one forward transform of the source and
multiplies it by kernel spectra cached per (grid, s); the image term reuses
that transform through the spectrum of the x1-flipped source.  The inverse
transform skips the padding rows that the crop to the grid discards.

scipy.fft loads with the first lattice, so a command that runs no FFT (the
radial limiting solve) never imports scipy.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParameterError
from .fields import Field2D, Grid2D


def riesz_constant(s: float) -> float:
    """c_s = Gamma(1-s) / (2^(2s) * pi * Gamma(s)), the Riesz normalization."""
    if not 0.0 < s < 1.0:
        raise ParameterError(f"order s must lie in the open interval (0, 1), got {s}")
    return math.gamma(1.0 - s) / (2.0 ** (2.0 * s) * math.pi * math.gamma(s))


def singular_cell_weight(h: float, s: float) -> float:
    """Exact kernel integral over the equal-area disk of a square cell.

    The disk radius is rho = h / sqrt(pi) (same area as the cell), and
    int_{|z|<rho} c_s |z|^(2s-2) dz = c_s * pi * rho^(2s) / s.
    """
    if h <= 0:
        raise ParameterError("cell width must be positive")
    rho = h / math.sqrt(math.pi)
    return riesz_constant(s) * math.pi * rho ** (2.0 * s) / s


def _tableaus(grid, s, image):
    """Potential and velocity kernels (u1, u2) at every cell-center
    displacement d, -(n-1)..n-1 cells per axis, yielded in that order (a
    caller may stop after the potential).  The free term takes d = x - y
    and its (0, 0) entry carries the self weight (potential) or zero
    (velocity).  The image term takes d = x - ybar against the x1-flipped
    source, so its x1 separations x1 + y1 are all positive."""
    nx, ny, h1, h2 = grid.nx, grid.ny, grid.h1, grid.h2
    c_s = riesz_constant(s)
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
        pot[ctr] = singular_cell_weight(h1, s) / grid.cell_area
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
        import scipy.fft
        self.fft = scipy.fft
        self.ny, self.nx = ny, nx
        self.py = scipy.fft.next_fast_len(2 * ny)
        self.px = scipy.fft.next_fast_len(2 * nx)

    def hat(self, tab):
        ny, nx, py, px = self.ny, self.nx, self.py, self.px
        C = np.zeros((py, px))
        C[:ny, :nx] = tab[ny - 1:, nx - 1:]
        C[:ny, px - nx + 1:] = tab[ny - 1:, :nx - 1]
        C[py - ny + 1:, :nx] = tab[:ny - 1, nx - 1:]
        C[py - ny + 1:, px - nx + 1:] = tab[:ny - 1, :nx - 1]
        return self.fft.rfft2(C)

    def forward(self, v):
        pad = np.zeros((self.py, self.px))
        pad[:self.ny, :self.nx] = v
        return self.fft.rfft2(pad)

    def inverse(self, spec):
        """The grid part of the real inverse transform of spec on the
        lattice, bitwise equal to the full 2-D inverse cropped to (ny, nx)
        but without the rows the crop discards: the x2 pass keeps ny rows,
        the real x1 pass runs on those alone, and the 1/(py px) scale is
        applied once, last, as the 2-D inverse applies it.  The x2 pass
        works in place, so spec is overwritten."""
        fft = self.fft
        rows = fft.ifft(spec, axis=0, norm="forward",
                        overwrite_x=True)[:self.ny]
        out = fft.irfft(rows, n=self.px, axis=1, norm="forward")[:, :self.nx]
        return out * (1.0 / (self.py * self.px))


@lru_cache(maxsize=16)
def _spectra(nx, ny, h1, h2, x1min, s):
    """Lattice and kernel spectra of one grid: free "pot", and on a grid in
    {x1 >= 0} (the only kind a velocity is read on) free "vel" (u1, u2)
    and the image "img_pot" and "img_vel".

    The tableaus are translation invariant in x2 and depend on x1 only
    through x1min (image terms), so the key drops the x2 extents and window
    recentering along the travel direction reuses the spectra.  The x1-flipped
    source v[:, ::-1] of a real v with spectrum M has spectrum
    phase * conj(M[rev]), rev = (-k2) mod py (`_flipped`); the phase is
    folded into the image spectra, so the source's one forward transform
    feeds both terms."""
    grid = Grid2D(nx, ny, x1min, x1min + nx * h1, 0.0, ny * h2)
    lat = _Lattice(ny, nx)
    free = _tableaus(grid, s, image=False)
    sp = {"lattice": lat, "pot": lat.hat(next(free))}
    if grid.x1min >= -1e-12 * grid.h1:
        sp["vel"] = tuple(lat.hat(t) for t in free)
        k1 = np.arange(lat.px // 2 + 1)
        phase = np.exp(-2j * np.pi * ((k1 * (nx - 1)) % lat.px) / lat.px)
        pot, *vel = (lat.hat(t) * phase
                     for t in _tableaus(grid, s, image=True))
        sp.update(img_pot=pot, img_vel=tuple(vel))
    return sp


def _grid_spectra(grid, s, halfplane_op=None):
    """_spectra of a grid; halfplane_op names an operator with image terms,
    which needs the grid in {x1 >= 0}."""
    if halfplane_op and grid.x1min < -1e-12 * grid.h1:
        raise DomainError(f"{halfplane_op} needs a grid in {{x1 >= 0}}")
    return _spectra(grid.nx, grid.ny, grid.h1, grid.h2, grid.x1min, s)


def _flipped(M):
    """conj(M[rev]), rev = (-k2) mod py: row 0 stays, rows 1.. reverse.
    Two slice copies, exact, in one new array."""
    Mr = np.empty_like(M)
    np.conjugate(M[0], out=Mr[0])
    np.conjugate(M[:0:-1], out=Mr[1:])
    return Mr


def potential_free_grid(field: Field2D, s: float) -> np.ndarray:
    """Free-space potential at every cell center of the field's own grid.

    Computes the midpoint sum by FFT convolution (deterministic); the direct
    summation that it equals up to roundoff is the reference in
    tests/oracles.py."""
    sp = _grid_spectra(field.grid, s)
    lat = sp["lattice"]
    return lat.inverse(lat.forward(field.values * field.grid.cell_area)
                       * sp["pot"])


def potential_halfplane_grid(field: Field2D, s: float) -> np.ndarray:
    """Half-plane potential (free minus image) at cell centers.  One forward
    transform of the source feeds both terms."""
    g = field.grid
    sp = _grid_spectra(g, s, "half-plane potential")
    lat = sp["lattice"]
    M = lat.forward(field.values * g.cell_area)
    # one expression, as numpy evaluates it: above 256 KiB numpy reuses the
    # temporary _flipped(M) as the product's first operand, and the fused
    # complex multiply does not commute bitwise, so an explicit in-place
    # product would move the last bit on some grids and not on others
    return lat.inverse(sp["pot"] * M - sp["img_pot"] * _flipped(M))


def velocity_pair_grid(field: Field2D, s: float):
    """(u1, u2) at cell centers induced by the odd-in-x1 extension of a
    half-plane field (field minus its reflection).  One forward transform of
    the source feeds both the free and the image terms."""
    g = field.grid
    sp = _grid_spectra(g, s, "pair velocity")
    lat = sp["lattice"]
    M = lat.forward(field.values * g.cell_area)
    Mr = _flipped(M)
    img, spec = np.empty_like(M), np.empty_like(M)
    out = []
    for k in (0, 1):
        np.multiply(sp["img_vel"][k], Mr, out=img)
        np.multiply(sp["vel"][k], M, out=spec)
        out.append(lat.inverse(np.subtract(spec, img, out=spec)))
    return tuple(out)
