"""Reference implementations that the tests check the package against.

The package keeps one implementation of each computation, the one its
commands and acceptance criteria run.  The slower or more literal routes
live here, beside the tests that compare against them:

* `direct_sum`, the midpoint potential and velocity sums at arbitrary
  targets, the oracle of the FFT convolutions and of criterion 2;
* `gap_dense`, the dense assembly of the projected linearized operator, the
  oracle of `limiting.spectral_gap_estimate`;
* the profile maps f, f^{-1} and J' of a `PowerProfile`;
* the mass and the monotonicity of a `RadialField`.
"""

import numpy as np
from scipy.ndimage import binary_dilation

from gsqg.errors import DomainError
from gsqg.fields import Field2D, RadialField
from gsqg.kernels import riesz_constant, singular_cell_weight
from gsqg.limiting import (
    _GAP_COLLAR,
    Limiting2DState,
    _constraint_basis,
    _linearization,
)
from gsqg.profiles import PowerProfile, _halfline

# ---------------------------------------------------------------------------
# direct summation at arbitrary targets

_COINCIDE_REL = 1e-9  # target closer than this (in cell widths) is "the cell"


def _cell_data(field: Field2D):
    g = field.grid
    X1, X2 = g.centers()
    m = field.values * g.cell_area
    return X1.ravel(), X2.ravel(), m.ravel()


def direct_sum(field: Field2D, targets, s: float, velocity=False,
               halfplane=False):
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
    fac, expo = riesz_constant(s), s - 1.0
    g = field.grid
    if halfplane and g.x1min < -1e-12 * g.h1:
        raise DomainError("half-plane sums need support in {x1 >= 0}")
    cx, cy, m = _cell_data(field)
    w_self = singular_cell_weight(g.h1, s) / g.cell_area
    if velocity:
        fac, expo, w_self = fac * (2.0 * s - 2.0), s - 2.0, 0.0
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
# dense projected minimum singular value of the linearized operator


def gap_dense(state: Limiting2DState):
    """The gap of `spectral_gap_estimate` by dense assembly and SVD of the
    operator on the cells carrying its coefficient (plus the collar), with
    the smallest projected and unprojected singular values."""
    coeff, r_mean = _linearization(state)
    mask = binary_dilation(coeff > 0.0, iterations=_GAP_COLLAR)
    grid = state.field.grid
    a = grid.cell_area
    X1, X2 = grid.centers()
    xs = np.column_stack([X1[mask], X2[mask]])
    n = xs.shape[0]
    d2 = ((xs[:, None, :] - xs[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, 1.0)
    s = state.profile.s
    M = riesz_constant(s) * d2 ** (s - 1.0) * a
    np.fill_diagonal(M, singular_cell_weight(grid.h1, s))
    L = np.eye(n) - coeff[mask][:, None] * (M - r_mean * a)
    sv_all = np.linalg.svd(L, compute_uv=False)
    Q = _constraint_basis(grid, mask)[mask.ravel()]
    B = L @ (np.eye(n) - Q @ Q.T)
    sv = np.sort(np.linalg.svd(B, compute_uv=False))
    # the 3 constraint directions contribute 3 exact zeros; drop them
    return {"gap": float(sv[3]), "n_cells": n,
            "singular_values_smallest": list(sv[:6]),
            "unprojected_smallest": sorted(sv_all)[:6]}


# ---------------------------------------------------------------------------
# pointwise maps of a power-law profile (scalars or arrays)


def f(profile: PowerProfile, t):
    """The vorticity profile f(t) = t_+^p."""
    return np.clip(t, 0.0, None) ** profile.p


def f_inverse(profile: PowerProfile, tau):
    return _halfline(tau, "f^{-1}") ** (1.0 / profile.p)


def Jprime(profile: PowerProfile, t):
    return profile.L * profile.gamma * _halfline(t, "J'") ** (
        profile.gamma - 1.0)


# ---------------------------------------------------------------------------
# radial profiles


def radial_mass(radial: RadialField) -> float:
    return float(np.sum(radial.values * radial.annulus_measures()))


def is_nonincreasing(radial: RadialField, slack=1e-10):
    dv = np.diff(radial.values)
    top = float(radial.values.max(initial=0.0))
    return bool(np.all(dv <= slack * max(1.0, top)))
