"""Transport evolution of half-plane scalars and orbital-stability probes.

The scalar is advected by the velocity its own odd-in-x1 extension induces
(the wall x1 = 0 is a streamline by image antisymmetry).  The scheme is
semi-Lagrangian: second-order Runge-Kutta backtrace of departure points and
monotone (stencil-clamped) interpolation, followed by a bound-preserving
correction that restores the mass up to what flows out through the window
edges.  No new extrema appear, signs are preserved, the sup norm cannot
grow, and mass changes only by outflow (nothing flows in).  Diagnostics
track the conserved quantities (mass, impulse, kinetic energy, Lp norms)
and the orbital distance to a reference traveling profile.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DomainError,
    ParameterError,
)
from .fields import (
    Field2D,
    Grid2D,
    center_of_mass,
    impulse,
    lp_norm,
    mass,
    orbital_distance,
)
from .kernels import (
    KernelParams,
    potential_halfplane_grid,
    velocity_pair_grid,
)

_RECENTER_CELLS = 10  # center drift, in cells, that shifts the window
_MAX_DT_HALVINGS = 3  # CFL halvings allowed before evolve gives up
_CFL_MAX = 0.5  # CFL number above which evolve halves dt
_MASS_LOSS_TOL = 1e-3  # flag a step whose outflow exceeds this share of mass

# trajectory.csv columns, in order; "t" reads TrajectoryReport.times
TRAJECTORY_COLUMNS = ("t", "mass", "impulse", "energy", "l1", "l2", "linf",
                      "orbital_distance", "shift_c")


@dataclass
class EvolutionConfig:
    dt: float = None          # auto from the CFL bound when None
    T: float = 1.0
    cfl: float = 0.4
    diag_every: int = 10
    snapshot_every: int = 0   # snapshot every N steps; 0 for none

    def __post_init__(self):
        if self.T <= 0:
            raise ParameterError("horizon T must be positive")
        if self.dt is not None and (self.dt <= 0 or self.T < self.dt):
            raise ParameterError("need 0 < dt <= T")
        if not 0 < self.cfl <= _CFL_MAX:
            raise ParameterError(
                f"cfl={self.cfl} must lie in (0, {_CFL_MAX}]")
        if self.diag_every < 1:
            raise ParameterError(f"diag_every={self.diag_every} must be >= 1")
        if self.snapshot_every < 0:
            raise ParameterError("snapshot_every must be >= 0")


@dataclass
class TrajectoryReport:
    times: list = dc_field(default_factory=list)
    mass: list = dc_field(default_factory=list)
    impulse: list = dc_field(default_factory=list)
    energy: list = dc_field(default_factory=list)
    l1: list = dc_field(default_factory=list)
    l2: list = dc_field(default_factory=list)
    linf: list = dc_field(default_factory=list)
    orbital_distance: list = dc_field(default_factory=list)
    shift_c: list = dc_field(default_factory=list)
    snapshots: dict = dc_field(default_factory=dict)
    flags: list = dc_field(default_factory=list)
    outflow: float = 0.0      # window outflow summed over the steps
    outflow_max: float = 0.0  # largest window outflow of one step
    dt_used: float = None
    steps: int = 0

    def rows(self):
        """One dict per diagnosis, keyed by TRAJECTORY_COLUMNS."""
        cols = [self.times] + [getattr(self, k)
                               for k in TRAJECTORY_COLUMNS[1:]]
        return [dict(zip(TRAJECTORY_COLUMNS, row)) for row in zip(*cols)]

    def scheme_error(self):
        """Mass change not carried out through the window edges:
        final mass minus (initial mass minus outflow)."""
        return self.mass[-1] - (self.mass[0] - self.outflow)

    def drift(self, key):
        """Max relative drift of a conserved diagnostic over the run."""
        vals = getattr(self, key)
        ref = abs(vals[0]) if vals and vals[0] != 0 else 1.0
        return max(abs(v - vals[0]) for v in vals) / ref


def support_touches_wall(field: Field2D) -> bool:
    """True when the first cell column next to x1 = 0 carries density."""
    near = field.grid.x1min <= field.grid.h1 * (1 + 1e-12)
    return bool(near and np.any(field.values[:, 0] != 0.0))


# ---------------------------------------------------------------------------
# interpolation


def _bilinear_stencil(shape, fx, fy, ring=0):
    """Flat corner index into the copy padded by `ring` cells, fractions and
    floor indices i0, j0 of the bilinear stencils at fractional indices into
    an array of `shape`; one stencil serves every array sampled there.
    Points beyond the padded array clamp to its edge value."""
    ny, nx = shape
    fxc = np.clip(fx, -ring, nx - 1.0 + ring)
    fyc = np.clip(fy, -ring, ny - 1.0 + ring)
    i0 = np.minimum(np.floor(fxc).astype(int), nx - 2 + ring)
    j0 = np.minimum(np.floor(fyc).astype(int), ny - 2 + ring)
    return ((j0 + ring) * (nx + 2 * ring) + i0 + ring, fxc - i0, fyc - j0,
            i0, j0)


def _sample_bilinear(arr, stencil, bounds=False):
    """Bilinear values on a stencil, plus the stencil range when bounds."""
    k, tx, ty = stencil[:3]
    nx = arr.shape[1]
    flat = arr.ravel()
    v00 = np.take(flat, k)
    v01 = np.take(flat, k + 1)
    v10 = np.take(flat, k + nx)
    v11 = np.take(flat, k + nx + 1)
    out = ((1 - ty) * ((1 - tx) * v00 + tx * v01)
           + ty * ((1 - tx) * v10 + tx * v11))
    if not bounds:
        return out
    lo = np.minimum(np.minimum(v00, v01), np.minimum(v10, v11))
    hi = np.maximum(np.maximum(v00, v01), np.maximum(v10, v11))
    return out, lo, hi


def _cr_weights(t):
    t2 = t * t
    t3 = t2 * t
    return (-0.5 * t + t2 - 0.5 * t3,
            1.0 - 2.5 * t2 + 1.5 * t3,
            0.5 * t + 2.0 * t2 - 1.5 * t3,
            -0.5 * t2 + 0.5 * t3)


def _sample_bicubic(padded, stencil):
    """Catmull-Rom in each axis on the 4x4 window around a ring-1 stencil
    into `padded`, the array with one ring of zeros.  `usable` marks the
    windows inside the unpadded array; callers discard the other values.
    The 16 gathers and products reuse buffers allocated once per call."""
    k, tx, ty, i0, j0 = stencil
    ny, nx = padded.shape
    usable = (i0 >= 1) & (i0 <= nx - 5) & (j0 >= 1) & (j0 <= ny - 5)
    wx = _cr_weights(tx)
    wy = _cr_weights(ty)
    flat = padded.ravel()
    corner = k - (nx + 1)  # window corner (i0 - 1, j0 - 1), padded
    val = np.empty_like(tx)
    row = np.empty_like(val)
    out = np.zeros_like(val)
    for a in range(4):
        row.fill(0.0)
        for b in range(4):
            # flat[off:][corner] = flat[corner + off] on usable cells; "clip"
            # keeps the discarded gathers of the other cells in bounds
            np.take(flat[a * nx + b:], corner, out=val, mode="clip")
            np.multiply(wx[b], val, out=val)
            np.add(row, val, out=row)
        np.multiply(wy[a], row, out=row)
        np.add(out, row, out=out)
    return out, usable


def _swept_out(lines, depth):
    """Sum of each line's values over its first `depth` cells (fractional).

    lines[k] runs from a window edge inward; depth[k] >= 0 is how many cells
    the edge-normal velocity sweeps across that edge in one step."""
    m, n = lines.shape
    depth = np.minimum(depth, n)
    whole = np.floor(depth).astype(int)
    k = min(n, int(whole.max(initial=0)) + 1)
    cum = np.cumsum(np.pad(lines[:, :k], ((0, 0), (1, 0))), axis=1)
    rows = np.arange(m)
    return (cum[rows, whole]
            + (depth - whole) * lines[rows, np.minimum(whole, n - 1)])


def window_outflow(field: Field2D, u1, u2, dt):
    """Mass carried out through the four window edges in one step: the
    upwind flux of the edge cells at their edge-normal velocity (the swept
    strip when a step crosses more than one cell).  Inflow is zero."""
    g = field.grid
    q = field.values
    swept = np.zeros(max(g.nx, g.ny))
    for edge in (
            _swept_out(q[:, ::-1], np.maximum(u1[:, -1], 0.0) * dt / g.h1),
            _swept_out(q, np.maximum(-u1[:, 0], 0.0) * dt / g.h1),
            _swept_out(q[::-1, :].T, np.maximum(u2[-1, :], 0.0) * dt / g.h2),
            _swept_out(q.T, np.maximum(-u2[0, :], 0.0) * dt / g.h2)):
        swept[:edge.size] += edge  # edges differ in length off the square
    return float(np.sum(swept)) * g.cell_area


def _restore_sum(vals, lo, hi, target):
    """Move vals inside their own [lo, hi] so that they sum to target.

    Each cell takes a share of the correction proportional to its room
    towards the bound on the correcting side, so no value leaves its stencil
    range: no new extrema and no sign change.  An error at roundoff is left
    alone, which keeps exact steps bitwise exact."""
    err = target - float(np.sum(vals))
    if abs(err) <= 64 * np.finfo(float).eps * float(np.sum(np.abs(vals))):
        return vals
    room = hi - vals if err > 0 else vals - lo
    total = float(np.sum(room))
    if total <= 0.0:
        return vals
    theta = min(1.0, abs(err) / total)
    return vals + math.copysign(theta, err) * room


def advect_step(field: Field2D, u1, u2, dt):
    """Semi-Lagrangian step: RK2 departure points, monotone bicubic
    interpolation, mass restored up to the outflow.

    All positions are handled in fractional-index space so a zero velocity
    reproduces the field bitwise.  The scalar is sampled from its copy padded
    with one ring of zeros (the velocity is clamped to its edge values), so
    departure points beyond the outermost cell centers bring in zero: no
    inflow.  One departure stencil serves the Catmull-Rom sample, its clamp
    to the bilinear stencil range and the bilinear fallback where its 4x4
    window reaches past the array.  The clamped samples alone do not
    conserve mass: the clamp clips smooth extrema and the backward map is
    not exactly area-preserving.  So the samples are then moved inside their
    own bilinear stencil ranges until the mass equals the old mass minus the
    window outflow (window_outflow).  The step stays monotone and
    sign-preserving.  Returns the new field, the mass change `lost` and the
    window `outflow`; the two agree up to roundoff whenever the stencil
    ranges have room for the correction."""
    g = field.grid
    II, JJ = np.meshgrid(np.arange(g.nx, dtype=float),
                         np.arange(g.ny, dtype=float))
    mid = _bilinear_stencil(u1.shape, II - 0.5 * dt * u1 / g.h1,
                            JJ - 0.5 * dt * u2 / g.h2)
    dep = _bilinear_stencil(field.values.shape,
                            II - dt * _sample_bilinear(u1, mid) / g.h1,
                            JJ - dt * _sample_bilinear(u2, mid) / g.h2, ring=1)
    padded = np.pad(field.values, 1)
    lin, lo, hi = _sample_bilinear(padded, dep, bounds=True)
    cub, usable = _sample_bicubic(padded, dep)
    new_vals = np.where(usable, np.clip(cub, lo, hi), lin)
    outflow = window_outflow(field, u1, u2, dt)
    target = float(np.sum(field.values)) - outflow / g.cell_area
    new_vals = _restore_sum(new_vals, lo, hi, target)
    new_field = Field2D(g, new_vals, nonneg=field.nonneg)
    return new_field, mass(field) - mass(new_field), outflow


def _recenter(field: Field2D):
    """Shift the window by whole cells once the density center has drifted
    more than _RECENTER_CELLS cells from the window center; x1 = 0 is never
    crossed.  A zero field has no center and stays where it is."""
    g = field.grid
    try:
        com = center_of_mass(field)
    except DegenerateInputError:
        return field, (0, 0)
    mid = (0.5 * (g.x1min + g.x1max), 0.5 * (g.x2min + g.x2max))
    k1 = int(round((com[0] - mid[0]) / g.h1))
    k2 = int(round((com[1] - mid[1]) / g.h2))
    if abs(k1) <= _RECENTER_CELLS and abs(k2) <= _RECENTER_CELLS:
        return field, (0, 0)
    k1 = 0 if abs(k1) <= _RECENTER_CELLS else k1
    k2 = 0 if abs(k2) <= _RECENTER_CELLS else k2
    if g.x1min + k1 * g.h1 < -1e-12 * g.h1:
        k1 = max(0, int(math.ceil(-g.x1min / g.h1)))
    grid = Grid2D(g.nx, g.ny,
                  g.x1min + k1 * g.h1, g.x1max + k1 * g.h1,
                  g.x2min + k2 * g.h2, g.x2max + k2 * g.h2)
    # whole-cell copy: new[j, i] = old[j + k2, i + k1]
    vals = np.zeros_like(field.values)
    jsrc = np.arange(g.ny) + k2
    isrc = np.arange(g.nx) + k1
    jok = (jsrc >= 0) & (jsrc < g.ny)
    iok = (isrc >= 0) & (isrc < g.nx)
    vals[np.ix_(jok, iok)] = field.values[np.ix_(jsrc[jok], isrc[iok])]
    return Field2D(grid, vals, nonneg=field.nonneg), (k1, k2)


def evolve(xi0: Field2D, params: KernelParams, config: EvolutionConfig,
           reference: Field2D = None, speed_hint=0.0) -> TrajectoryReport:
    """Time loop: velocity from the current field, one advection step,
    diagnostics on schedule.  reference defaults to the initial data; the
    orbital-distance shift search tracks the accumulated x2 drift."""
    if np.any(xi0.values < 0):
        raise DomainError("evolution expects a nonnegative half-plane scalar")
    if xi0.grid.x1min < -1e-12 * xi0.grid.h1:
        raise DomainError("evolution grid must sit in {x1 >= 0}")
    field = xi0.copy()
    ref = (reference if reference is not None else xi0).copy()
    rep = TrajectoryReport()
    h = min(field.grid.h1, field.grid.h2)

    u1, u2 = velocity_pair_grid(field, params)
    umax = float(np.max(np.hypot(u1, u2)))
    dt = config.dt
    if dt is None:
        dt = config.cfl * h / max(umax, 1e-30)
        dt = config.T / max(1, int(math.ceil(config.T / dt)))
    halvings = 0
    t = 0.0
    step = 0

    def diagnose():
        psi = potential_halfplane_grid(field, params)
        a = field.grid.cell_area
        energy = 0.5 * float(np.sum(field.values * psi)) * a
        try:
            com2 = center_of_mass(field)[1]
            ref2 = center_of_mass(ref)[1]
            guess = ref2 - com2
        except DegenerateInputError:
            guess = 0.0
        span = 12.0 * field.grid.h2 + abs(speed_hint) * dt * config.diag_every
        dist, c = orbital_distance(field, ref, guess - span, guess + span)
        rep.times.append(t)
        rep.mass.append(mass(field))
        rep.impulse.append(impulse(field))
        rep.energy.append(energy)
        rep.l1.append(lp_norm(field, 1))
        rep.l2.append(lp_norm(field, 2))
        rep.linf.append(lp_norm(field, math.inf))
        rep.orbital_distance.append(dist)
        rep.shift_c.append(c)

    if support_touches_wall(field):
        rep.flags.append("support touches the wall: image terms collide")
    diagnose()
    n_steps = int(round(config.T / dt))
    while step < n_steps:
        if step > 0:
            u1, u2 = velocity_pair_grid(field, params)
        umax = float(np.max(np.hypot(u1, u2)))
        while dt * umax / h > _CFL_MAX:
            if halvings >= _MAX_DT_HALVINGS:
                raise ConvergenceError(
                    f"CFL exceeded after {_MAX_DT_HALVINGS} dt halvings")
            dt *= 0.5
            halvings += 1
            n_steps = step + int(math.ceil((config.T - t) / dt))
            rep.flags.append(f"dt halved to {dt:.3g} at t={t:.3g}")
        field, lost, outflow = advect_step(field, u1, u2, dt)
        rep.outflow += outflow
        rep.outflow_max = max(rep.outflow_max, outflow)
        if abs(lost) > _MASS_LOSS_TOL * max(rep.mass[0], 1e-30):
            rep.flags.append(f"mass outflow {lost:.3g} through the window "
                             f"edges in one step at t={t:.3g}")
        field, _ = _recenter(field)
        t += dt
        step += 1
        if step % config.diag_every == 0 or step == n_steps:
            diagnose()
        if config.snapshot_every and step % config.snapshot_every == 0:
            rep.snapshots[step] = field.copy()
    rep.dt_used = dt
    rep.steps = step
    return rep


# ---------------------------------------------------------------------------
# perturbations and the stability experiment


PERTURBATION_KINDS = ("none", "bump", "shear", "dimple")


def perturb(field: Field2D, kind, amplitude, rng) -> Field2D:
    """Mass-preserving perturbations of a traveling profile."""
    if kind not in PERTURBATION_KINDS:
        raise ParameterError(f"unknown perturbation kind {kind!r}")
    g = field.grid
    com = center_of_mass(field)
    vals = field.values
    supp = vals > 1e-12 * vals.max()
    X1, X2 = g.centers()
    r_supp = float(np.hypot(X1 - com[0], X2 - com[1])[supp].max())
    if kind == "none":
        out = vals.copy()
    elif kind == "bump":
        ang = rng.uniform(0.0, 2.0 * math.pi)
        cx = com[0] + 0.5 * r_supp * math.cos(ang)
        cy = com[1] + 0.5 * r_supp * math.sin(ang)
        w = 0.35 * r_supp
        bump = np.exp(-((X1 - cx) ** 2 + (X2 - cy) ** 2) / (2 * w * w))
        out = vals + amplitude * float(vals.max()) * bump
    elif kind == "shear":
        out = np.empty_like(vals)
        slope = amplitude * (X1[0] - com[0]) / max(r_supp, g.h1)
        for i in range(g.nx):
            c = slope[i] * r_supp
            k = math.floor(c / g.h2)
            frac = c / g.h2 - k
            col = np.zeros(g.ny)
            lo, hi = max(0, -k), min(g.ny, g.ny - k)
            if hi > lo:
                col[lo:hi] = (1 - frac) * vals[lo + k:hi + k, i]
            kk = k + 1
            lo, hi = max(0, -kk), min(g.ny, g.ny - kk)
            if hi > lo and frac > 0:
                col[lo:hi] += frac * vals[lo + kk:hi + kk, i]
            out[:, i] = col
    else:  # dimple
        ang = rng.uniform(0.0, 2.0 * math.pi)
        cx = com[0] + 0.3 * r_supp * math.cos(ang)
        cy = com[1] + 0.3 * r_supp * math.sin(ang)
        w = 0.3 * r_supp
        dip = np.exp(-((X1 - cx) ** 2 + (X2 - cy) ** 2) / (2 * w * w))
        out = vals * (1.0 - amplitude * dip)
    out = np.clip(out, 0.0, None)
    m = float(np.sum(out)) * g.cell_area
    out *= mass(field) / m
    return Field2D(g, out, nonneg=True)


def stability_experiment(omega: Field2D, params: KernelParams,
                         perturbations, config: EvolutionConfig,
                         speed_hint=0.0, seed=0):
    """Evolve each perturbed initial state and tabulate the measured initial
    distance against the sup of the orbital distance along the trajectory.

    All randomness flows from one counter-based generator keyed on
    (seed, trial seed), so runs reproduce bitwise."""
    rows = []
    for spec in perturbations:
        kind, amplitude, trial_seed = spec
        rng = np.random.Generator(np.random.Philox(key=seed * 2 ** 32
                                                   + trial_seed))
        xi0 = perturb(omega, kind, amplitude, rng)
        d0, _ = orbital_distance(xi0, omega, -4 * omega.grid.h2,
                                 4 * omega.grid.h2)
        rep = evolve(xi0, params, config, reference=omega,
                     speed_hint=speed_hint)
        rows.append({
            "kind": kind,
            "amplitude": amplitude,
            "seed": trial_seed,
            "delta_meas": d0,
            "sup_distance": max(rep.orbital_distance),
            "final_distance": rep.orbital_distance[-1],
            "mass_drift": rep.drift("mass"),
            "impulse_drift": rep.drift("impulse"),
            "steps": rep.steps,
        })
    return rows
