"""Whole-plane limiting problem: radial ground state by damped fixed point.

The maximizer of E0(w) = (c_s/2) int int w w |x-y|^(2s-2) - int J(w) over
nonnegative mass-kappa fields is radial and non-increasing, so the solve is
reduced to a 1D radial grid.  The potential of each unit-density annulus at a
target radius is computed by azimuthal Gauss quadrature in which the radial
integral along each ray is exact (closed-form primitive of r^(2s-1) between
the ray/annulus intersection points); this keeps the kernel diagonal accurate
for every s in (0, 1).

The fixed point iterated is  w  <-  f((psi - mu)_+)  with mu chosen by a
safeguarded Newton solve, warm-started from the previous iterate's mu, so
the mass stays exactly kappa, damped and monitored for energy ascent.
`constrained_ascent` is that iteration for every maximizer of the lab: the
radial solve here, its 2D polish (`to_state_2d`) and the half-plane pair
(`pair.solve_pair`, which switches on Anderson mixing).  Each caller supplies
the energy and potential, the multiplier target, the mass measure and the
projection.
"""

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    DomainTooSmallError,
    ParameterError,
    RegimeError,
)
from .fields import Field2D, Grid2D, RadialField, annulus_areas
from .kernels import potential_free_grid, riesz_constant
from .profiles import PowerProfile, check_positive, compute_struct_constants


# ---------------------------------------------------------------------------
# radial kernel matrix

# elements (targets x edges x angles) per block of ring_potential_matrix: the
# temporaries stay in cache instead of costing tens of MB at nr = 256
_RING_BLOCK = 1 << 16


def _gauss_legendre(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def ring_potential_matrix(r_targets, r_nodes, dr, s, n_angles):
    """M[i, j] = kernel integral over annulus j (unit density) at radius
    r_targets[i] from the origin.

    Per angle alpha the admissible ray segment is the root interval of two
    quadratics (intersection with the annulus circles); the radial integral
    of c_s t^(2s-2) * t dt over a segment [a, b] is c_s (b^(2s)-a^(2s))/(2s).
    The segment term of each ray is evaluated once per distinct edge radius
    (neighbouring annuli share one where their edges agree to the bit) and
    differenced by index, in row blocks of about `_RING_BLOCK` elements
    whose temporaries are allocated once per call; powers are taken only
    where the ray crosses the edge circle and the base is positive (0^(2s)
    is +0).  The angular sum runs over the same contiguous layout as the
    plain broadcast over all (target, annulus, angle) triples, so M is
    bitwise the same.
    """
    c_s = riesz_constant(s)
    r_targets = np.asarray(r_targets, dtype=float)
    r_nodes = np.asarray(r_nodes, dtype=float)
    two_s = 2.0 * s
    ang, w_ang = _gauss_legendre(n_angles, 0.0, math.pi)
    sin_a, cos_a = np.sin(ang), np.cos(ang)
    edges, index = np.unique(np.concatenate(
        [r_nodes + 0.5 * dr, np.clip(r_nodes - 0.5 * dr, 0.0, None)]),
        return_inverse=True)
    outer, inner = index[:r_nodes.size], index[r_nodes.size:]
    e2 = (edges ** 2)[None, :, None]
    M = np.empty((r_targets.size, r_nodes.size))
    rows = max(1, min(r_targets.size,
                      _RING_BLOCK // (edges.size * n_angles)))
    block = (rows, edges.size, n_angles)
    bufs = ([np.empty(block) for _ in range(5)]
            + [np.empty(block, dtype=bool) for _ in range(2)]
            + [np.empty((rows, 1, n_angles)) for _ in range(2)]
            + [np.empty((rows, r_nodes.size, n_angles)) for _ in range(2)])
    coef = 2.0 * (c_s / two_s)
    for i0 in range(0, r_targets.size, rows):
        c = min(rows, r_targets.size - i0)
        g, sq, tp, tm, seg, far, near, nb, rs, val, val_in = (
            b[:c] for b in bufs)
        r = r_targets[i0:i0 + c][:, None, None]            # (c,1,1)
        np.negative(np.multiply(r, cos_a, out=nb), out=nb)  # (c,1,na)
        np.square(np.multiply(r, sin_a, out=rs), out=rs)
        np.subtract(e2, rs, out=g)                          # (c,ne,na)
        np.sqrt(np.maximum(g, 0.0, out=sq), out=sq)
        np.add(nb, sq, out=tp)                              # tm <= tp
        np.subtract(nb, sq, out=tm)
        np.logical_and(np.greater(g, 0.0, out=far),
                       np.greater(tp, 0.0, out=near), out=far)
        seg.fill(0.0)
        np.power(tp, two_s, out=seg, where=far)
        np.logical_and(far, np.greater(tm, 0.0, out=near), out=near)
        np.power(tm, two_s, out=tm, where=near)
        np.subtract(seg, tm, out=seg, where=near)
        np.take(seg, outer, axis=1, out=val, mode="clip")  # (c,nr,na)
        np.take(seg, inner, axis=1, out=val_in, mode="clip")
        np.multiply(np.subtract(val, val_in, out=val), w_ang, out=val)
        np.sum(val, axis=2, out=M[i0:i0 + c])
        M[i0:i0 + c] *= coef
    return M


@functools.lru_cache(maxsize=8)
def _unit_ring_matrix(nr, n_angles, s):
    """Read-only ring_potential_matrix of nr unit-spacing annuli at their
    midpoints.  M is homogeneous of degree 2s in the spacing, so
    dr ** (2s) times this is the matrix at spacing dr to roundoff; at unit
    spacing every edge is an integer, so the nr + 1 edges are shared."""
    r = np.arange(nr) + 0.5
    M = ring_potential_matrix(r, r, 1.0, s, n_angles=n_angles)
    M.flags.writeable = False
    return M


# ---------------------------------------------------------------------------
# multiplier: safeguarded Newton on the mass (shared with the pair solver)

_MASS_TOL = 1e-12        # relative mass mismatch at which the multiplier stops
_MULTIPLIER_ITERS = 220  # evaluations before it returns its last mu


def solve_multiplier(psi_eff, measures, profile, kappa, mu0=None):
    """Find mu with sum measures * (J')^{-1}((psi_eff - mu)_+) = kappa.

    The mass m(mu) is continuous and strictly decreasing below max psi_eff,
    where it vanishes, so the root is unique.  Each evaluation is one
    (J')^{-1} call on the active cells t = psi_eff - mu > 0 (inactive cells
    carry zero density); the same values give the slope
    m'(mu) = -p sum a (J')^{-1}(t) / t.  The iteration takes the Newton
    step when it lands inside the bracket [lo, hi] and is at most half the
    step before last, and bisects otherwise.  It starts from mu0 (the
    previous multiplier, a warm start) when that lies below max psi_eff,
    else from 0.  Until some mu gives a mass above kappa, lo is open and mu
    moves left by the Newton step, at most a span that doubles each time
    (this also pushes mu negative when needed: transient iterates only,
    converged multipliers come out positive).  The returned density is
    rescaled to mass kappa exactly.
    """
    p = profile.p

    def mass_at(mu):
        t = psi_eff - mu
        active = t > 0.0
        t = t[active]
        a = measures[active]
        w = profile.Jprime_inverse(t)
        m = float(np.sum(a * w))
        slope = -p * float(np.sum(a * w / t))
        return m, slope, active, w

    hi = float(np.max(psi_eff))
    lo = None
    nxt = float(mu0) if mu0 is not None and mu0 < hi else 0.0
    span = max(hi, 1.0)
    n_expand = 0
    steps = [math.inf, math.inf]  # the last two step lengths
    for _ in range(_MULTIPLIER_ITERS):
        mu = nxt
        m, slope, active, w = mass_at(mu)
        if abs(m - kappa) <= _MASS_TOL * kappa:
            break
        if m > kappa:
            lo = mu
        else:
            hi = min(hi, mu)
        nxt = mu - (m - kappa) / slope if slope < 0.0 else math.nan
        if lo is None:
            if not mu - span < nxt < hi:
                nxt = mu - span
            span *= 2.0
            n_expand += 1
            if n_expand > 60:
                raise BracketError(
                    f"multiplier bracket exhausted: mass at mu={mu:.3g} "
                    f"is {m:.3g} < kappa={kappa:.3g}")
        elif not (lo < nxt < hi and abs(nxt - mu) <= 0.5 * steps[0]):
            nxt = 0.5 * (lo + hi)
        steps = [steps[1], abs(nxt - mu)]
    if m <= 0:
        raise BracketError("mass collapsed to zero in the multiplier solve")
    omega = np.zeros(psi_eff.shape)
    omega[active] = w * (kappa / m)
    return mu, omega


# ---------------------------------------------------------------------------
# energy-monitored damped step and the constrained fixed-point driver

# residual at which a mixed solve has reached its roundoff floor and stops
_RESIDUAL_FLOOR = 1e-12
_DAMPING = 0.5  # first and largest step of the damped fixed point


def monitored_step(trial_at, evaluate, energy, theta):
    """One energy-monitored damped ascent step.

    Tries x = trial_at(theta) and halves theta, up to 7 times, until the
    energy evaluate(x)[0] does not fall below `energy` by more than 1e-8
    relative; an accepted step regrows theta by 1.3 up to _DAMPING.  When
    every trial descends, the smallest step (theta / 128) is taken anyway.
    Returns (x, evaluate(x), theta, accepted)."""
    for _ in range(7):
        x = trial_at(theta)
        ev = evaluate(x)
        if ev[0] >= energy - 1e-8 * max(abs(energy), 1e-30):
            return x, ev, min(_DAMPING, theta * 1.3), True
        theta *= 0.5
    x = trial_at(theta)
    return x, evaluate(x), theta, False


def constrained_ascent(x, evaluate, target, mass, *, kappa, tol, max_iter,
                       anderson, project=None, mu=None, name="fixed point"):
    """Energy-monitored fixed point x <- f of a mass-constrained maximizer.

    The caller supplies the problem: evaluate(x) -> (energy, psi), the
    multiplier target target(psi, mu) -> (mu, f), one fixed map whatever
    the iteration count or the residual, the mass measure mass(v) and the
    projection onto admissible iterates (none by default).
    Iteration it takes g = f - x and the residual mass(|g|) / kappa.

    With anderson=False the solve stops at the first residual <= tol
    ("tol") and otherwise takes the damped step project(x + theta g)
    through monitored_step.  With anderson=True a depth-4 Anderson
    candidate is tried first and kept when its energy does not fall by more
    than 1e-6 relative; the damped step is the fallback and clears the
    history.
    Mixing is for slow modes the damped map relaxes hopelessly slowly, like
    the pair's blob position, whose force is itself part of the residual;
    so the mixed solve does not stop at the first residual <= tol but at the
    first residual at or below the roundoff floor of the map, or tol when
    that is smaller ("floor").  A mixed solve that plateaus above the floor
    stops once the residual is <= tol and has not improved 0.7x for 30
    iterations ("plateau").

    Eight rejected damped steps in a row, or max_iter iterations, raise
    ConvergenceError.  Returns (x, psi, mu, energy, residual, iterations,
    stop), stop naming the rule that ended the solve.
    """
    if project is None:
        def project(v):
            return v
    energy, psi = evaluate(x)
    theta = _DAMPING
    residual = best = math.inf
    since_best = bad_streak = 0
    floor = min(tol, _RESIDUAL_FLOOR)
    dX, dG = [], []
    x_prev = g_prev = None
    for it in range(1, max_iter + 1):
        mu, f = target(psi, mu)
        g = f - x
        residual = mass(np.abs(g)) / kappa
        if not anderson:
            if residual <= tol:
                stop = "tol"
                break
        else:
            if residual < 0.7 * best:
                best, since_best = residual, 0
            else:
                since_best += 1
            if residual <= floor or (residual <= tol and since_best >= 30):
                stop = "floor" if residual <= floor else "plateau"
                break
            if x_prev is not None:
                dX.append((x - x_prev).ravel())
                dG.append((g - g_prev).ravel())
                if len(dX) > 4:
                    dX.pop(0)
                    dG.pop(0)
            x_prev, g_prev = x, g
            if dX:
                GM = np.column_stack(dG)
                # regularized least squares: keep the extrapolation tame once
                # the history becomes nearly rank-deficient at the floor
                gam, *_ = np.linalg.lstsq(GM, g.ravel(), rcond=1e-8)
                nrm = float(np.linalg.norm(gam))
                if nrm > 50.0:
                    gam *= 50.0 / nrm
                cand = x.ravel() + g.ravel() - (np.column_stack(dX) + GM) @ gam
                cand = project(cand.reshape(x.shape))
                e_t, psi_t = evaluate(cand)
                if e_t >= energy - 1e-6 * max(abs(energy), 1e-30):
                    x, psi, energy = cand, psi_t, e_t
                    continue
            dX.clear()
            dG.clear()
        x, (energy, psi), theta, stepped = monitored_step(
            lambda t: project(x + t * g), evaluate, energy, theta)
        bad_streak = 0 if stepped else bad_streak + 1
        if bad_streak >= 8:
            raise ConvergenceError(f"{name}: sustained energy descent",
                                   residual=residual, iterations=it)
    else:
        raise ConvergenceError(
            f"{name}: no convergence in {max_iter} iterations "
            f"(residual {residual:.3g})", residual=residual,
            iterations=max_iter)
    return x, psi, mu, energy, residual, it, stop


# ---------------------------------------------------------------------------
# energies


def energy_E0(field: Field2D, profile: PowerProfile, psi=None) -> float:
    """E0 = (1/2) int w G*w - int J(w) for a cell-averaged field, with the
    kernel order and J of the profile; psi is the field's potential when
    the caller already has it."""
    vals = field.values
    if psi is None:
        psi = potential_free_grid(field, profile.s)
    a = field.grid.cell_area
    return float(0.5 * np.sum(vals * psi) * a - np.sum(profile.J(vals)) * a)


@dataclass
class LimitingSolution:
    """Converged whole-plane ground state on a radial grid."""

    profile: PowerProfile
    kappa: float
    omega0: RadialField
    mu0: float
    E0: float
    kinetic: float              # int w G w
    j_integral: float           # int J(w)
    support_radius: float
    iterations: int
    residuals: dict
    warnings: list = dc_field(default_factory=list)

    def report(self):
        return {
            "s": self.profile.s,
            "p": self.profile.p,
            "L": self.profile.L,
            "kappa": self.kappa,
            "mu0": self.mu0,
            "E0": self.E0,
            "support_radius": self.support_radius,
            "virial_residual": self.residuals["virial"],
            "multiplier_residual": max(
                self.residuals["multiplier_vs_energy"],
                self.residuals["multiplier_vs_integrals"]),
            "iterations": self.iterations,
            "converged": True,   # a solve that does not converge raises
            "warnings": list(self.warnings),
        }


def _radial_energy(omega, psi, meas, profile):
    kin = float(np.sum(meas * omega * psi))
    jint = float(np.sum(meas * profile.J(omega)))
    return 0.5 * kin - jint, kin, jint


def _initial_patch(profile, kappa):
    """Trial patch with positive energy: density r^-2 on the disk of radius
    a*r (a = sqrt(kappa/pi)), with r picked from a coarse dyadic scan."""
    a = math.sqrt(kappa / math.pi)
    s, c_s = profile.s, riesz_constant(profile.s)
    # unit-disk self-energy of the free kernel, once, on a small radial grid
    # (the sizing matrix that _solve_sized's coarse pass shares)
    nr0 = 96
    dr0 = 1.0 / nr0
    m0 = dr0 ** (2.0 * s) * _unit_ring_matrix(nr0, 64, s)
    t1 = float(np.sum(annulus_areas(nr0, dr0) * (m0 @ np.ones(nr0)))) / c_s
    best = None
    for r in [2.0 ** k for k in range(0, 7)]:
        kin = 0.5 * c_s * a ** (2 + 2 * s) * t1 * r ** (2 * s - 2)
        jint = float(profile.J(r ** -2)) * math.pi * (a * r) ** 2
        e = kin - jint
        if best is None or e > best[0]:
            best = (e, r)
    return best[1], a * best[1], best[0]


def check_controls(tol, max_iter):
    """ParameterError unless 0 < tol < 1 and max_iter >= 1."""
    if not (0 < tol < 1 and max_iter >= 1):
        raise ParameterError(f"need 0 < tol < 1 and max_iter >= 1, got "
                             f"tol={tol}, max_iter={max_iter}")


def solve_limiting(s, p, kappa=1.0, nr=256, L=None, n_angles=64, tol=1e-6,
                   max_iter=2000):
    """Damped fixed-point solve of the limiting maximization problem.

    Returns a LimitingSolution whose Euler-Lagrange residual
    ||w - f((G w - mu)_+)||_1 / kappa is below tol.
    """
    profile = PowerProfile(p=p, s=s, L=L)
    check_positive("kappa", kappa)
    if nr < 4 or n_angles < 1:  # the fallback patch r < r[nr // 4]
        raise ParameterError(f"need nr >= 4 and n_angles >= 1, got nr={nr}, "
                             f"n_angles={n_angles}")
    check_controls(tol, max_iter)
    warnings = []
    if p <= 1.0:
        warnings.append("p <= 1: maximizer computed with no uniqueness guarantee")
    return _solve_sized(profile, kappa, nr, n_angles, tol, max_iter, warnings)


def _solve_sized(profile, kappa, nr, n_angles, tol, max_iter, warnings):
    """Solve on [0, rmax], doubling rmax once when the support touches
    0.9 rmax.  A cheap coarse pass sizes the domain first (rmax is 4 times
    its support radius): the patch estimate can be off by an order of
    magnitude when the ground state is concentrated.  The coarse pass
    returns only a whole-cell support radius, so it runs on the rescaled
    unit-spacing matrix that _initial_patch also uses; the certified pass
    builds its own, since the rescaled one moves E0 and mu0 at roundoff.
    A ground state whose radius holding 99% of kappa spans fewer than nr/16
    cells is recorded as an under-resolved warning: the support radius
    alone passes a state collapsed into one cell over a faint tail."""
    r_patch, support_est, _ = _initial_patch(profile, kappa)

    def solve(nr, rmax, n_angles, tol, warnings, sizing=False):
        for attempt in range(2):
            sol = _solve_limiting_on(
                profile, kappa, nr, rmax, n_angles, tol, max_iter, r_patch,
                warnings, sizing)
            if sol.support_radius <= 0.9 * rmax:
                return sol
            if attempt == 0:
                warnings.append(f"support touched 0.9*rmax={0.9 * rmax:.3g}; "
                                "doubling rmax")
                rmax *= 2.0
        raise DomainTooSmallError(
            f"support radius {sol.support_radius:.3g} still touches "
            f"rmax={rmax:.3g} after doubling")

    rmax = 4.0 * solve(min(96, nr), 8.0 * support_est, 64, 1e-4, [],
                       sizing=True).support_radius
    sol = solve(nr, rmax, n_angles, tol, warnings)
    held = np.cumsum(sol.omega0.values * annulus_areas(nr, sol.omega0.dr))
    cells = int(np.searchsorted(held, 0.99 * held[-1])) + 1
    if cells < nr / 16:
        warnings.append(
            f"under-resolved: 99% of the mass lies within {cells} of {nr} "
            f"cells (< nr/16); the identity residuals are unreliable")
    return sol


def _solve_limiting_on(profile, kappa, nr, rmax, n_angles, tol, max_iter,
                       r_patch, warnings, sizing):
    s = profile.s
    dr = rmax / nr
    r = (np.arange(nr) + 0.5) * dr
    meas = annulus_areas(nr, dr)
    if sizing:
        M = dr ** (2.0 * s) * _unit_ring_matrix(nr, n_angles, s)
    else:
        M = ring_potential_matrix(r, r, dr, s, n_angles=n_angles)

    a_patch = math.sqrt(kappa / math.pi) * r_patch
    omega = np.where(r < a_patch, r_patch ** -2.0, 0.0)
    m = float(np.sum(meas * omega))
    if m <= 0:
        omega = np.where(r < r[nr // 4], 1.0, 0.0)
        m = float(np.sum(meas * omega))
    omega *= kappa / m

    def evaluate(x):
        psi_x = M @ x
        return _radial_energy(x, psi_x, meas, profile)[0], psi_x

    omega, psi, mu, _, residual, it, _ = constrained_ascent(
        omega, evaluate,
        lambda psi, mu: solve_multiplier(psi, meas, profile, kappa, mu0=mu),
        lambda v: float(np.sum(meas * v)),
        kappa=kappa, tol=tol, max_iter=max_iter, anderson=False,
        name="limiting solve")

    energy, kin, jint = _radial_energy(omega, psi, meas, profile)
    nz = np.nonzero(omega > 1e-12 * omega.max())[0]
    support_radius = float(r[nz[-1]] + 0.5 * dr) if nz.size else 0.0
    sol = LimitingSolution(
        profile=profile, kappa=kappa,
        omega0=RadialField(nr, rmax, omega), mu0=mu,
        E0=energy, kinetic=kin, j_integral=jint,
        support_radius=support_radius, iterations=it,
        residuals={}, warnings=warnings,
    )
    sol.residuals = {"fixed_point": residual, "virial": virial_residual(sol),
                     **_multiplier_residuals(sol)}
    return sol


# ---------------------------------------------------------------------------
# identity residuals


def virial_residual(sol: LimitingSolution) -> float:
    """Scaling-stationarity mismatch |(s-1) A - (2-2g) B| normalized by the
    magnitudes of the two sides (A = int w G w, B = int J(w))."""
    gamma = sol.profile.gamma
    lhs = (sol.profile.s - 1.0) * sol.kinetic
    rhs = (2.0 - 2.0 * gamma) * sol.j_integral
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs))


def _multiplier_residuals(sol: LimitingSolution) -> dict:
    """Relative mismatches of the two multiplier representations
    (kappa mu = A - gamma B and kappa mu = A_gamma E0) against the solver's
    mu and against each other."""
    gamma = sol.profile.gamma
    consts = compute_struct_constants(sol.profile, kappa=sol.kappa)
    mu_from_integrals = (sol.kinetic - gamma * sol.j_integral) / sol.kappa
    mu_from_energy = consts.A_gamma * sol.E0 / sol.kappa
    scale = max(abs(sol.mu0), abs(mu_from_integrals), abs(mu_from_energy))
    return {
        "multiplier_vs_integrals": abs(sol.mu0 - mu_from_integrals) / scale,
        "multiplier_vs_energy": abs(sol.mu0 - mu_from_energy) / scale,
        "multiplier_mutual": abs(mu_from_integrals - mu_from_energy) / scale,
    }


# ---------------------------------------------------------------------------
# 2D export and the linearized operator

_BOX_FACTOR = 1.45  # half-width of the 2D box in limiting support radii
_POLISH_ITERS = 200  # iteration budget of the 2D polish
_POLISH_TOL = 1e-8   # fixed-point residual at which the polish stops


@dataclass
class Limiting2DState:
    """Ground state re-converged on a 2D grid (discrete EL holds on it)."""

    field: Field2D
    psi: np.ndarray
    mu: float
    E0: float
    profile: PowerProfile
    kappa: float


def radial_to_field(radial: RadialField, grid: Grid2D,
                    center=(0.0, 0.0)) -> Field2D:
    """Sample a radial profile at the cell centers of a 2D grid."""
    X1, X2 = grid.centers()
    rr = np.hypot(X1 - center[0], X2 - center[1])
    r = radial.radii()
    vals = np.interp(rr.ravel(), r, radial.values, left=radial.values[0],
                     right=0.0).reshape(X1.shape)
    return Field2D(grid, vals, nonneg=True)


def to_state_2d(sol: LimitingSolution, n) -> Limiting2DState:
    """Resample the radial ground state onto an n x n grid and polish it with
    the same monitored fixed point so the 2D discrete EL equation holds.
    Raises ConvergenceError when _POLISH_ITERS iterations do not reach
    _POLISH_TOL."""
    w = _BOX_FACTOR * sol.support_radius
    grid = Grid2D(n, n, -w, w, -w, w)
    f = radial_to_field(sol.omega0, grid)
    profile, kappa = sol.profile, sol.kappa
    a = grid.cell_area
    vals = f.values * (kappa / (np.sum(f.values) * a))
    meas = np.full(vals.shape, a)

    def evaluate(x):
        field = Field2D(grid, x, nonneg=True)
        psi = potential_free_grid(field, profile.s)
        return energy_E0(field, profile, psi), psi

    vals, psi, mu, e0, *_ = constrained_ascent(
        vals, evaluate,
        lambda psi, mu: solve_multiplier(psi, meas, profile, kappa, mu0=mu),
        lambda v: float(np.sum(v) * a), kappa=kappa,
        tol=_POLISH_TOL, max_iter=_POLISH_ITERS, anderson=False, mu=sol.mu0,
        name="2D polish")
    return Limiting2DState(field=Field2D(grid, vals, nonneg=True), psi=psi,
                           mu=mu, E0=e0, profile=profile, kappa=kappa)


def _linearization(state: Limiting2DState):
    """Coefficient p L_g (psi0 - mu)_+^{p-1} of the linearized operator and
    the weight A_g mu/kappa of its mean term; RegimeError unless p > 1."""
    profile = state.profile
    if profile.p <= 1.0:
        raise RegimeError("linearized operator needs p > 1")
    coeff = profile.p * profile.L_gamma * np.clip(
        state.psi - state.mu, 0.0, None) ** (profile.p - 1.0)
    consts = compute_struct_constants(profile, kappa=state.kappa)
    return coeff, consts.A_gamma * state.mu / state.kappa


def linearized_apply(phi: Field2D, state: Limiting2DState,
                     include_mean_term=True) -> Field2D:
    """Apply  phi -> phi - p L_g (psi0 - mu)_+^{p-1} (G phi - A_g mu/kappa int phi).

    The coefficient vanishes outside the ground-state support, so the operator
    is the identity there.  Requires p > 1 (continuous coefficient)."""
    coeff, r_mean = _linearization(state)
    if phi.grid != state.field.grid:
        raise DomainError("phi must live on the state's grid")
    gphi = potential_free_grid(phi, state.profile.s)
    out = phi.values - coeff * gphi
    if include_mean_term:
        mean = float(np.sum(phi.values) * phi.grid.cell_area)
        out = out + coeff * r_mean * mean
    return Field2D(phi.grid, out)


def translational_mode(state: Limiting2DState, axis) -> Field2D:
    """Centered-difference derivative of the ground state (a discrete element
    of the linearized operator's kernel direction)."""
    v = state.field.values
    d = np.zeros_like(v)
    if axis == 2:
        d[1:-1, :] = (v[2:, :] - v[:-2, :]) / (2.0 * state.field.grid.h2)
    else:
        d[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * state.field.grid.h1)
    return Field2D(state.field.grid, d)


# ---------------------------------------------------------------------------
# projected minimum singular value of the linearized operator


def _constraint_basis(grid, mask):
    X1, X2 = grid.centers()
    cols = []
    for w in (np.ones_like(X1), X1, X2):
        v = (w * mask).ravel()
        cols.append(v / np.linalg.norm(v))
    Q, _ = np.linalg.qr(np.column_stack(cols))
    return Q


_GAP_COLLAR = 2     # cells of collar around the coefficient's support
_GAP_ITERS = 30     # inverse iterations
_GAP_CG_TOL = 1e-8  # relative tolerance of each of their CG solves
_GAP_SEED = 7       # seed of the random start


def spectral_gap_estimate(state: Limiting2DState):
    """Minimum singular value of the linearized operator restricted to cells
    carrying its coefficient (plus a collar), projected onto
    {int phi = int x1 phi = int x2 phi = 0}.

    Matrix-free inverse iteration with CG on the normal equations, each
    apply being one FFT potential evaluation.
    """
    from scipy.ndimage import binary_dilation
    coeff, r_mean = _linearization(state)
    mask = binary_dilation(coeff > 0.0, iterations=_GAP_COLLAR)
    n_cells = int(mask.sum())
    if n_cells == 0:
        # the coefficient vanishes: the operator is the identity
        return {"gap": 1.0, "n_cells": 0}
    grid = state.field.grid
    a = grid.cell_area
    s = state.profile.s
    Q = _constraint_basis(grid, mask)
    flat_mask = mask.ravel()

    def project(v):
        v = v * flat_mask
        return v - Q @ (Q.T @ v)

    def pot(v):
        f = Field2D(grid, v.reshape(grid.ny, grid.nx))
        return potential_free_grid(f, s).ravel()

    cflat = coeff.ravel()

    def apply_L(v):
        gv = pot(v)
        return v - cflat * (gv - r_mean * a * v.sum())

    def apply_Lt(v):
        cv = cflat * v
        return v - pot(cv) + r_mean * a * cv.sum()

    def apply_B(v):
        return project(apply_Lt(apply_L(project(v))))

    rng = np.random.default_rng(_GAP_SEED)
    n = grid.nx * grid.ny
    v = project(rng.standard_normal(n))
    v /= np.linalg.norm(v)
    lam = None
    for _ in range(_GAP_ITERS):
        z = project(_cg(apply_B, v, tol=_GAP_CG_TOL, max_iter=600))
        nz = np.linalg.norm(z)
        if nz == 0:
            break
        v = z / nz
        lam = float(v @ apply_B(v))
    return {"gap": math.sqrt(max(lam, 0.0)), "n_cells": n_cells}


def _cg(apply_A, b, tol, max_iter):
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    b_norm = math.sqrt(float(b @ b))
    for _ in range(max_iter):
        Ap = apply_A(p)
        alpha = rs / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= tol * b_norm:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x
