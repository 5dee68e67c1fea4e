"""Half-plane constrained maximization: the traveling vortex pair.

Maximizes  E(w) = (1/2) int w G+ w - Wcal int x1 w - int J(w)  over
nonnegative fields of mass kappa supported in the prescribed disk, with
Wcal = W eps^(3-2s).  The fixed point iterated is

    w <- (J')^{-1}((G+ w - Wcal x1 - mu)_+) * 1_disk,

mu by a warm-started safeguarded Newton solve of the mass constraint,
every image Steiner-symmetrized in x2 (one fixed map), and iterated by
`limiting.constrained_ascent` with Anderson mixing and the energy-monitored
damped step as fallback.  The converged state feeds the
identity battery: translation stationarity in x1 (the location identity),
the multiplier representation through the structural constants, the
full-plane weak form of the traveling wave, the recentred residual operator
sup norm, and the rearrangement-class ascent.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConvergenceError, DomainError, GsqgError, ParameterError
from .fields import (
    Field2D,
    Grid2D,
    impulse,
    lp_norm,
    mass,
    orbital_distance,
    rearrangement_equimeasurable,
    reflect_oddify,
    steiner_symmetrize_x2,
)
from .kernels import (
    KernelParams,
    potential_free_grid,
    potential_halfplane_grid,
    velocity_pair_grid,
)
from .limiting import (
    LimitingSolution,
    constrained_ascent,
    radial_to_field,
    solve_multiplier,
    stop_floor,
)
from .profiles import PowerProfile, compute_struct_constants


class ConstraintActiveError(GsqgError, RuntimeError):
    """Support touched the constraint ball: eps too large for the regime.

    Carries the diagnosed solution in .solution for honest reporting."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class PairProblem:
    """Model parameters plus the support-constraint geometry."""

    s: float
    p: float
    kappa: float = 1.0
    W: float = 1.0
    eps: float = 0.1
    L: float = None  # canonical p/(p+1) when None

    def __post_init__(self):
        if self.eps <= 0 or self.W <= 0 or self.kappa <= 0:
            raise ParameterError("eps, W, kappa must be positive")

    @property
    def profile(self):
        return PowerProfile(p=self.p, s=self.s, L=self.L)

    @property
    def params(self):
        return KernelParams(self.s)

    @property
    def constants(self):
        return compute_struct_constants(self.s, self.p, L=self.L,
                                        kappa=self.kappa, W=self.W)

    @property
    def speed(self):
        """Traveling speed Wcal = W * eps^(3-2s)."""
        return self.W * self.eps ** (3.0 - 2.0 * self.s)

    @property
    def ball_center(self):
        return (self.constants.d0 / self.eps, 0.0)

    @property
    def ball_radius(self):
        return self.constants.d0 / (2.0 * self.eps)


@dataclass
class PairSolution:
    problem: PairProblem
    omega: Field2D
    psi_free: np.ndarray
    psi_halfplane: np.ndarray  # the half-plane potential G+ w
    mu: float
    x_center: tuple
    d_eps: float
    E_eps: float
    E0_part: float        # whole-plane energy of the half-plane field
    kinetic_free: float   # int w G w
    cross_image: float    # int int c_s w(x) w(y) |x - ybar|^(2s-2)
    j_integral: float
    impulse: float
    support_radius: float
    ball_clearance: float  # min distance from support to the ball boundary
    iterations: int
    stop: str = None               # "floor" or "plateau"; None on a reload
    ascent_residual: float = None  # the ascent's last fixed-point residual
    residuals: dict = dc_field(default_factory=dict)
    warnings: list = dc_field(default_factory=list)

    @property
    def psi_image(self):
        return self.psi_free - self.psi_halfplane

    @property
    def constraint_active(self):
        """Whether the support comes within two cells of the ball."""
        return self.ball_clearance <= 2.0 * self.omega.grid.h1

    def report(self):
        pb = self.problem
        return {
            "s": pb.s, "p": pb.p, "kappa": pb.kappa, "W": pb.W,
            "eps": pb.eps, "L": pb.L,
            "mu_eps": self.mu,
            "d_eps": self.d_eps,
            "d0": pb.constants.d0,
            "E_eps": self.E_eps,
            "location_identity_residual": self.residuals.get("location"),
            "multiplier_identity_residual": self.residuals.get("multiplier"),
            "weak_form_residual_max": self.residuals.get("weak_form_max"),
            "S_eps_sup": self.residuals.get("s_eps_sup"),
            "support_radius": self.support_radius,
            "iterations": self.iterations,
            "converged": True,   # a solve that does not converge raises
            "stop": self.stop,
            "ascent_residual": self.ascent_residual,
            "constraint_active": self.constraint_active,
            "warnings": list(self.warnings),
        }


_WINDOW_FACTOR = 6.0  # window width in limiting support radii
_MARGIN_CELLS = 4     # cells of margin on each side of the window


def check_window_cells(n):
    """ParameterError unless n cells leave room inside the margins."""
    if n <= 2 * _MARGIN_CELLS:
        raise ParameterError(
            f"n={n} must exceed twice the {_MARGIN_CELLS} margin cells")


def pair_grid(problem: PairProblem, n, support_estimate) -> Grid2D:
    """Square window of ~_WINDOW_FACTOR * support_estimate around the
    expected center, clipped to the constraint ball's bounding box; x1min
    snapped to the lattice through 0 so reflections stay cell-aligned."""
    check_window_cells(n)
    cx, _ = problem.ball_center
    w = min(0.5 * _WINDOW_FACTOR * support_estimate, problem.ball_radius)
    h = 2.0 * w / (n - 2 * _MARGIN_CELLS)
    w += _MARGIN_CELLS * h
    x1min = max(cx - w, 0.0)
    h = (cx + w - x1min) / n
    x1min = math.floor(x1min / h) * h
    nx = n
    x1max = x1min + nx * h
    ny = n if n % 2 == 0 else n + 1
    return Grid2D(nx, ny, x1min, x1max, -0.5 * ny * h, 0.5 * ny * h)


def ball_mask(grid: Grid2D, problem: PairProblem):
    X1, X2 = grid.centers()
    cx, cy = problem.ball_center
    return (X1 - cx) ** 2 + (X2 - cy) ** 2 <= problem.ball_radius ** 2


def energy_E_eps(field: Field2D, problem: PairProblem, psi=None) -> float:
    """E = (1/2) int w G+ w - speed * int x1 w - int J(w); psi is the
    field's half-plane potential when the caller already has it."""
    if psi is None:
        psi = potential_halfplane_grid(field, problem.params)
    a = field.grid.cell_area
    kin = 0.5 * float(np.sum(field.values * psi)) * a
    return kin - problem.speed * impulse(field) - float(
        np.sum(problem.profile.J(np.clip(field.values, 0.0, None)))) * a


def _location_sides(field: Field2D, problem: PairProblem):
    """Two sides of the x1-translation stationarity identity: the vortex's
    mean image-induced drift lhs = -int w u2 and rhs = speed * kappa.

    The image share of u2 is 2(1-s) c_s (x1+y1) |x-ybar|^(2s-4) against w(y),
    and the free share integrates to zero against w (odd kernel), so
    lhs = 2(1-s) c_s int int w(x)(x1+y1) w(y) |x-ybar|^(2s-4)."""
    u2 = velocity_pair_grid(field, problem.params)[1]
    lhs = -float(np.sum(field.values * u2)) * field.grid.cell_area
    return lhs, problem.speed * problem.kappa


def solve_pair(problem: PairProblem, limiting: LimitingSolution, n=192,
               tol=1e-6, max_iter=2000, allow_active=False,
               init_field: Field2D = None) -> PairSolution:
    """Fixed-point solve of the constrained pair problem.

    Initialization plants the limiting ground state at the expected center.
    Every multiplier image is Steiner-symmetrized in x2, so Anderson mixing
    extrapolates one fixed map.  The blob position in x1 is a near-neutral
    mode (its restoring force is the O(eps^(3-2s)) translation term), so
    the damped map alone relaxes it hopelessly slowly; constrained_ascent's
    Anderson mixing removes it, with the energy-monitored damped step as
    the safeguarded fallback.  The solution's stop says whether the ascent
    reached its roundoff floor ("floor") or stopped on a plateau above it
    ("plateau"), and ascent_residual gives its last residual.

    Raises ConstraintActiveError when the converged support touches the
    constraint ball (the asymptotic regime's red flag) unless allow_active.
    """
    profile, params = problem.profile, problem.params
    warnings = list(limiting.warnings)
    r_hat = limiting.support_radius
    if problem.ball_radius < 4.0 * r_hat:
        warnings.append(
            f"ball radius {problem.ball_radius:.3g} < 4 * limiting support "
            f"{r_hat:.3g}: eps is outside the asymptotic regime")

    grid = pair_grid(problem, n, r_hat)
    mask = ball_mask(grid, problem)
    a = grid.cell_area
    x1row = grid.x1_centers()

    if init_field is None:
        vals = radial_to_field(limiting.omega0, grid,
                               center=problem.ball_center).values * mask
    else:
        if init_field.grid != grid:
            raise DomainError("init_field must live on the solver window grid")
        vals = np.clip(init_field.values, 0.0, None) * mask
    m0 = float(np.sum(vals)) * a
    if m0 < 1e-12 * problem.kappa:
        vals = mask.astype(float)
        m0 = float(np.sum(vals)) * a
    vals = vals * (problem.kappa / m0)

    meas = np.full(mask.shape, a)

    def _project(w):
        w = np.clip(w, 0.0, None) * mask
        m = float(np.sum(w)) * a
        if m <= 0:
            raise ConvergenceError("iterate collapsed to zero mass")
        return w * (problem.kappa / m)

    def evaluate(w):
        """Energy and half-plane potential of an iterate."""
        f = Field2D(grid, w)
        psi_w = potential_halfplane_grid(f, params)
        return energy_E_eps(f, problem, psi_w), psi_w

    def target(psi, mu):
        # cells outside the ball sit at -inf and are never active
        psi_eff = np.where(mask, psi - problem.speed * x1row[None, :],
                           -np.inf)
        mu, f_new = solve_multiplier(psi_eff, meas, profile, problem.kappa,
                                     mu0=mu)
        return mu, steiner_symmetrize_x2(Field2D(grid, f_new, True)).values

    vals, *_, residual, it = constrained_ascent(
        vals, evaluate, target, lambda v: float(np.sum(v)) * a,
        kappa=problem.kappa, tol=tol, max_iter=max_iter, anderson=True,
        project=_project, name="pair solve")

    # final symmetrization pass (a no-op for the converged iterate), then
    # recompute the consistent state and certify the residual on it
    sol = rebuild_solution(
        problem, steiner_symmetrize_x2(Field2D(grid, vals, nonneg=True)))
    sol.iterations = it
    sol.stop = "floor" if residual <= stop_floor(tol) else "plateau"
    sol.ascent_residual = residual
    sol.warnings = warnings
    if sol.constraint_active and not allow_active:
        raise ConstraintActiveError(
            f"support reaches within {sol.ball_clearance:.3g} "
            f"(< 2h = {2 * grid.h1:.3g}) of the constraint ball: eps too "
            "large for the asymptotic regime", solution=sol)
    return sol


def rebuild_solution(problem: PairProblem, field: Field2D) -> PairSolution:
    """Derived quantities and the residual battery of a converged field: the
    tail of solve_pair, and the reload of a saved field (no iteration; mu
    comes from one cold-started multiplier solve, so a reload reproduces
    the solver's mu bitwise).  psi is the half-plane potential the solver
    iterates on; the image potential is the free potential minus psi."""
    params, profile = problem.params, problem.profile
    grid, vals = field.grid, field.values
    a = grid.cell_area
    X1, X2 = grid.centers()
    mask = ball_mask(grid, problem)
    psi = potential_halfplane_grid(field, params)
    psi_free = potential_free_grid(field, params)
    psi_eff = np.where(mask, psi - problem.speed * X1, -np.inf)
    mu, f_new = solve_multiplier(psi_eff, np.full(mask.shape, a), profile,
                                 problem.kappa)
    residual = float(np.sum(np.abs(f_new - vals))) * a / problem.kappa
    kin_free = float(np.sum(vals * psi_free)) * a
    cross = float(np.sum(vals * (psi_free - psi))) * a
    imp = float(np.sum(vals * X1)) * a
    jint = float(np.sum(profile.J(vals))) * a
    energy = 0.5 * (kin_free - cross) - problem.speed * imp - jint
    com1 = imp / problem.kappa
    com2 = float(np.sum(vals * X2)) * a / problem.kappa
    supp = vals > 1e-12 * vals.max()
    cx, cy = problem.ball_center
    rr = np.hypot(X1 - cx, X2 - cy)
    clearance = problem.ball_radius - (float(rr[supp].max()) if supp.any()
                                       else 0.0)
    rr_com = np.hypot(X1 - com1, X2 - com2)
    support_radius = float(rr_com[supp].max() + 0.5 * grid.h1) if supp.any() \
        else 0.0
    sol = PairSolution(
        problem=problem, omega=field, psi_free=psi_free, psi_halfplane=psi,
        mu=mu, x_center=(com1, com2), d_eps=problem.eps * com1,
        E_eps=energy, E0_part=0.5 * kin_free - jint,
        kinetic_free=kin_free, cross_image=cross, j_integral=jint,
        impulse=imp, support_radius=support_radius, ball_clearance=clearance,
        iterations=0,
    )
    sol.residuals = {
        "fixed_point": residual,
        "location": location_residual(sol)[2],
        "multiplier": multiplier_pair_residual(sol)["identity_mu"],
        "steiner_asymmetry": steiner_asymmetry(sol),
        "weak_form_max": max(weak_form_residual(sol).values()),
        "s_eps_sup": s_eps_norm(sol)[0],
    }
    return sol


# ---------------------------------------------------------------------------
# identity battery


def location_residual(sol: PairSolution):
    """Translation stationarity in x1:
    2(1-s) c_s int int w(x) (x1+y1) w(y) |x-ybar|^(2s-4) = speed * kappa.

    Returns (d_eps, |d_eps - d0|, relative identity residual)."""
    pb = sol.problem
    lhs, rhs = _location_sides(sol.omega, pb)
    resid = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return sol.d_eps, abs(sol.d_eps - pb.constants.d0), resid


def multiplier_pair_residual(sol: PairSolution) -> dict:
    """Relative mismatches of the multiplier and scaling identities built
    from the structural constants."""
    pb = sol.problem
    c = pb.constants
    gamma = pb.profile.gamma
    speed_I = pb.speed * sol.impulse
    # mu * kappa = A E0 + B * speed * I + C * cross
    lhs = sol.mu * pb.kappa
    rhs = (c.A_gamma * sol.E0_part + c.B_gamma * speed_I
           + c.C_gamma * sol.cross_image)
    scale = max(abs(lhs), abs(rhs), abs(c.A_gamma * sol.E0_part))
    r_mu = abs(lhs - rhs) / scale
    # int w G w = (2-2g)/(s-1) int J + speed I/(s-1) + cross
    lhs2 = sol.kinetic_free
    rhs2 = ((2.0 - 2.0 * gamma) / (pb.s - 1.0) * sol.j_integral
            + speed_I / (pb.s - 1.0) + sol.cross_image)
    r_scal = abs(lhs2 - rhs2) / max(abs(lhs2), abs(rhs2))
    return {"identity_mu": r_mu, "identity_scaling": r_scal}


def steiner_asymmetry(sol: PairSolution) -> float:
    sym = steiner_symmetrize_x2(sol.omega)
    return float(np.sum(np.abs(sym.values - sol.omega.values))
                 * sol.omega.grid.cell_area) / sol.problem.kappa


def s_eps_norm(sol: PairSolution):
    """Sup norm over the support of the recentred residual operator

        S = -speed*x1 - psi_image - B W eps^(2-2s) d_eps - (C/kappa) * cross,

    evaluated in the original frame (the recentring reduces to these four
    terms exactly).  Returns (sup, termwise dict of sup magnitudes)."""
    pb = sol.problem
    c = pb.constants
    g = sol.omega.grid
    supp = sol.omega.values > 1e-12 * sol.omega.values.max()
    X1 = g.centers()[0]
    t1 = -pb.speed * X1[supp]
    t2 = -sol.psi_image[supp]
    t3 = -c.B_gamma * pb.W * pb.eps ** (2.0 - 2.0 * pb.s) * sol.d_eps
    t4 = -(c.C_gamma / pb.kappa) * sol.cross_image
    s_val = t1 + t2 + t3 + t4
    sup = float(np.max(np.abs(s_val)))
    terms = {
        "impulse_term_sup": float(np.max(np.abs(t1))),
        "image_potential_sup": float(np.max(np.abs(t2))),
        "impulse_constant": abs(t3),
        "cross_constant": abs(t4),
    }
    return sup, terms


def weak_form_battery(sol: PairSolution):
    """Default test functions: tensor Gaussians and polynomial bumps centered
    on and off the vortex, plus the coordinate function x1.  Each entry is
    (name, grad phi(x1, x2)); the residual reads only the gradient."""
    cx, cy = sol.x_center
    r = max(sol.support_radius, sol.omega.grid.h1)

    def gaussian(ax, ay, sg):
        def grad(X1, X2):
            g = np.exp(-((X1 - ax) ** 2 + (X2 - ay) ** 2) / (2 * sg ** 2))
            return (-(X1 - ax) / sg ** 2 * g, -(X2 - ay) / sg ** 2 * g)

        return grad

    def bump(ax, ay, rad):
        def w(t):
            return np.clip(1.0 - t ** 2, 0.0, None) ** 2

        def dw(t):
            return -4.0 * t * np.clip(1.0 - t ** 2, 0.0, None)

        def grad(X1, X2):
            tx, ty = (X1 - ax) / rad, (X2 - ay) / rad
            return (dw(tx) * w(ty) / rad, w(tx) * dw(ty) / rad)

        return grad

    battery = [
        ("gauss_on_vortex", gaussian(cx, cy, 1.2 * r)),
        ("gauss_off_vortex", gaussian(cx + 1.5 * r, cy + 1.5 * r, 1.2 * r)),
        ("gauss_wide", gaussian(cx, cy, 3.0 * r)),
        ("bump_on_vortex", bump(cx, cy, 2.5 * r)),
        ("bump_offset", bump(cx - r, cy + r, 2.5 * r)),
        ("coordinate_x1",
         lambda X1, X2: (np.ones_like(X1), np.zeros_like(X1))),
    ]
    return battery


def weak_form_residual(sol: PairSolution, battery=None) -> dict:
    """Normalized residuals of int w_tr v . grad(phi), v = grad^perp(psi -
    speed*x1), over the full plane for each test function phi; w_tr is the
    odd extension of w, whose free potential psi is sol.psi_halfplane.

    Folded onto the window (at the mirror cell xbar, w_tr = -w, v1 = -v1(x),
    v2 = v2(x)), the sum is sum w [v1 (g1(x) + g1(xbar)) + v2 (g2(x) -
    g2(xbar))].  v takes centered differences of psi, so w must vanish on
    the window's outer ring of cells (the margin cells and the ball mask
    ensure it for solver output).  The normalization is ||w_tr||_1 = 2
    ||w||_1 times max|v| and max|grad phi| over the window and its mirror."""
    pb = sol.problem
    g = sol.omega.grid
    psi = sol.psi_halfplane
    h1, h2 = g.h1, g.h2
    # grad^perp(psi - speed*x1) = (d2 psi, -d1 psi + speed)
    v1 = np.zeros_like(psi)
    v2 = np.zeros_like(psi)
    v1[1:-1, :] = (psi[2:, :] - psi[:-2, :]) / (2 * h2)
    v2[:, 1:-1] = -(psi[:, 2:] - psi[:, :-2]) / (2 * h1)
    v2 += pb.speed
    X1, X2 = g.centers()
    a = g.cell_area
    w = sol.omega.values
    l1 = 2.0 * float(np.sum(np.abs(w))) * a
    vmax = float(np.max(np.hypot(v1, v2)))  # |v| is even in x1
    if battery is None:
        battery = weak_form_battery(sol)
    out = {}
    for name, grad in battery:
        g1, g2 = grad(X1, X2)
        m1, m2 = grad(-X1, X2)
        integral = float(np.sum(w * (v1 * (g1 + m1) + v2 * (g2 - m2)))) * a
        gmax = float(max(np.max(np.hypot(g1, g2)), np.max(np.hypot(m1, m2))))
        denom = l1 * vmax * gmax
        out[name] = abs(integral) / denom if denom > 0 else 0.0
    return out


def desingularization_check(solutions) -> dict:
    """Rescaled support geometry across eps: for each solution report
    sup_{spt} |eps*x - (d0, 0)|, its ratio to eps, and the one-sided mass."""
    rows = []
    for sol in solutions:
        pb = sol.problem
        g = sol.omega.grid
        X1, X2 = g.centers()
        supp = sol.omega.values > 1e-12 * sol.omega.values.max()
        dist = np.hypot(pb.eps * X1 - pb.constants.d0, pb.eps * X2)
        sup_dist = float(dist[supp].max())
        rows.append({
            "eps": pb.eps,
            "sup_dist": sup_dist,
            "sup_dist_over_eps": sup_dist / pb.eps,
            "mass_right": mass(sol.omega),
            "odd_mass": mass(reflect_oddify(sol.omega)),
        })
    return {"per_eps": rows}


# ---------------------------------------------------------------------------
# rearrangement-class ascent

_STALL_TOL = 1e-12  # relative energy change at which the ascent stops


def rearrangement_energy(field: Field2D, problem: PairProblem, psi) -> float:
    """Kinetic-minus-impulse functional (no J term) of a field whose
    half-plane potential is psi: the objective of the rearrangement-class
    maximization."""
    return 0.5 * float(np.sum(field.values * psi)) * field.grid.cell_area \
        - problem.speed * impulse(field)


def maximize_over_rearrangement_class(reference: Field2D, problem: PairProblem,
                                      start: Field2D = None, max_iter=500):
    """Ascent over rearrangements of `reference`: each step assigns the
    reference's sorted values to the cells sorted by the current transported
    stream function psi = G+ zeta - speed*x1 (descending, ties by cell
    index).  The linear part cannot decrease, so the energy trace is
    non-decreasing; stalls return the best iterate with a flag."""
    if np.any(reference.values < 0):
        raise DomainError("rearrangement ascent needs a nonnegative reference")
    params = problem.params
    g = reference.grid
    x1row = g.x1_centers()
    ref_sorted = np.sort(reference.values, axis=None)[::-1]
    zeta = (reference if start is None else start).copy()
    if start is not None and (start.grid != g or not
                              rearrangement_equimeasurable(reference, start)):
        raise DomainError("start must be a rearrangement of the reference")
    # one potential per step: an accepted iterate's energy and its next
    # step share it
    psi = potential_halfplane_grid(zeta, params)
    trace = [rearrangement_energy(zeta, problem, psi)]
    stalled = True
    for _ in range(max_iter):
        order = np.argsort(-(psi - problem.speed * x1row[None, :]).ravel(),
                           kind="stable")
        new_vals = np.empty(g.ny * g.nx)
        new_vals[order] = ref_sorted
        new = Field2D(g, new_vals.reshape(g.ny, g.nx), nonneg=True)
        if np.array_equal(new.values, zeta.values):
            stalled = False
            break
        zeta, psi = new, potential_halfplane_grid(new, params)
        trace.append(rearrangement_energy(zeta, problem, psi))
        if len(trace) > 2 and abs(trace[-1] - trace[-2]) <= _STALL_TOL * max(
                1.0, abs(trace[-2])):
            stalled = False
            break
    return zeta, {"energy_trace": trace, "stalled": stalled,
                  "iterations": len(trace) - 1}


def check_shift_cells(cells):
    """ParameterError unless the shift is at least one cell."""
    if cells < 1:
        raise ParameterError(f"shift_cells={cells} must be at least 1")


def rearrangement_shift_experiment(field: Field2D, problem: PairProblem,
                                   cells=5, max_iter=500):
    """Ascent started from an x2-shifted copy of a converged profile.

    The window is extended first so the shifted copy is an exact
    rearrangement; collapse back onto a translate is measured by the orbital
    distance against the threshold of a two-cell misalignment."""
    from .fields import embed, shift_x2

    check_shift_cells(cells)
    g = field.grid
    pad = cells + 4
    ext = Grid2D(g.nx, g.ny + 2 * pad, g.x1min, g.x1max,
                 g.x2min - pad * g.h2, g.x2max + pad * g.h2)
    ref = embed(field, ext)
    start = shift_x2(ref, cells * g.h2)
    zeta, info = maximize_over_rearrangement_class(ref, problem, start=start,
                                                   max_iter=max_iter)
    dist, c = orbital_distance(zeta, ref, -(cells + 3) * g.h2,
                               (cells + 3) * g.h2)
    two_cell = shift_x2(ref, 2.0 * g.h2)
    diff = Field2D(ext, two_cell.values - ref.values)
    x1 = ext.x1_centers()
    threshold = (lp_norm(diff, 1) + lp_norm(diff, 2)
                 + float(np.sum(np.abs(diff.values) * x1[None, :])
                         * ext.cell_area))
    trace = info["energy_trace"]
    monotone = all(trace[i + 1] >= trace[i] - 1e-10 * abs(trace[i])
                   for i in range(len(trace) - 1))
    return {
        "shift_cells": cells,
        "iterations": info["iterations"],
        "stalled": info["stalled"],
        "energy_trace": trace,
        "energy_trace_monotone": monotone,
        "final_distance": dist,
        "best_shift": c,
        "two_cell_threshold": threshold,
        "collapsed_to_translate": bool(dist <= threshold),
        "equimeasurable": rearrangement_equimeasurable(zeta, ref),
    }
