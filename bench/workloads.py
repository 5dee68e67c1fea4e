"""The benchmark's three workloads, each driven through ``gsqg.cli.main``.

A workload makes its inputs from the seed (``setup``), then runs one
operation at a time (``op``): one user-visible CLI pipeline, checked by its
correctness gate.  An operation that raises or fails its gate counts as
failed; it never aborts the run.  Fingerprints are printed at 17
significant digits so that a later change can show its outputs unchanged to
roundoff.

Each optimisation on the roadmap should do most of its work in one workload
and little or none in another:

* ``pair``: the time a user waits from parameters to a verified pair.  The
  multiplier bisection, the tableau FFT potentials and the limiting solve
  all sit on this path.
* ``transport``: the acceptance battery's dominant cost.  It has no
  multiplier; the pair velocity, the semi-Lagrangian step and the orbital
  distance dominate.
* ``limiting``: the radial solver alone, with no FFT path.  It bypasses the
  FFT work and shows the dense ring quadrature that ``pair`` hides.
"""

import functools
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import gsqg.evolution
import gsqg.limiting

FMT = "%.17g"


@dataclass
class OpResult:
    ok: bool
    call_s: float = math.nan   # wall time of the workload's main command
    wall_s: float = 0.0        # wall time of the whole operation
    work: int = 0              # units of work completed and checked
    fingerprint: list = field(default_factory=list)
    why: str = ""              # reason for a failed gate


class Tap:
    """Keeps the return values of one gsqg function while installed.

    Used where the CLI writes a summary but not the number a gate or a
    fingerprint needs (the final mass of a trajectory, the limiting
    solver's fixed-point residual)."""

    def __init__(self, module, attr):
        self.module, self.attr = module, attr
        self.values = []

    def __enter__(self):
        fn = self.original = getattr(self.module, self.attr)

        @functools.wraps(fn)
        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.values.append(result)
            return result

        setattr(self.module, self.attr, tapped)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _fmt(x):
    return FMT % x


# ---------------------------------------------------------------------------
# pair


class PairWorkload:
    """``solve-pair`` at the acceptance regime (s=0.5, p=1.5, kappa=1, W=1,
    L=0.1) for two eps values at the CLI's default n, then ``verify``.

    The seed picks the eps pair from a vetted set: every member lies in the
    asymptotic window (no regime warning), passes ``verify``, and costs
    within a few percent of the others, so the seed moves the inputs but
    not the amount of work."""

    name = "pair"
    EPS_PAIRS = ((0.18, 0.08), (0.18, 0.1), (0.19, 0.08), (0.19, 0.1),
                 (0.2, 0.08), (0.2, 0.1))
    SIZES = {"full": [], "tiny": ["--n", "64", "--nr", "96"]}

    def __init__(self, seed, size, work_dir):
        self.seed = seed
        self.size_args = self.SIZES[size]
        self.work_dir = work_dir

    def setup(self):
        rng = np.random.default_rng(self.seed)
        pick = self.EPS_PAIRS[rng.integers(len(self.EPS_PAIRS))]
        return [pick]

    def op(self, eps_pair, invoke):
        out = _fresh(os.path.join(self.work_dir, "pair"))
        argv = ["solve-pair", "--s", "0.5", "--p", "1.5", "--kappa", "1",
                "--W", "1", "--L", "0.1",
                "--eps", ",".join(map(str, eps_pair)), "--out", out]
        rc, solve_s = invoke(argv + self.size_args)
        res = OpResult(ok=False, call_s=solve_s, wall_s=solve_s)
        if rc != 0:
            res.why = f"solve-pair exit {rc}"
            return res
        rc, verify_s = invoke(["verify", "--run", out])
        res.wall_s += verify_s
        table = _load(os.path.join(out, "verify.json"))["table"]
        failed = [f"{r['identity']}@eps={r['eps']}" for r in table
                  if not r["pass"]]
        for eps in eps_pair:
            tag = ("%g" % eps).replace(".", "p")
            rep = _load(os.path.join(out, f"pair_eps{tag}.json"))
            res.fingerprint += [(f"E_eps@{eps}", _fmt(rep["E_eps"])),
                                (f"mu@{eps}", _fmt(rep["mu_eps"])),
                                (f"d_eps@{eps}", _fmt(rep["d_eps"]))]
        if rc != 0 or failed:
            res.why = f"verify exit {rc}, failed rows {failed}"
            return res
        res.ok = True
        res.work = len(eps_pair)
        return res


# ---------------------------------------------------------------------------
# transport


class TransportWorkload:
    """``evolve --perturb ...`` from criterion 10's state: ``solve-pair`` at
    the canonical parameters (L from the profile), eps=0.1, n=128,
    ``--allow-active``.  CLI defaults otherwise (diag_every=10, wall check
    on).

    dt is fixed so that every trajectory takes exactly round(T/dt) steps: a
    CFL halving would change the count and fail the gate.  The seed picks
    the perturbation kinds, amplitudes and trial seeds."""

    name = "transport"
    KINDS = ("bump", "shear", "dimple")
    AMPLITUDE = (0.01, 0.05)
    PER_OP = 2       # perturbed trajectories per evolve call
    N_INPUTS = 8     # distinct evolve calls, cycled
    SIZES = {"full": dict(n="128", nr="256", T=0.75, dt=0.0125),
             "tiny": dict(n="48", nr="96", T=0.1, dt=0.0125)}

    def __init__(self, seed, size, work_dir):
        self.seed = seed
        self.cfg = self.SIZES[size]
        self.work_dir = work_dir
        self.state_dir = os.path.join(work_dir, "state")

    @property
    def steps(self):
        return int(round(self.cfg["T"] / self.cfg["dt"]))

    def setup(self):
        from gsqg.cli import main
        rc = main(["solve-pair", "--s", "0.5", "--p", "1.5", "--kappa", "1",
                   "--W", "1", "--eps", "0.1", "--n", self.cfg["n"],
                   "--nr", self.cfg["nr"], "--allow-active",
                   "--out", _fresh(self.state_dir)])
        if rc != 0:
            raise RuntimeError(f"transport set-up: solve-pair exit {rc}")
        rng = np.random.default_rng(self.seed)
        inputs = []
        for _ in range(self.N_INPUTS):
            inputs.append([
                "%s:%.4f:%d" % (self.KINDS[rng.integers(len(self.KINDS))],
                                rng.uniform(*self.AMPLITUDE),
                                rng.integers(10000))
                for _ in range(self.PER_OP)])
        return inputs

    def op(self, specs, invoke):
        out = _fresh(os.path.join(self.work_dir, "evolve"))
        argv = ["evolve", "--run", self.state_dir, "--out", out,
                "--T", repr(self.cfg["T"]), "--dt", repr(self.cfg["dt"])]
        for spec in specs:
            argv += ["--perturb", spec]
        with Tap(gsqg.evolution, "evolve") as tap:
            rc, wall = invoke(argv)
        res = OpResult(ok=False, call_s=wall, wall_s=wall)
        if rc != 0:
            res.why = f"evolve exit {rc}"
            return res
        rows = _load(os.path.join(out, "evolve.json"))["experiments"]
        final_mass = [rep.mass[-1] for rep in tap.values]
        for spec, row, m in zip(specs, rows, final_mass):
            res.fingerprint += [(f"final_mass@{spec}", _fmt(m)),
                                (f"sup_distance@{spec}",
                                 _fmt(row["sup_distance"]))]
        values = final_mass + [v for row in rows for v in row.values()
                               if isinstance(v, float)]
        steps = [row["steps"] for row in rows]
        if len(rows) != len(specs) or len(final_mass) != len(specs):
            res.why = f"{len(rows)} trajectories for {len(specs)} perturbations"
        elif not all(math.isfinite(v) and v >= 0 for v in values):
            res.why = "negative or non-finite output"
        elif steps != [self.steps] * len(specs):
            res.why = f"steps {steps}, expected {self.steps} each"
        else:
            res.ok = True
            res.work = sum(steps)
        return res


# ---------------------------------------------------------------------------
# limiting


def _radical_inverse(k, base):
    x, f = 0.0, 1.0 / base
    while k:
        k, d = divmod(k, base)
        x += d * f
        f /= base
    return x


def limiting_draws(seed, n):
    """(s, p, L) from the box s in [0.3, 0.7], p in [1.1, (1.1 + p_hi) / 2]
    with p_hi = min(2.5, 0.95 / (1 - s)), L in [0.2, 0.6].

    The box is the vetted part of s in [0.3, 0.7], p in [1.1, p_hi], L in
    [0.1, 0.6].  Parts of the wider box fail at nr=256: p near p_hi raises
    DomainTooSmallError, and L = 0.1 with p past the middle of its range
    gives a virial residual above 2%.

    Points are a Halton sequence shifted by a seeded random offset, so every
    prefix covers the box evenly: the cost of the first k solves, and with
    it the throughput, varies little from seed to seed."""
    shift = [float(x) for x in np.random.default_rng(seed).random(3)]
    out = []
    for k in range(1, n + 1):
        u = [(_radical_inverse(k, b) + sh) % 1.0
             for b, sh in zip((2, 3, 5), shift)]
        s = 0.3 + 0.4 * u[0]
        p_hi = min(2.5, 0.95 / (1.0 - s))
        out.append((round(s, 6), round(1.1 + 0.5 * (p_hi - 1.1) * u[1], 6),
                    round(0.2 + 0.4 * u[2], 6)))
    return out


class LimitingWorkload:
    """A seeded sweep of ``solve-limiting`` at nr=256 over a vetted (s, p, L)
    box: the radial solver on its own, where the dense ring quadrature and
    the multiplier carry the cost."""

    name = "limiting"
    N_INPUTS = 64    # more than a run gets through
    TOL = 1e-6       # the CLI's default fixed-point tolerance
    VIRIAL_MAX = 0.02
    SIZES = {"full": "256", "tiny": "64"}

    def __init__(self, seed, size, work_dir):
        self.seed = seed
        self.nr = self.SIZES[size]
        self.work_dir = work_dir

    def setup(self):
        return limiting_draws(self.seed, self.N_INPUTS)

    def op(self, spl, invoke):
        s, p, L = spl
        out = _fresh(os.path.join(self.work_dir, "limiting"))
        argv = ["solve-limiting", "--s", repr(s), "--p", repr(p),
                "--kappa", "1", "--L", repr(L), "--nr", self.nr,
                "--out", out]
        with Tap(gsqg.limiting, "solve_limiting") as tap:
            rc, wall = invoke(argv)
        res = OpResult(ok=False, call_s=wall, wall_s=wall)
        if rc != 0:
            res.why = f"solve-limiting exit {rc}"
            return res
        rep = _load(os.path.join(out, "limiting.json"))
        res.fingerprint = [(f"E0@{spl}", _fmt(rep["E0"])),
                           (f"mu0@{spl}", _fmt(rep["mu0"]))]
        fixed_point = tap.values[-1].residuals["fixed_point"]
        if not rep["converged"] or fixed_point > self.TOL:
            res.why = f"not converged (fixed-point residual {fixed_point:.3g})"
        elif not rep["virial_residual"] <= self.VIRIAL_MAX:
            res.why = f"virial residual {rep['virial_residual']:.3g}"
        elif not rep["mu0"] > 0:
            res.why = f"mu0 = {rep['mu0']:.6g}"
        else:
            res.ok = True
            res.work = 1
        return res


WORKLOADS = {w.name: w for w in (PairWorkload, TransportWorkload,
                                 LimitingWorkload)}
