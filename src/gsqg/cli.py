"""Command-line front end: runs the solvers, verifies identities, evolves.

Commands: solve-limiting, solve-pair, verify, evolve, rearrange, report.
Configuration is a flat key=value text file plus flag overrides (flags win).
Exit codes: 0 ok, 1 usage/validation, 2 non-convergence, 3 verification
failure; an error's code is its exit_code (gsqg.errors), 1 for any other
ValueError or OSError.  Every run directory receives a manifest listing the
files written.
"""

import argparse
import contextlib
import json
import math
import os
import sys
import time

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 3

_CONFIG_KEYS = {
    "s": float, "p": float, "kappa": float, "W": float, "L": float,
    "eps": str, "n": int, "nr": int, "n_angles": int,
    "tol": float, "max_iter": int, "allow_active": int,
    "dt": float, "T": float, "cfl": float,
    "diag_every": int, "snapshot_every": int, "perturb": str,
    "shift_cells": int,
    "seed": int, "threads": int, "out": str, "run": str,
    "tol_location": float, "tol_multiplier": float, "tol_weak_form": float,
    "tol_steiner": float, "tol_fixed_point": float, "tol_bracket": float,
}

# The config keys each command reads, one flag each.  A config file may
# carry other commands' keys; _merge drops them, so the manifest records
# only what the command used.
_LIMITING_KEYS = ("out", "s", "p", "kappa", "L", "nr", "n_angles", "tol",
                  "max_iter", "threads")
_COMMAND_KEYS = {
    "solve-limiting": _LIMITING_KEYS,
    "solve-pair": _LIMITING_KEYS + ("W", "eps", "n", "allow_active"),
    "verify": ("out", "run", "threads", "tol_fixed_point", "tol_location",
               "tol_multiplier", "tol_weak_form", "tol_steiner",
               "tol_bracket"),
    "evolve": ("out", "run", "threads", "seed", "dt", "T", "cfl",
               "diag_every", "snapshot_every", "perturb"),
    "rearrange": ("out", "run", "threads", "shift_cells"),
    "report": ("out", "run"),
}
# no argparse defaults: a flag left out must not override the config file
# (_merge applies these defaults first, on the commands that read them)
_DEFAULTS = {"seed": 0, "threads": 1}
_FLAG_OPTS = {
    "out": {"help": "output directory"},
    "run": {"help": "existing run directory to read"},
    "eps": {"help": "comma-separated list"},
    "allow_active": {"action": "store_const", "const": 1},
    "perturb": {"action": "append",
                "help": "kind[:amplitude[:seed]]; repeatable"},
    "seed": {"help": "(default 0)"},
    "threads": {"help": "FFT and BLAS threads (default 1)"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _build_parser():
    """One subparser per command, with one flag per key of its
    _COMMAND_KEYS row: --max-iter sets max_iter."""
    ap = _Parser(prog="gsqg", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.add_argument("--config", help="flat key=value config file")
        for k in _COMMAND_KEYS[command]:
            p.add_argument("--" + k.replace("_", "-"), dest=k,
                           **_FLAG_OPTS.get(k, {}))
    return ap


def _read_json(*path):
    with open(os.path.join(*path)) as fh:
        return json.load(fh)


def _read_manifest(run_dir):
    """The manifest of run_dir; ValueError unless it is an object with a
    "config" object, a "files" list and maybe a "stages" object of names."""
    path = os.path.join(run_dir, "manifest.json")
    m = _read_json(path)
    stages = m.get("stages", {}) if isinstance(m, dict) else None
    names = m.get("files") if isinstance(stages, dict) else None
    if not (isinstance(names, list) and isinstance(m.get("config"), dict)
            and all(isinstance(f, str) for f in names + [*stages.values()])):
        raise ValueError(f"{path} needs a 'config' object, a 'files' list "
                         "of names and, if present, a 'stages' object")
    return m


def _read_timings(run_dir):
    """The "wall_time_s" object of run_dir's timings.json; ValueError
    unless it maps command names to numbers."""
    path = os.path.join(run_dir, "timings.json")
    t = _read_json(path)
    times = t.get("wall_time_s") if isinstance(t, dict) else None
    if not (isinstance(times, dict) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in times.values())):
        raise ValueError(f"{path} needs a 'wall_time_s' object of numbers")
    return times


def _convert(key, text, kind=None):
    """A key's value, as kind or else the key's type, from flag or config
    text; ValueError naming the key unless a float is finite, an int >= 0."""
    try:
        value = (kind or _CONFIG_KEYS[key])(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key}={value} is not a finite number")
    if isinstance(value, int) and value < 0:
        raise ValueError(f"{key}={value} must be >= 0")
    return value


def _load_config(path):
    cfg = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value, got {raw!r}")
            key, val = (t.strip() for t in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{ln}: unknown config key {key!r}")
            cfg[key] = _convert(key, val)
    return cfg


def _merge(args):
    """The command's keys: _DEFAULTS, overridden by the config file,
    overridden by explicit flags.  Other commands' keys are dropped."""
    keys = _COMMAND_KEYS[args.command]
    cfg = {k: v for k, v in _DEFAULTS.items() if k in keys}
    if args.config:
        cfg.update((k, v) for k, v in _load_config(args.config).items()
                   if k in keys)
    for k in keys:
        v = getattr(args, k)
        if v is not None:  # --perturb's list and --allow-active's 1 stay
            cfg[k] = _convert(k, v) if isinstance(v, str) else v
    return cfg


class RunDir:
    """Output directory of one command; main writes its manifest at the end.

    The directory appears at the first write, so a command that fails
    before any output leaves none.  The manifest holds only deterministic
    content.  The wall time of each command run into the directory goes to
    timings.json, which the manifest lists.  With extend, a manifest
    already in the directory is kept: its files, stages and config values
    (the earlier command's win) stay, and this run adds its own;
    timings.json keeps the earlier commands' times the same way.  The solve
    commands start afresh; the commands that read a run extend it.
    """

    def __init__(self, path, config, command, extend=False):
        self.path = path
        self.command = command
        self.config = dict(config)
        self.files = []
        self.stages = {}
        self.wall_time_s = {}
        self.t0 = time.perf_counter()
        if extend and os.path.exists(os.path.join(path, "manifest.json")):
            manifest = _read_manifest(path)
            self.config.update(manifest["config"])
            self.files = list(manifest["files"])
            self.stages = dict(manifest.get("stages", {}))
            if os.path.exists(os.path.join(path, "timings.json")):
                self.wall_time_s = _read_timings(path)

    def _file(self, name):
        """The path of name, creating the directory on the first write."""
        os.makedirs(self.path, exist_ok=True)
        return os.path.join(self.path, name)

    def write_json(self, name, obj):
        self.write_text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def write_text(self, name, text):
        """Write text to name through a temporary file and an atomic rename."""
        full = self._file(name)
        with open(full + ".tmp", "w") as fh:
            fh.write(text)
        os.replace(full + ".tmp", full)
        self.files.append(name)

    def write_field(self, name, field):
        from .fields import write_field
        write_field(field, self._file(name))
        self.files.append(name)

    def stage(self, name, report):
        """Write report to <name>.json and record it as stage name."""
        self.write_json(name + ".json", report)
        self.stages[name] = name + ".json"

    def finish(self):
        from . import __version__
        self.wall_time_s[self.command] = time.perf_counter() - self.t0
        self.write_json("timings.json", {"wall_time_s": self.wall_time_s})
        self.write_json("manifest.json", {
            "config": {k: self.config[k] for k in sorted(self.config)},
            "version": __version__,
            "stages": self.stages,
            "files": sorted(set(self.files)),
        })


def _require(cfg, keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(missing)}")


def _given(cfg, *keys):
    """The keys of cfg among keys: the library signature holds each default."""
    return {k: cfg[k] for k in keys if k in cfg}


# ---------------------------------------------------------------------------
# commands: each writes into the RunDir that main opens and finishes


def _solve_limiting(cfg, run):
    """Solve and write the limiting stage of solve-limiting and solve-pair."""
    from .limiting import solve_limiting
    sol = solve_limiting(cfg["s"], cfg["p"], kappa=cfg["kappa"],
                         **_given(cfg, "L", "nr", "n_angles", "tol",
                                  "max_iter"))
    run.stage("limiting", sol.report())
    return sol


def cmd_solve_limiting(cfg, run):
    sol = _solve_limiting(cfg, run)
    r = sol.omega0.radii()
    rows = "\n".join("%.17g,%.17g" % (ri, vi)
                     for ri, vi in zip(r, sol.omega0.values))
    run.write_text("omega0_radial.csv", "r,omega\n" + rows + "\n")
    return EXIT_OK


def cmd_solve_pair(cfg, run):
    from .pair import (ConstraintActiveError, PairProblem,
                       check_window_cells, solve_pair)
    from .profiles import PowerProfile
    # the pair arguments are checked before the limiting stage writes, so
    # a bad one costs no solve and leaves no partial run directory
    profile = PowerProfile(p=cfg["p"], s=cfg["s"], L=cfg.get("L"))
    raw = cfg.get("eps", "0.2,0.1,0.05")
    problems = [PairProblem(profile, kappa=cfg["kappa"], W=cfg["W"],
                            eps=_convert("eps", t, float))
                for t in raw.split(",") if t.strip()]
    if not problems:
        raise ValueError(f"eps={raw!r} gives no value")
    if "n" in cfg:
        check_window_cells(cfg["n"])
    lim = _solve_limiting(cfg, run)
    status = EXIT_OK
    for problem in problems:
        tag = ("%g" % problem.eps).replace(".", "p")
        try:
            sol = solve_pair(problem, lim, **_given(
                cfg, "n", "tol", "max_iter", "allow_active"))
        except ConstraintActiveError as exc:
            sys.stderr.write(f"eps={problem.eps}: {exc}\n")
            run.write_json(f"pair_eps{tag}.json", exc.solution.report())
            status = exc.exit_code
            continue
        run.stage(f"pair_eps{tag}", sol.report())
        run.write_field(f"omega_eps{tag}.field", sol.omega)
    return status


# the keys of pair_eps*.json that verify, evolve and rearrange read
_PAIR_KEYS = ("s", "p", "kappa", "W", "eps", "L", "support_radius")


def _load_pair_runs(run_dir):
    """Every solved pair (problem, field, report) recorded in a run
    directory; ValueError when there is none, when a pair file lacks a key
    of _PAIR_KEYS or when its values are out of range.  An "L" of null, as
    files written before the resolved L was recorded carry, stands for the
    canonical L."""
    from .fields import read_field
    from .pair import PairProblem
    from .profiles import PowerProfile, check_positive
    files = _read_manifest(run_dir)["files"]
    out = []
    for name in files:
        if name.startswith("pair_eps") and name.endswith(".json"):
            rep = _read_json(run_dir, name)
            tag = name[len("pair_eps"):-len(".json")]
            field_name = f"omega_eps{tag}.field"
            if field_name not in files:
                continue
            missing = [k for k in _PAIR_KEYS if k not in rep]
            if missing:
                raise ValueError(
                    f"{os.path.join(run_dir, name)} lacks key(s) "
                    f"{', '.join(map(repr, missing))}")
            problem = PairProblem(
                PowerProfile(p=rep["p"], s=rep["s"], L=rep["L"]),
                kappa=rep["kappa"], W=rep["W"], eps=rep["eps"])
            check_positive("support_radius", rep["support_radius"])
            field = read_field(os.path.join(run_dir, field_name))
            field.nonneg = True
            out.append((problem, field, rep))
    if not out:
        raise ValueError(f"no solved pair fields found in {run_dir}")
    return out


# verify's default tolerance of each identity, set by --tol-<identity>
_TOLERANCES = {"fixed_point": 1e-6, "location": 0.05, "multiplier": 0.05,
               "weak_form": 0.02, "steiner": 1e-10, "bracket": 1e-3}


def cmd_verify(cfg, run):
    from .pair import rebuild_solution
    from .profiles import check_positive
    run_dir = cfg["run"]
    tols = {k: cfg.get("tol_" + k, v) for k, v in _TOLERANCES.items()}
    for k, v in tols.items():
        check_positive("tol_" + k, v)
    pairs = _load_pair_runs(run_dir)
    lim_rep = _read_json(run_dir, "limiting.json")
    where = os.path.join(run_dir, "limiting.json")
    if "E0" not in lim_rep:
        raise ValueError(f"{where} lacks key 'E0'")
    E0 = lim_rep["E0"]
    if (isinstance(E0, bool) or not isinstance(E0, (int, float))
            or not math.isfinite(E0)):
        raise ValueError(f"{where}: 'E0' must be a finite number, got {E0!r}")
    table = []
    worst_fail = None
    for problem, field, rep in pairs:
        sol = rebuild_solution(problem, field)
        res = sol.residuals
        rows = {
            "fixed_point": res["fixed_point"],
            "location": res["location"],
            "multiplier": res["multiplier"],
            "weak_form": res["weak_form_max"],
            "steiner": res["steiner_asymmetry"],
            "bracket": sol.E_eps - E0,
        }
        for key, val in rows.items():
            ok = val <= tols[key]
            table.append({"eps": problem.eps, "identity": key,
                          "value": val, "tolerance": tols[key],
                          "pass": bool(ok)})
            if not ok and worst_fail is None:
                worst_fail = (problem.eps, key, val)
        table.append({"eps": problem.eps, "identity": "s_eps_sup",
                      "value": res["s_eps_sup"], "tolerance": None,
                      "pass": True})
    run.stage("verify", {"tolerances": tols, "table": table})
    lines = ["eps,identity,value,tolerance,pass"]
    for row in table:
        lines.append("%g,%s,%.17g,%s,%s" % (
            row["eps"], row["identity"], row["value"],
            "" if row["tolerance"] is None else "%.17g" % row["tolerance"],
            "pass" if row["pass"] else "fail"))
    run.write_text("verify.csv", "\n".join(lines) + "\n")
    if worst_fail is not None:
        sys.stderr.write(
            "verification failed at eps=%g: identity %r = %.3g exceeds "
            "tolerance\n" % worst_fail)
        return EXIT_VERIFY
    return EXIT_OK


def _parse_perturb(specs, seed):
    """(kind, amplitude, seed) of each kind[:amplitude[:seed]] spec."""
    from .evolution import PERTURBATION_KINDS
    if isinstance(specs, str):
        specs = [t for t in specs.split(";") if t]
    out = []
    for k, spec in enumerate(specs or []):
        kind, *rest = spec.split(":")
        try:
            amp = float(rest[0]) if rest else 0.0
            sd = int(rest[1]) if len(rest) > 1 else seed + k
            ok = kind in PERTURBATION_KINDS and math.isfinite(amp) and sd >= 0
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"perturbation {spec!r} needs a kind of "
                             f"{PERTURBATION_KINDS}, a finite amplitude and "
                             "a seed >= 0")
        out.append((kind, amp, sd))
    return out


def cmd_evolve(cfg, run):
    from .evolution import (TRAJECTORY_COLUMNS, EvolutionConfig, evolve,
                            stability_experiment)
    problem, field, rep = _load_pair_runs(cfg["run"])[0]
    T = cfg.get("T", 2.0 * rep["support_radius"] / problem.speed)
    config = EvolutionConfig(T=T, **_given(cfg, "dt", "cfl", "diag_every",
                                           "snapshot_every"))
    perturbs = _parse_perturb(cfg.get("perturb"), cfg["seed"])
    if not perturbs:
        trajectory = evolve(field, problem.profile.s, config, reference=field,
                            speed_hint=problem.speed)
        lines = [",".join(TRAJECTORY_COLUMNS)]
        for row in trajectory.rows():
            lines.append(",".join("%.17g" % v for v in row.values()))
        run.write_text("trajectory.csv", "\n".join(lines) + "\n")
        for step, snap in trajectory.snapshots.items():
            run.write_field(f"snapshot_{step:06d}.field", snap)
        run.stage("evolve", {
            "eps": problem.eps,
            "T": T, "dt": trajectory.dt_used, "steps": trajectory.steps,
            "mass_drift": trajectory.drift("mass"),
            "impulse_drift": trajectory.drift("impulse"),
            "energy_drift": trajectory.drift("energy"),
            "sup_orbital_distance": max(trajectory.orbital_distance),
            "mass_0": trajectory.mass[0],
            "mass_final": trajectory.mass[-1],
            "outflow": trajectory.outflow,
            "outflow_max_step": trajectory.outflow_max,
            "scheme_error": trajectory.scheme_error(),
            "flags": trajectory.flags,
        })
        return EXIT_OK
    rows = stability_experiment(field, problem.profile.s, perturbs, config,
                                speed_hint=problem.speed, seed=cfg["seed"])
    run.stage("evolve", {"eps": problem.eps, "T": T, "experiments": rows})
    lines = ["kind,amplitude,seed,delta_meas,sup_distance,final_distance"]
    for r in rows:
        lines.append("%s,%g,%d,%.17g,%.17g,%.17g" % (
            r["kind"], r["amplitude"], r["seed"], r["delta_meas"],
            r["sup_distance"], r["final_distance"]))
    run.write_text("stability.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_rearrange(cfg, run):
    from .pair import rearrangement_shift_experiment
    problem, field, _ = _load_pair_runs(cfg["run"])[0]
    result = rearrangement_shift_experiment(field, problem,
                                            **_given(cfg, "shift_cells"))
    result.pop("energy_trace")
    result["eps"] = problem.eps
    run.stage("rearrange", result)
    return EXIT_OK


def cmd_report(cfg, run):
    run_dir = cfg["run"]
    manifest = _read_manifest(run_dir)
    summary = {"config": manifest["config"],
               "version": manifest.get("version"), "stages": {}}
    for stage, name in manifest.get("stages", {}).items():
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            rep = _read_json(path)
            if not isinstance(rep, dict):
                raise ValueError(f"{path} must hold a JSON object")
            summary["stages"][stage] = rep
    run.write_json("summary.json", summary)
    rows = ["stage,key,value"]
    for stage, rep in summary["stages"].items():
        for key, val in sorted(rep.items()):
            if isinstance(val, (int, float, bool, str)):
                rows.append(f"{stage},{key},{val}")
    run.write_text("summary.csv", "\n".join(rows) + "\n")
    return EXIT_OK


# command: (function, help, required keys)
_COMMANDS = {
    "solve-limiting": (cmd_solve_limiting, "whole-plane ground state",
                       ("s", "p", "kappa", "out")),
    "solve-pair": (cmd_solve_pair, "half-plane traveling pair",
                   ("s", "p", "kappa", "W", "out")),
    "verify": (cmd_verify, "identity battery on a solved run", ("run",)),
    "evolve": (cmd_evolve, "transport evolution of a solved pair", ("run",)),
    "rearrange": (cmd_rearrange, "rearrangement-class ascent", ("run",)),
    "report": (cmd_report, "aggregate a run directory", ("run",)),
}


def main(argv=None):
    """Run one command into its run directory (--out, else the --run it
    reads); the manifest is written only when the command returns."""
    args = _build_parser().parse_args(argv)
    command, _, required = _COMMANDS[args.command]
    try:
        cfg = _merge(args)
        _require(cfg, required)
        threads = cfg.get("threads", 1)
        if threads < 1:
            raise ValueError(f"threads={threads} must be >= 1")
        # a command that reads a run extends it
        run = RunDir(cfg.get("out", cfg.get("run")), cfg, args.command,
                     extend="run" in cfg)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(threads))
    # scipy's FFTs run one worker unless told otherwise, so one thread
    # leaves scipy unloaded until (and unless) the command transforms
    workers = contextlib.nullcontext()
    if threads > 1:
        import scipy.fft  # after the variables above, which numpy reads once
        workers = scipy.fft.set_workers(threads)
    from .errors import GsqgError
    try:
        with workers:
            status = command(cfg, run)
    except (ValueError, FileNotFoundError, GsqgError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "exit_code", EXIT_USAGE)
    run.finish()
    return status


if __name__ == "__main__":
    sys.exit(main())
