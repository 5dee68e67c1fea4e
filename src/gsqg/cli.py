"""Command-line front end: runs the solvers, verifies identities, evolves.

Commands: solve-limiting, solve-pair, verify, evolve, rearrange, report.
Configuration is a flat key=value text file plus flag overrides (flags win).
Exit codes: 0 ok, 1 usage/validation, 2 non-convergence, 3 verification
failure.  Every run directory receives a manifest listing the files written.
"""

import argparse
import json
import os
import sys
import time

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOCONV = 2
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
    "seed": {"type": int, "help": "(default 0)"},
    "threads": {"type": int, "help": "FFT and BLAS threads (default 1)"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _build_parser():
    """One subparser per command, with one flag per key of its
    _COMMAND_KEYS row: --max-iter sets max_iter."""
    ap = _Parser(prog="gsqg", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.add_argument("--config", help="flat key=value config file")
        for k in _COMMAND_KEYS[command]:
            p.add_argument("--" + k.replace("_", "-"), dest=k,
                           **_FLAG_OPTS.get(k, {"type": _CONFIG_KEYS[k]}))
    return ap


def _read_json(*path):
    with open(os.path.join(*path)) as fh:
        return json.load(fh)


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
            cfg[key] = _CONFIG_KEYS[key](val)
    return cfg


def _merge(args):
    """The command's keys: _DEFAULTS, overridden by the config file,
    overridden by explicit flags.  Other commands' keys are dropped."""
    keys = _COMMAND_KEYS[args.command]
    cfg = {k: v for k, v in _DEFAULTS.items() if k in keys}
    if args.config:
        cfg.update((k, v) for k, v in _load_config(args.config).items()
                   if k in keys)
    cfg.update((k, getattr(args, k)) for k in keys
               if getattr(args, k) is not None)
    return cfg


def _eps_list(cfg):
    raw = cfg.get("eps", "0.2,0.1,0.05")
    return [float(t) for t in raw.split(",") if t.strip()]


class RunDir:
    """Output directory with a manifest written atomically at the end.

    The manifest holds only deterministic content.  The wall time of each
    command run into the directory goes to timings.json, which the manifest
    lists.  With extend, a manifest already in the directory is kept: its
    files, stages and config values (the earlier command's win) stay, and
    this run adds its own; timings.json keeps the
    earlier commands' times the same way.  The solve commands start afresh;
    the commands that read a run extend it.
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
            manifest = _read_json(path, "manifest.json")
            self.config.update(manifest["config"])
            self.files = list(manifest["files"])
            self.stages = dict(manifest.get("stages", {}))
            if os.path.exists(os.path.join(path, "timings.json")):
                self.wall_time_s = _read_json(path,
                                              "timings.json")["wall_time_s"]
        os.makedirs(path, exist_ok=True)

    def _write_atomic(self, name, text):
        """Write text to name through a temporary file and an atomic rename."""
        full = os.path.join(self.path, name)
        with open(full + ".tmp", "w") as fh:
            fh.write(text)
        os.replace(full + ".tmp", full)

    def write_json(self, name, obj):
        self.write_text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def write_text(self, name, text):
        self._write_atomic(name, text)
        self.files.append(name)

    def add_file(self, name):
        self.files.append(name)

    def finish(self):
        from . import __version__
        self.wall_time_s[self.command] = time.perf_counter() - self.t0
        self.write_json("timings.json", {"wall_time_s": self.wall_time_s})
        manifest = {
            "config": {k: self.config[k] for k in sorted(self.config)},
            "version": __version__,
            "stages": self.stages,
            "files": sorted(set(self.files)),
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        self._write_atomic("manifest.json", text)


def _require(cfg, keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(missing)}")


# ---------------------------------------------------------------------------
# commands


def _solve_limiting(cfg):
    """The limiting solve of solve-limiting and of solve-pair's first stage."""
    from .limiting import solve_limiting
    return solve_limiting(
        cfg["s"], cfg["p"], kappa=cfg["kappa"], L=cfg.get("L"),
        nr=cfg.get("nr", 256), n_angles=cfg.get("n_angles", 64),
        tol=cfg.get("tol", 1e-6), max_iter=cfg.get("max_iter", 2000))


def cmd_solve_limiting(cfg):
    from .limiting import check_profile
    _require(cfg, ["s", "p", "kappa", "out"])
    check_profile(cfg["s"], cfg["p"], cfg["kappa"], cfg.get("L"))
    run = RunDir(cfg["out"], cfg, "solve-limiting")
    sol = _solve_limiting(cfg)
    run.write_json("limiting.json", sol.report())
    r = sol.omega0.radii()
    rows = "\n".join("%.17g,%.17g" % (ri, vi)
                     for ri, vi in zip(r, sol.omega0.values))
    run.write_text("omega0_radial.csv", "r,omega\n" + rows + "\n")
    run.stages["limiting"] = "limiting.json"
    run.finish()
    return EXIT_OK


def cmd_solve_pair(cfg):
    from .fields import write_field
    from .limiting import check_profile
    from .pair import (ConstraintActiveError, PairProblem,
                       check_window_cells, solve_pair)
    _require(cfg, ["s", "p", "kappa", "W", "out"])
    # every argument is checked before the limiting stage runs, so a bad
    # one leaves no partial run directory
    check_profile(cfg["s"], cfg["p"], cfg["kappa"], cfg.get("L"))
    problems = [PairProblem(s=cfg["s"], p=cfg["p"], kappa=cfg["kappa"],
                            W=cfg["W"], eps=eps, L=cfg.get("L"))
                for eps in _eps_list(cfg)]
    check_window_cells(cfg.get("n", 192))
    run = RunDir(cfg["out"], cfg, "solve-pair")
    lim = _solve_limiting(cfg)
    run.write_json("limiting.json", lim.report())
    run.stages["limiting"] = "limiting.json"
    status = EXIT_OK
    for problem in problems:
        eps = problem.eps
        tag = ("%g" % eps).replace(".", "p")
        try:
            sol = solve_pair(
                problem, lim, n=cfg.get("n", 192), tol=cfg.get("tol", 1e-6),
                max_iter=cfg.get("max_iter", 2000),
                allow_active=bool(cfg.get("allow_active", 0)))
        except ConstraintActiveError as exc:
            sys.stderr.write(f"eps={eps}: {exc}\n")
            if exc.solution is not None:
                run.write_json(f"pair_eps{tag}.json", exc.solution.report())
            status = EXIT_NOCONV
            continue
        run.write_json(f"pair_eps{tag}.json", sol.report())
        name = f"omega_eps{tag}.field"
        write_field(sol.omega, os.path.join(run.path, name))
        run.add_file(name)
        run.stages[f"pair_eps{tag}"] = f"pair_eps{tag}.json"
    run.finish()
    return status


# the keys of pair_eps*.json that verify, evolve and rearrange read
_PAIR_KEYS = ("s", "p", "kappa", "W", "eps", "L", "support_radius")


def _load_pair_runs(run_dir):
    """Every solved pair (problem, field, report) recorded in a run
    directory; ValueError when there is none or when a pair file lacks a
    key of _PAIR_KEYS."""
    from .fields import read_field
    from .pair import PairProblem
    manifest = _read_json(run_dir, "manifest.json")
    out = []
    for name in manifest["files"]:
        if name.startswith("pair_eps") and name.endswith(".json"):
            rep = _read_json(run_dir, name)
            tag = name[len("pair_eps"):-len(".json")]
            field_name = f"omega_eps{tag}.field"
            if field_name not in manifest["files"]:
                continue
            missing = [k for k in _PAIR_KEYS if k not in rep]
            if missing:
                raise ValueError(
                    f"{os.path.join(run_dir, name)} lacks key(s) "
                    f"{', '.join(map(repr, missing))}")
            field = read_field(os.path.join(run_dir, field_name))
            field.nonneg = True
            problem = PairProblem(s=rep["s"], p=rep["p"], kappa=rep["kappa"],
                                  W=rep["W"], eps=rep["eps"], L=rep["L"])
            out.append((problem, field, rep))
    if not out:
        raise ValueError(f"no solved pair fields found in {run_dir}")
    return out


# verify's default tolerance of each identity, set by --tol-<identity>
_TOLERANCES = {"fixed_point": 1e-6, "location": 0.05, "multiplier": 0.05,
               "weak_form": 0.02, "steiner": 1e-10, "bracket": 1e-3}


def cmd_verify(cfg):
    from .pair import rebuild_solution
    _require(cfg, ["run"])
    run_dir = cfg["run"]
    pairs = _load_pair_runs(run_dir)
    lim_rep = _read_json(run_dir, "limiting.json")
    tols = {k: cfg.get("tol_" + k, v) for k, v in _TOLERANCES.items()}
    run = RunDir(cfg.get("out", run_dir), cfg, "verify", extend=True)
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
            "bracket": sol.E_eps - lim_rep["E0"],
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
    run.write_json("verify.json", {"tolerances": tols, "table": table})
    lines = ["eps,identity,value,tolerance,pass"]
    for row in table:
        lines.append("%g,%s,%.17g,%s,%s" % (
            row["eps"], row["identity"], row["value"],
            "" if row["tolerance"] is None else "%.17g" % row["tolerance"],
            "pass" if row["pass"] else "fail"))
    run.write_text("verify.csv", "\n".join(lines) + "\n")
    run.stages["verify"] = "verify.json"
    run.finish()
    if worst_fail is not None:
        sys.stderr.write(
            "verification failed at eps=%g: identity %r = %.3g exceeds "
            "tolerance\n" % worst_fail)
        return EXIT_VERIFY
    return EXIT_OK


def _parse_perturb(specs, seed):
    """(kind, amplitude, seed) of each kind[:amplitude[:seed]] spec."""
    from .evolution import PERTURBATION_KINDS
    out = []
    if not specs:
        specs = ["none"]
    if isinstance(specs, str):
        specs = [t for t in specs.split(";") if t]
    for k, spec in enumerate(specs):
        kind, *rest = spec.split(":")
        if kind not in PERTURBATION_KINDS:
            raise ValueError(f"unknown perturbation kind {kind!r} in {spec!r}")
        amp = float(rest[0]) if rest else 0.0
        sd = int(rest[1]) if len(rest) > 1 else seed + k
        out.append((kind, amp, sd))
    return out


def cmd_evolve(cfg):
    from .evolution import (TRAJECTORY_COLUMNS, EvolutionConfig, evolve,
                            stability_experiment)
    from .fields import write_field
    _require(cfg, ["run"])
    problem, field, rep = _load_pair_runs(cfg["run"])[0]
    T = cfg.get("T", 2.0 * rep["support_radius"] / problem.speed)
    config = EvolutionConfig(
        dt=cfg.get("dt"), T=T, cfl=cfg.get("cfl", 0.4),
        diag_every=cfg.get("diag_every", 10),
        snapshot_every=cfg.get("snapshot_every", 0))
    perturbs = _parse_perturb(cfg.get("perturb"), cfg["seed"])
    run = RunDir(cfg.get("out", cfg["run"]), cfg, "evolve", extend=True)
    if perturbs == [("none", 0.0, cfg["seed"])]:
        trajectory = evolve(field, problem.params, config, reference=field,
                            speed_hint=problem.speed)
        lines = [",".join(TRAJECTORY_COLUMNS)]
        for row in trajectory.rows():
            lines.append(",".join("%.17g" % v for v in row.values()))
        run.write_text("trajectory.csv", "\n".join(lines) + "\n")
        for step, snap in trajectory.snapshots.items():
            name = f"snapshot_{step:06d}.field"
            write_field(snap, os.path.join(run.path, name))
            run.add_file(name)
        summary = {
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
        }
        run.write_json("evolve.json", summary)
    else:
        rows = stability_experiment(field, problem.params, perturbs, config,
                                    speed_hint=problem.speed,
                                    seed=cfg["seed"])
        run.write_json("evolve.json", {"eps": problem.eps, "T": T,
                                       "experiments": rows})
        lines = ["kind,amplitude,seed,delta_meas,sup_distance,final_distance"]
        for r in rows:
            lines.append("%s,%g,%d,%.17g,%.17g,%.17g" % (
                r["kind"], r["amplitude"], r["seed"], r["delta_meas"],
                r["sup_distance"], r["final_distance"]))
        run.write_text("stability.csv", "\n".join(lines) + "\n")
    run.stages["evolve"] = "evolve.json"
    run.finish()
    return EXIT_OK


def cmd_rearrange(cfg):
    from .pair import check_shift_cells, rearrangement_shift_experiment
    _require(cfg, ["run"])
    cells = cfg.get("shift_cells", 5)
    check_shift_cells(cells)
    problem, field, _ = _load_pair_runs(cfg["run"])[0]
    run = RunDir(cfg.get("out", cfg["run"]), cfg, "rearrange", extend=True)
    result = rearrangement_shift_experiment(field, problem, cells=cells)
    result.pop("energy_trace")
    result["eps"] = problem.eps
    run.write_json("rearrange.json", result)
    run.stages["rearrange"] = "rearrange.json"
    run.finish()
    return EXIT_OK


def cmd_report(cfg):
    _require(cfg, ["run"])
    run_dir = cfg["run"]
    manifest = _read_json(run_dir, "manifest.json")
    summary = {"config": manifest["config"], "version": manifest["version"],
               "stages": {}}
    for stage, name in manifest.get("stages", {}).items():
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            summary["stages"][stage] = _read_json(path)
    run = RunDir(cfg.get("out", run_dir), cfg, "report", extend=True)
    run.write_json("summary.json", summary)
    rows = ["stage,key,value"]
    for stage, rep in summary["stages"].items():
        for key, val in sorted(rep.items()):
            if isinstance(val, (int, float, bool, str)):
                rows.append(f"{stage},{key},{val}")
    run.write_text("summary.csv", "\n".join(rows) + "\n")
    run.finish()
    return EXIT_OK


_COMMANDS = {
    "solve-limiting": (cmd_solve_limiting, "whole-plane ground state"),
    "solve-pair": (cmd_solve_pair, "half-plane traveling pair"),
    "verify": (cmd_verify, "identity battery on a solved run"),
    "evolve": (cmd_evolve, "transport evolution of a solved pair"),
    "rearrange": (cmd_rearrange, "rearrangement-class ascent"),
    "report": (cmd_report, "aggregate a run directory"),
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    threads = int(cfg.get("threads", 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(threads))
    import scipy.fft  # after the variables above, which numpy reads once
    from .errors import (BracketError, ConvergenceError, DomainTooSmallError,
                         GsqgError)
    try:
        with scipy.fft.set_workers(threads):
            return _COMMANDS[args.command][0](cfg)
    except (ValueError, FileNotFoundError, GsqgError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, (BracketError, ConvergenceError,
                            DomainTooSmallError)):
            return EXIT_NOCONV
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
