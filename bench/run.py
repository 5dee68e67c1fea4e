"""Benchmark of the gsqg lab, driven in-process through ``gsqg.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload {pair,transport,limiting} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` reports the per-layer metrics: each input is run once plain
and once with spans around every public gsqg function, and the spans give
per-module calls, inclusive and self times and work counts per traced
operation.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the machine record, the inputs and the output
fingerprints.  Run outputs go under ``.bench_work/`` in the repository.
"""

import os
import sys
import time

T_START = time.perf_counter()

# The single-threaded baseline.  These must be set before numpy is imported:
# cli.main's setdefault comes too late when the CLI is called in-process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pkgutil  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small grids, for the benchmark's self-test")
    return ap.parse_args(argv)


def machine_record():
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, idx, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, idx, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "caches": caches,
    }


class Runner:
    """Runs a workload's operations for a fixed time and keeps the results."""

    def __init__(self, workload, cli_main, caches, tracer=None):
        self.workload = workload
        self.cli_main = cli_main
        self.caches = caches
        self.tracer = tracer
        self.ops = []       # (input, OpResult, traced)

    def invoke(self, argv):
        t0 = time.perf_counter()
        try:
            rc = self.cli_main(argv)
        except SystemExit as exc:   # argument errors exit from the parser
            rc = exc.code
        return rc, time.perf_counter() - t0

    def invoke_traced(self, argv):
        with self.tracer.span("cli." + argv[0]):
            return self.invoke(argv)

    def run_op(self, inp, traced):
        from workloads import OpResult
        # each operation starts cold, as a separate CLI process would
        for cache in self.caches:
            cache.cache_clear()
        t0 = time.perf_counter()
        try:
            if traced:
                self.tracer.install()
                try:
                    res = self.workload.op(inp, self.invoke_traced)
                finally:
                    self.tracer.uninstall()
            else:
                res = self.workload.op(inp, self.invoke)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            res = OpResult(ok=False, wall_s=time.perf_counter() - t0,
                           why="raised")
        self.ops.append((inp, res, traced))
        return time.perf_counter() - t0

    def measure(self, inputs, seconds):
        """One operation per input in turn until the next is expected (from
        the median so far) to end after ``seconds``.  With a tracer, each
        input runs plain and traced, in alternating order so that neither
        side always runs first."""
        t_begin = time.perf_counter()
        walls = []
        while True:
            k = len(walls)
            inp = inputs[k % len(inputs)]
            if self.tracer is None:
                walls.append(self.run_op(inp, traced=False))
            else:
                walls.append(sum(self.run_op(inp, traced=t)
                                 for t in ((False, True), (True, False))[k % 2]))
            elapsed = time.perf_counter() - t_begin
            if elapsed + statistics.median(walls) > seconds:
                return

    def mismatched_fingerprints(self):
        """Inputs run more than once must give bitwise identical outputs."""
        seen, bad = {}, []
        for inp, res, _ in self.ops:
            if res.ok:
                key = repr(inp)
                if seen.setdefault(key, res.fingerprint) != res.fingerprint:
                    bad.append(key)
        return bad


def end_to_end(runner, setup_s):
    """Timings are medians over the run's operations: the machine's speed
    drifts over seconds, and a mean follows its slow stretches."""
    done = [res for _, res, _ in runner.ops]
    ok = [res for res in done if res.ok]
    calls = [res.call_s for res in done if not math.isnan(res.call_s)]
    # a failed operation completes no work
    rates = [res.work / res.wall_s if res.ok else 0.0 for res in done]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_frac": len(ok) / len(done),
        "call_s": statistics.median(calls) if calls else float("nan"),
        "work_per_s": statistics.median(rates),
    }


def per_layer(runner, names):
    import tracer as tr
    spans = runner.tracer.spans
    stats = tr.summarize(spans)
    traced = [res for _, res, t in runner.ops if t]
    plain = [res for _, res, t in runner.ops if not t]
    n = len(traced)
    out = {}
    for name in names:
        prefix, stat = name.rsplit(".", 1)
        st = stats.get(prefix, {})
        if name == "trace.overhead_frac":
            out[name] = (sum(r.wall_s for r in traced)
                         / sum(r.wall_s for r in plain) - 1.0)
        elif name == "limiting.solve_multiplier.evals_per_call":
            calls = stats.get("limiting.solve_multiplier", {}).get("calls", 0)
            evals = tr.child_calls(spans, "profiles.Jprime_inverse",
                                   "limiting.solve_multiplier")
            out[name] = evals / calls if calls else 0.0
        elif name == "pair.identity_battery.time_s":
            out[name] = tr.outermost_time(spans, IDENTITY_BATTERY) / n
        elif stat in ("calls", "time_s", "self_s"):
            out[name] = st.get(stat, 0) / n
        else:   # a work count: iterations, steps, bytes
            out[name] = st.get("count", 0) / n
    return out


# The verify command's identity residual calls.
IDENTITY_BATTERY = {"pair.location_residual", "pair.multiplier_pair_residual",
                    "pair.weak_form_residual", "pair.s_eps_norm",
                    "pair.steiner_asymmetry"}


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gsqg", "cli.py")):
        sys.stderr.write(f"error: no gsqg sources under {src}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path[:0] = [src, BENCH_DIR]

    import gsqg
    modules = [importlib.import_module("gsqg." + m.name)
               for m in pkgutil.iter_modules(gsqg.__path__)]
    import tracer as tr
    import workloads
    t_imported = time.perf_counter()

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(ROOT, ".bench_work")
    work_dir = os.path.join(out_dir, f"{tag}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size,
                                                   work_dir)
    # lru caches bound in the package's namespaces, cleared before every
    # operation
    caches = [obj for m in modules for obj in vars(m).values()
              if hasattr(obj, "cache_clear")]
    tracer = None
    if args.trace:
        from gsqg.profiles import PowerProfile
        tracer = tr.Tracer(modules, methods=[(PowerProfile, "Jprime_inverse")])
    runner = Runner(workload, sys.modules["gsqg.cli"].main, caches, tracer)

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = (t_imported - T_START) + statistics.median(setup_times)
        runner.measure(inputs, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values = per_layer(runner, [m["name"] for m in spec[section]])
    else:
        values = end_to_end(runner, setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}

    failed = [res for _, res, _ in runner.ops if not res.ok]
    mismatched = runner.mismatched_fingerprints()
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "machine": machine_record(),
        "setup_times_s": setup_times,
        "ops": [{"input": inp, "traced": traced, "ok": res.ok,
                 "why": res.why, "call_s": res.call_s, "wall_s": res.wall_s,
                 "fingerprint": res.fingerprint}
                for inp, res, traced in runner.ops],
        "nondeterministic_inputs": mismatched,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(out_dir, f"spans-{args.workload}.json"),
                  "w") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failed and not mismatched,
        "attempted": len(runner.ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
