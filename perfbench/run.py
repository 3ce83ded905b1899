"""Benchmark of the beurling package: one command, three workloads.

    python3 perfbench/run.py --workload kahane|transform|systems \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Each workload runs closed loop, one call at a time, in this one process.
One untimed warm-up iteration comes first; then iterations are timed until
the next one would end past ``--seconds`` (at least one is timed).  Every
iteration's outputs go through the correctness gate (gate.py), outside the
timed span.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

    wall_s        median wall time of one iteration, the time to a checked
                  solution
    setup_s       median over fresh interpreters of the time to import
                  beurling and build the workload's inputs
    peak_rss_mb   peak resident memory of this process, which ran only the
                  workload
    ok_frac       operations that passed the gate / operations attempted
    resid_digits  -log10 of the worst self-check residual the workload
                  computes

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of BENCHMARK.json (tracing.py names them), plus
``trace.overhead_s``, the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines above it print every metric by
name with its unit and sample count, the environment, and each failed
operation.  The full result, spans included, is written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One thread per process: numpy's OpenBLAS otherwise starts one per core,
# and on a machine of two shared cores those threads wait on each other and
# on the host, which makes the timings drift from run to run.  Set before
# numpy is imported; the setup probes inherit it.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# setup_s is the median of these fresh-interpreter samples and the main
# process's own import and input build.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("kahane", "transform", "systems"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import beurling from this checkout's src/, or explain why not."""
    if not os.path.isfile(os.path.join(SRC, "beurling", "__init__.py")):
        raise SystemExit(f"perfbench: no beurling sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import beurling
    import beurling.cli  # noqa: F401  (the systems workload calls it)

    if not os.path.abspath(beurling.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported beurling from {beurling.__file__}, not {SRC}")
    return beurling


def timed_setup(args, workdir):
    """Import the package and build the workload's inputs; return the
    inputs and the seconds that took."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    inp = workloads.setup(args.workload, args.seed, workdir)
    return inp, time.perf_counter() - t0


def setup_probe(args) -> int:
    """Child-process mode: print one setup_s sample."""
    _, seconds = timed_setup(args, args.setup_only)
    print(json.dumps({"setup_s": seconds}))
    return 0


def setup_samples(args, workdir) -> list:
    """setup_s samples, each from a fresh interpreter run one after another."""
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0",
               "--setup-only", os.path.join(workdir, f"probe{i}")]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                             cwd=ROOT, check=False)
        if res.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed:\n{res.stderr}")
        samples.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def environment() -> dict:
    import numpy
    import scipy

    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "cpu_model": platform.processor() or "unknown", "caches": {},
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__,
           "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            d = os.path.join(cache_dir, entry)
            with open(os.path.join(d, "level")) as f_level, \
                    open(os.path.join(d, "type")) as f_type, \
                    open(os.path.join(d, "size")) as f_size:
                level, kind, size = f_level.read().strip(), f_type.read().strip(), f_size.read().strip()
            if kind != "Instruction":
                env["caches"][f"L{level}"] = size
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        env["blas"] = "unknown"
    return env


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


class Runner:
    """Runs iterations of one workload and gathers what they produced."""

    def __init__(self, args, inp):
        # imported here, after timed_setup, so that the main process's setup
        # sample pays for numpy like the probes do
        import gate
        import workloads

        self.gate, self.workloads = gate, workloads
        self.args = args
        self.refs = gate.load_references()
        self.inp = inp
        self.verdicts = []
        self.resid = None

    def iteration(self, tracer=None) -> float:
        self.workloads.clear_outputs(self.inp)
        # start each iteration without the previous one's garbage, so that
        # no timed span pays for collecting it
        gc.collect()
        if tracer is None:
            t0 = time.perf_counter()
            outcomes = self.workloads.run(self.inp)
            wall = time.perf_counter() - t0
        else:
            with tracer.installed():
                tracer.reset()
                t0 = time.perf_counter()
                outcomes = self.workloads.run(self.inp)
                wall = time.perf_counter() - t0
        verdicts, resid = self.gate.check(self.args.workload, outcomes, self.refs,
                                          self.inp.variant)
        self.verdicts.extend(verdicts)
        if resid is not None:
            self.resid = resid if self.resid is None else max(self.resid, resid)
        return wall


def run(args, workdir) -> dict:
    setup = setup_samples(args, workdir)
    inp, seconds = timed_setup(args, workdir)
    setup.append(seconds)
    from tracing import Tracer

    runner = Runner(args, inp)
    warmup = runner.iteration()
    walls, traced_walls, snapshots = [], [], []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        walls.append(runner.iteration())
        if tracer is not None:
            tracer.iteration += 1
            traced_walls.append(runner.iteration(tracer))
            snapshots.append(tracer.snapshot())
        last = time.perf_counter() - t_round
        if time.perf_counter() - start + last > args.seconds:
            break
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(),
              "variant": runner.inp.variant, "setup_s_samples": setup,
              "warmup_s": warmup, "wall_s_samples": walls,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "resid": runner.resid,
              "verdicts": [vars(v) for v in runner.verdicts]}
    if tracer is not None:
        result["traced_wall_s_samples"] = traced_walls
        result["layer_samples"] = snapshots
        result["spans"] = tracer.spans
    return result


def end_to_end(result) -> dict:
    verdicts = result["verdicts"]
    attempted = len(verdicts)
    ok = sum(v["ok"] for v in verdicts)
    resid = result["resid"]
    return {
        "wall_s": statistics.median(result["wall_s_samples"]),
        "setup_s": statistics.median(result["setup_s_samples"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": ok / attempted,
        # no residual means no self-check completed: zero digits
        "resid_digits": -math.log10(max(resid, sys.float_info.min)) if resid is not None else 0.0,
    }


def per_layer(result) -> dict:
    """Median over traced iterations of every layer metric, plus the tracing
    overhead."""
    names = set().union(*result["layer_samples"])
    out = {name: statistics.median(s.get(name, 0) for s in result["layer_samples"])
           for name in sorted(names)}
    out["trace.overhead_s"] = (statistics.median(result["traced_wall_s_samples"])
                               - statistics.median(result["wall_s_samples"]))
    return out


def report(result, spec) -> dict:
    """Print the human-readable report; return the final JSON object."""
    from tracing import fft_bytes

    verdicts = result["verdicts"]
    failed = [v for v in verdicts if not v["ok"]]
    unexpected = [v for v in failed if not v["known_defect"]]
    env = result["environment"]
    print(f"perfbench workload={result['workload']} seed={result['seed']} "
          f"variant={result['variant']} trace={result['trace']} seconds={result['seconds']:g}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k not in ("caches", "thread_env"))
          + " caches=" + ",".join(f"{k}:{v}" for k, v in env["caches"].items())
          + " threads=" + ",".join(f"{k}:{v}" for k, v in env["thread_env"].items()))
    walls = result["wall_s_samples"]
    q1, q3 = quartiles(walls)
    print(f"iterations: warm-up {result['warmup_s']:.4f} s discarded, "
          f"{len(walls)} timed (p25 {q1:.4f} s, p75 {q3:.4f} s)")
    print(f"operations: {len(verdicts)} attempted, {len(failed)} failed "
          f"({len(failed) - len(unexpected)} known defect, {len(unexpected)} unexpected)")
    print(f"fail_frac = {len(failed) / len(verdicts)!r} ratio (n={len(verdicts)}; "
          f"failed / attempted, the JSON carries ok_frac = 1 - fail_frac)")
    seen = set()
    for v in failed:
        key = (v["op"], v["error"], v["known_defect"])
        if key not in seen:
            seen.add(key)
            kind = "known defect" if v["known_defect"] else "FAILED"
            print(f"  {kind}: {v['op']} {v['error']} {v['detail'][:160]}")

    if result["trace"]:
        values = per_layer(result)
        wanted = spec["per_layer"]
        n = len(result["layer_samples"])
        print(f"per-layer metrics, median of {n} traced iteration(s):")
        for name in sorted(values):
            print(f"  {name} = {values[name]:.6g}")
        largest = int(values.get("kernels.fft.max_points", 0))
        print(f"  kernels.fft.bytes is computed from transform lengths, not measured: "
              f"{values.get('kernels.fft.bytes', 0) / 2**20:.1f} MiB per iteration; the largest "
              f"transform ({largest} points) touches {fft_bytes(largest) / 2**20:.1f} MiB "
              f"against caches {env['caches']}")
    else:
        values = end_to_end(result)
        wanted = spec["end_to_end"]
        counts = {"wall_s": len(walls), "setup_s": len(result["setup_s_samples"]),
                  "peak_rss_mb": 1, "ok_frac": len(verdicts), "resid_digits": len(verdicts)}
        for m in wanted:
            print(f"{m['name']} = {values[m['name']]!r} {m['unit']} (n={counts.get(m['name'])})")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    return {"correct": not unexpected and bool(verdicts), "attempted": len(verdicts),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_probe(args)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "beurling", "__init__.py")):
        print(f"perfbench: no beurling sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    final = report(result, spec)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
