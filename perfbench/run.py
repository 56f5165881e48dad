"""Benchmark of specvar's spectral calculus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, warms up, then runs whole
rotations of the workload's jobs, one after another in this process (a
closed loop with one caller), until S seconds have passed. A fixed
reference kernel is timed before every job, and the timings are scaled to
the speed at which it takes REF_S seconds. Every output is checked after
timing. The last line of standard output is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1); the lines before it state machine and code facts and every
metric with its unit. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # jobs beyond the tail percentile
REF_HALF_WINDOW = 3  # a job's speed is the median reference time of 7 jobs
# The reference kernel's time at the speed the timings are reported at: a
# round figure near its median on the two-core machine the benchmark was
# sized on.
REF_S = 2.0e-3


def fix_environment():
    """Give every run, and every process it starts, the same conditions.
    Runs before numpy is first imported."""
    # One BLAS thread: in sizing, a d2-distinct-like loop spread +-6% with one
    # OpenBLAS thread against +-13% with the default two.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # Cached bytecode, as an installed package has; otherwise every CLI
    # subprocess compiles specvar again, depending on the caller's setting.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    # One CPU, so that no run is timed on a mix of two cores' speeds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def facts():
    import numpy as np
    import scipy
    import specvar

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "specvar_file": specvar.__file__,
        "src_specvar_lines": sum(
            len(f.read_text(encoding="utf-8").splitlines()) for f in sorted((SRC / "specvar").glob("*.py"))
        ),
    }


class Reference:
    """Fixed work that does not touch specvar, timed next to each job to
    tell the machine's speed at that moment: a pure-Python loop, small
    ``eigvalsh`` calls and one n = 64 ``eigh``, the three kinds of work the
    workloads do."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.small = rng.standard_normal((6, 6))
        self.large = rng.standard_normal((64, 64))

    def __call__(self):
        """Wall time of one pass, in seconds."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i % 7
        for _ in range(30):
            self.np.linalg.eigvalsh(self.small)
        self.np.linalg.eigh(self.large)
        return time.perf_counter() - t0


def run_jobs(jobs, runner, tracer=None, reference=None):
    """Run the given jobs in order; returns [(job, latency_s, output,
    reference_s)], with output None for a job that raised and reference_s
    the reference kernel's time just before the job, or None."""
    done = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        ref = reference() if reference is not None else None
        t0 = time.perf_counter()
        try:
            out = runner(job)
        except Exception:  # a failed job is counted, the run goes on
            traceback.print_exc()
            out = None
        done.append((job, time.perf_counter() - t0, out, ref))
    if tracer is not None:
        tracer.job = None
    return done


def measure(workload, seconds, runner, pauses=(), reference=None):
    """Whole rotations until `seconds` of timed wall time have passed and
    the tail percentile has enough jobs beyond it. Each of `pauses` is
    called once, untimed, between rotations, spread evenly over the timed
    time. `reference`, if given, is timed before each job, outside the
    job's latency. Returns the jobs done and the timed wall time."""
    done = []
    timed = 0.0
    pending = list(pauses)
    r = 0
    while timed < seconds or len(done) <= TAIL_BEYOND:
        while pending and timed >= seconds * (len(pauses) - len(pending)) / len(pauses):
            pending.pop(0)()
        t0 = time.perf_counter()
        done += run_jobs(workload.rotations[r % len(workload.rotations)], runner, reference=reference)
        timed += time.perf_counter() - t0
        r += 1
    for pause in pending:
        pause()
    return done, timed


def count_passed(workload, done):
    passed = 0
    for job, _, out, _ in done:
        try:
            passed += out is not None and bool(workload.check(job, out))
        except Exception:  # a check that raises is a failed job
            traceback.print_exc()
    return passed


def setup_sampler(args, walls, reference):
    """A call that sets the workload up in a fresh process and appends its
    wall time and the median reference time of 3 passes before it and 3
    after to `walls`. The machine's speed drifts over seconds, so the
    samples are spread over the run rather than taken back to back."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]

    def sample():
        refs = [reference() for _ in range(3)]
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=170, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        refs += [reference() for _ in range(3)]
        walls.append((wall, statistics.median(refs)))

    return sample


def import_ms():
    """Median time of `import specvar.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import specvar.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                             capture_output=True, text=True)
        walls.append(float(out.stdout) * 1e3)
    return statistics.median(walls)


def report(metrics, attempted, failed):
    """Print every metric with its unit, then the result as the last line."""
    for name, (value, unit) in metrics.items():
        print(f"# {name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    fix_environment()
    if not (SRC / "specvar" / "__init__.py").is_file():
        print(f"error: no specvar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import specvar

    if Path(specvar.__file__).resolve().parent != (SRC / "specvar").resolve():
        print(f"error: specvar imported from {specvar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, str(work_dir))
        run_jobs(workload.warm_jobs, workload.run)
        if args.setup_only:
            return 0
        gc.collect()
        if args.trace:
            return traced(args, workload)
        return untraced(args, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def untraced(args, workload):
    reference = Reference()
    setup = []
    pauses = [setup_sampler(args, setup, reference)] * SETUP_REPEATS
    done, wall = measure(workload, args.seconds, workload.run, pauses, reference)
    peak_rss_mb = workload.peak_rss_kb() / 1024.0
    passed = count_passed(workload, done)

    # Each time is scaled by REF_S over the machine's speed at that moment:
    # the median reference time of the jobs around it.
    refs = [d[3] for d in done]
    lat = sorted(
        d[1] * REF_S / statistics.median(refs[max(0, i - REF_HALF_WINDOW):i + REF_HALF_WINDOW + 1])
        for i, d in enumerate(done)
    )
    raw = sorted(d[1] for d in done)
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(w * REF_S / ref for w, ref in setup), "s"),
        "jobs_per_s": (passed / sum(lat), "1/s"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "job_tail_ms": (lat[n - TAIL_BEYOND - 1] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"# facts {json.dumps(facts(), sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: {n} jobs in {wall:.3f} s, {n - passed} failed")
    print(f"# job_tail_ms is the p{100.0 * (n - TAIL_BEYOND) / n:.1f} latency of {n} jobs ({TAIL_BEYOND} beyond it)")
    print(f"# machine speed: reference kernel median {statistics.median(refs) * 1e3:.4f} ms "
          f"over the jobs, REF_S {REF_S * 1e3:g} ms; unscaled wall times follow")
    print(f"# {'wall.setup_s':48s} {statistics.median(w for w, _ in setup):14.6g} s")
    print(f"# {'wall.jobs_per_s':48s} {passed / sum(raw):14.6g} 1/s")
    print(f"# {'wall.job_p50_ms':48s} {statistics.median(raw) * 1e3:14.6g} ms")
    print(f"# {'wall.job_tail_ms':48s} {raw[n - TAIL_BEYOND - 1] * 1e3:14.6g} ms")
    # Printed, not gated: it is 0 when all is well.
    print(f"# {'failed_frac':48s} {(n - passed) / n:14.6g} ratio")
    report(metrics, n, n - passed)
    return 0


def traced(args, workload):
    """Untraced pass for half of `seconds`, then the same jobs traced; the
    difference of the two wall times is the tracing overhead."""
    from spans import Tracer

    runner = workload.run_traced
    done, wall = measure(workload, args.seconds / 2, runner)
    jobs = [d[0] for d in done]
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        done_t = run_jobs(jobs, runner, tracer)
        wall_t = time.perf_counter() - t0
    finally:
        tracer.remove()
    n = len(jobs)
    passed = count_passed(workload, done) + count_passed(workload, done_t)

    metrics = tracer.layer_metrics(n)
    metrics["cli.import_ms"] = (import_ms(), "ms")
    metrics["trace.overhead_ms"] = ((wall_t - wall) / n * 1e3, "ms")
    tracer.write(OUT / f"spans-{args.workload}.json")

    print(f"# facts {json.dumps(facts(), sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: {n} jobs untraced in {wall:.3f} s, traced in {wall_t:.3f} s, "
          f"{2 * n - passed} of {2 * n} failed; spans in {OUT / f'spans-{args.workload}.json'}")
    self_ms = {k: v for k, (v, _) in metrics.items() if k.endswith(".self_ms")}
    total = sum(self_ms.values())
    for k in sorted(self_ms, key=self_ms.get, reverse=True)[:5]:
        print(f"# self time share {k:44s} {self_ms[k] / total if total else 0.0:8.1%}")
    report(metrics, 2 * n, 2 * n - passed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
