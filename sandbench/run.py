"""sandwalk benchmark.

Run from the root of a checkout:

    python3 sandbench/run.py --workload sand-vs-rigid --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run repeats the workload's CLI commands for
``--seconds`` seconds with tracing off and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced units of work, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is the result object; the line before it is the full report
(environment, behaviour digest, samples, call tree), which is also written to
``.bench_work/reports/``.  See sandbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

SETUP_SAMPLES = 9
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2

# Fresh interpreter -> configuration loaded; timed inside the child so that
# interpreter start-up, which sandwalk cannot change, stays out.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import sandwalk
from sandwalk import config
config.load_config(None, sys.argv[1:])
print(time.perf_counter() - t0)
"""

STEP_LAYERS = [
    "dynamics.assemble_sagittal",
    "dynamics.assemble_frontal",
    "numpy.linalg.solve",
    "terrain.sagittal_forces",
    "terrain.lateral_force",
    "rolling.lowest_point",
    "gait.leg_ik",
    "gait.cycloid_swing",
    "gait.track_joints",
]
IO_LAYERS = ["sim.Trajectory.save_csv", "sim.Trajectory.save_json", "sim.Trajectory.load_csv"]
TIMED_LAYERS = ["metrics.resample_stance", "metrics.cot"]


def median(values):
    return statistics.median(values) if values else 0.0


def git_commit(root: Path):
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup_sample(root: Path, overrides, checks) -> list[float]:
    """Seconds from a fresh interpreter to configuration loaded, or [] on failure."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *overrides], cwd=root,
                          capture_output=True, text=True, timeout=120)
    if checks.expect(proc.returncode == 0, f"set-up exited with {proc.returncode}"):
        return [float(proc.stdout.strip().splitlines()[-1])]
    return []


def peak_rss_mb() -> float:
    """Max RSS of this process and of its largest waited-for child [MiB]."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def step_us(samples) -> float:
    return median([step_s / steps * 1e6 for _, step_s, steps in samples])


def end_to_end(wl, seconds: float, root: Path, checks, report: dict) -> dict:
    from speed import Speedometer

    # One set-up sample before each iteration, so that set-up is measured
    # across the whole run rather than at its start.  Command times are
    # corrected for host speed (speed.py); the raw ones go to the report.
    # Set-up is not: it is mostly file reads and imports, which the host's
    # slow spells barely touch while the kernel slows by half.
    overrides = [*wl.overrides, f"sim.seed={wl.seed}"]
    samples, setup = [], []
    with Speedometer() as speed:
        wl.clock = speed.corrected
        t_end = perf_counter() + seconds
        while len(samples) < MIN_ITERATIONS or perf_counter() < t_end:
            setup += setup_sample(root, overrides, checks)
            samples.append(wl.iteration())
        for _ in range(SETUP_SAMPLES - len(samples)):
            setup += setup_sample(root, overrides, checks)
    rss = peak_rss_mb()
    report["samples"] = samples
    report["command_s"] = {"raw": [r for r, _ in speed.intervals],
                           "corrected": [c for _, c in speed.intervals]}
    report["kernel_s"] = {"median": median(speed.kernel), "samples": len(speed.kernel)}
    report["setup_samples"] = setup
    return {
        "wall_s": median([wall for wall, _, _ in samples]),
        "step_us": step_us(samples),
        "setup_s": median(setup),
        "peak_rss_mb": rss,
    }


def per_layer(wl, seconds: float, checks, report: dict) -> dict:
    from tracer import Tracer, layer_targets
    from workloads import SweepDefault

    # Untraced and traced units alternate, so that both see the same drift
    # in machine speed; the overhead is the median difference within a pair.
    # A sweep also times jobs=nproc in each round, for the pool efficiency.
    sweep = isinstance(wl, SweepDefault)
    untraced, traced, snaps, parallel = [], [], [], []
    tracer = Tracer(layer_targets())
    t_end = perf_counter() + seconds
    while len(traced) < MIN_TRACED_ITERATIONS or perf_counter() < t_end:
        untraced.append(wl.probe())
        with tracer:
            tracer.reset()
            traced.append(wl.probe())
        snaps.append(tracer.snapshot())
        if sweep:
            parallel.append(wl.sweep(jobs=wl.jobs))

    steps = traced[0][2]
    calls = snaps[0]["calls"]
    count_mismatches = sum(
        not checks.expect(s["calls"] == calls and s["bytes"] == snaps[0]["bytes"],
                          "traced call counts differ between iterations")
        for s in snaps[1:])

    def self_us(name):
        return median([s["self_s"].get(name, 0.0) / steps * 1e6 for s in snaps])

    def seconds_of(name):
        return median([s["total_s"].get(name, 0.0) for s in snaps])

    out = {}
    for name in STEP_LAYERS:
        out[f"{name}.calls_per_step"] = calls.get(name, 0) / steps
        out[f"{name}.self_us_per_step"] = self_us(name)
    slope, lowest = "rolling.FootShape.slope", "rolling.lowest_point"
    bisection = snaps[0]["edges"].get(f"{lowest}>{slope}", 0)
    out[f"{slope}.calls_per_lowest_point"] = (
        bisection / calls[lowest] if calls.get(lowest) else 0.0)
    out[f"{slope}.self_us_per_step"] = self_us(slope)
    out["sim.run.self_us_per_step"] = self_us("sim.run")
    for name in IO_LAYERS:
        out[f"{name}.s"] = seconds_of(name)
        out[f"{name}.bytes"] = snaps[0]["bytes"].get(name, 0)
    for name in TIMED_LAYERS:
        out[f"{name}.s"] = seconds_of(name)

    cells = snaps[0]["edges"].get("metrics.velocity_sweep>sim.run", 0)
    cells_failed = sum(n for name in ("sim.run", "metrics.cot")
                       for n in snaps[0]["errors"].get(name, {}).values()) if cells else 0
    pool_efficiency = mismatches = 0
    if sweep:
        pool_efficiency = median([
            u[0] / (wl.jobs * p) for u, p in zip(untraced, parallel)])
        mismatches = wl.compare_rows()
        report["parallel_s"] = parallel
    out["metrics.velocity_sweep.cells"] = cells
    out["metrics.velocity_sweep.cells_failed"] = cells_failed
    out["metrics.velocity_sweep.pool_efficiency"] = pool_efficiency
    out["metrics.velocity_sweep.serial_parallel_mismatches"] = mismatches

    out["trace.step_us"] = step_us(traced)
    out["trace.untraced_step_us"] = step_us(untraced)
    out["trace.overhead_us_per_step"] = median([
        (t[1] - u[1]) / t[2] * 1e6 for u, t in zip(untraced, traced)])
    out["trace.count_mismatches"] = count_mismatches

    report["samples"] = {"untraced": untraced, "traced": traced}
    report["trace"] = snaps[0]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sandwalk benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "sandwalk" / "__init__.py").is_file():
        print(f"error: no sandwalk sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import sandwalk
    from workloads import WORKLOADS, Checks

    if Path(sandwalk.__file__).resolve().parent != (src / "sandwalk").resolve():
        print(f"error: imported sandwalk from {sandwalk.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    jobs = len(os.sched_getaffinity(0))
    report = {"env": {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
        "src_sha256": source_digest(src),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": jobs,
        "loadavg_1m": os.getloadavg()[0],
    }}
    work = root / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        wl = WORKLOADS[args.workload](work, args.seed, jobs, checks)
        if args.trace:
            wl.iteration()  # the CLI run, and the reference digest for the traced units
            metrics = per_layer(wl, args.seconds, checks, report)
        else:
            metrics = end_to_end(wl, args.seconds, root, checks, report)
        wl.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(checks.failures)
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / checks.attempted
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        raise RuntimeError(f"reported metrics differ from BENCHMARK.json: {sorted(metrics)}")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    report.update(digest=wl.digest, failures=checks.failures, result=result)
    reports = root / ".bench_work" / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    line = json.dumps(report)
    (reports / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(line + "\n")
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
