"""bjj benchmark: run one workload closed-loop and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload section --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

One process and one thread run the workload's jobs back to back (closed
loop, one client), pass after pass until ``--seconds`` have gone by.  A
calibration loop (``calibrate.py``) is timed before every job, and after
each of the first passes set-up is timed in a fresh interpreter
(``setup_probe.py``).  Every job's output is checked on every pass.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` (median pass time, each job's time scaled to the reference host
speed by the calibration loop timed just before it), ``setup_s`` (median
over fresh interpreters) and ``peak_rss_mb``; a summary line before it
gives ``failed_frac`` and the raw pass time.  With ``--trace 1`` traced and
untraced passes alternate and it reports the per-layer metrics, the
tracing overhead among them.  Machine info, every sample and (when traced)
every span go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("section", "dense_series", "threshold_scan")
SETUP_REPEATS = 7


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    """Import bjj from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "bjj" / "__init__.py").is_file() or not (ROOT / "presets").is_dir():
        _die(f"no bjj sources under {src} (run from the root of a bjj checkout)")
    sys.path.insert(0, str(src))
    import bjj

    if Path(bjj.__file__).resolve().parent != src / "bjj":
        _die(f"imported bjj from {bjj.__file__}, not from {src}")
    import jobs

    return jobs


# --------------------------------------------------------------------------
# running jobs


def run_job(jobs_mod, job) -> tuple[int, int, list[str]]:
    """Run one job; returns (elapsed ns, output bytes, problems)."""
    from bjj import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        if job.run is None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(job.argv())
            output: object = out.getvalue()
        else:
            code, output = 0, job.run(jobs_mod.resolve(job))
    except Exception as exc:  # a job that crashes is a failed job, not a crashed run
        elapsed = time.perf_counter_ns() - t0
        return elapsed, 0, [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter_ns() - t0
    if code != 0:
        return elapsed, 0, [f"exit {code}: {err.getvalue().strip()}"]
    size = len(output.encode()) if isinstance(output, str) else 0
    return elapsed, size, jobs_mod.check_output(job, output)


class Pass:
    """Outcome of one pass over the workload's jobs."""

    def __init__(self) -> None:
        self.job_ns: list[int] = []
        self.loop_s: list[float] = []  # calibration loop timed before each job
        self.out_bytes = 0
        self.failures: list[tuple[str, list[str]]] = []

    @property
    def wall_ns(self) -> int:
        return sum(self.job_ns)

    @property
    def scaled_s(self) -> float:
        """Pass time at the reference host speed."""
        return sum(ns / 1e9 * calibrate.REFERENCE_S / loop
                   for ns, loop in zip(self.job_ns, self.loop_s))


def run_pass(jobs_mod, job_list, tracer=None) -> Pass:
    result = Pass()
    for index, job in enumerate(job_list):
        if tracer is not None:
            tracer.job = index
        result.loop_s.append(calibrate.loop_s())
        elapsed, size, problems = run_job(jobs_mod, job)
        result.job_ns.append(elapsed)
        result.out_bytes += size
        if problems:
            result.failures.append((job.name, problems))
    return result


# --------------------------------------------------------------------------
# measurements


def probe_setup(workload: str, seed: int) -> dict:
    """Import plus first-job config resolution, timed in a fresh interpreter."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        _die("setup probe took over 60 s")
    if proc.returncode != 0:
        _die(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
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
    return "unknown (not a git checkout)"


def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2],
            "min": min(values), "max": max(values), "n": len(values)}


# --------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    jobs_mod = _load_program()
    job_list = jobs_mod.make_jobs(workload, seed)

    attempted = 0
    failures: list[tuple[str, list[str]]] = []

    def account(p: Pass) -> Pass:
        nonlocal attempted
        attempted += len(job_list)
        failures.extend(p.failures)
        return p

    setup: list[dict] = []
    plain: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(setup) < SETUP_REPEATS
           or not plain or (trace and not traced)):
        if not trace or len(plain) <= len(traced):
            plain.append(account(run_pass(jobs_mod, job_list)))
        else:
            first_span = len(tracer.spans)
            rate0, fmt0 = tracer.rate[0], tracer.fmt[0]
            tracer.install()
            try:
                p = account(run_pass(jobs_mod, job_list, tracer))
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics(tracer.spans[first_span:],
                                          tracer.rate[0] - rate0,
                                          tracer.fmt[0] - fmt0, p.wall_ns)
            layers["cli.out_bytes"] = p.out_bytes
            traced.append((p, layers))
        # one probe after each pass spreads set-up over the same stretch of
        # host load as the passes, instead of a burst at the start
        if len(setup) < SETUP_REPEATS:
            setup.append(probe_setup(workload, seed))

    failed = len(failures)
    wall = [p.scaled_s for p in plain]
    setup_s = [s["setup_s"] for s in setup]
    import_s = [s["import_s"] for s in setup]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        per_layer = {name: statistics.median(layers[name] for _, layers in traced)
                     for name in traced[0][1]}
        per_layer["setup.import_s"] = statistics.median(import_s)
        per_layer["trace.overhead_frac"] = (
            statistics.median(p.scaled_s for p, _ in traced)
            / statistics.median(wall) - 1.0)
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_info(),
        "jobs": [{"name": j.name, "argv": j.argv() if j.run is None else None,
                  "overrides": j.overrides,
                  "run_args": getattr(j.run, "keywords", None)} for j in job_list],
        "wall_s": spread(wall), "setup_s": spread(setup_s),
        "import_s": spread(import_s), "peak_rss_mb": peak_rss_mb,
        "raw_pass_s": spread([p.wall_ns / 1e9 for p in plain]),
        "loop_s": spread([x for p in plain for x in p.loop_s]),
        "job_s": [[ns / 1e9 for ns in p.job_ns] for p in plain],
        "attempted": attempted, "failed": failed,
        "failures": failures[:20], "metrics": metrics,
        "predictions": {name: moves for name, (_, moves) in PER_LAYER.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")

    m = record["machine"]
    print(f"# {workload} seed={seed} trace={int(trace)} on {m['cpu_model']}, "
          f"nproc={m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, commit {m['git_commit']}")
    for name, problems in failures[:5]:
        print(f"# FAILED {name}: {'; '.join(problems)}")
    if trace:
        for name, entry in metrics.items():
            print(f"{workload} {name} = {entry['value']:.6g} {entry['unit']}")
    else:
        w, s = record["wall_s"], record["setup_s"]
        slow = record["loop_s"]["median"] / calibrate.REFERENCE_S
        print(f"{workload} wall_s = {w['median']:.4f} s (median of {w['n']} passes, "
              f"IQR {w['p25']:.4f}..{w['p75']:.4f}; raw median "
              f"{record['raw_pass_s']['median']:.4f} s on a host running "
              f"{slow:.2f}x the reference time)")
        print(f"{workload} setup_s = {s['median']:.4f} s "
              f"(median of {s['n']} fresh interpreters)")
        print(f"{workload} peak_rss_mb = {peak_rss_mb:.1f} MiB")
        print(f"{workload} failed_frac = {failed / attempted:.4g} "
              f"({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


#: Per-layer metric -> (unit, the end-to-end metric it should move and where).
PER_LAYER = {
    "model.rate_evals": ("count", "wall_s on section and threshold_scan; repeats exactly per seed"),
    "model.rate_ns": ("ns", "wall_s on section"),
    "integrate.calls": ("count", "wall_s on section"),
    "integrate.self_s": ("s", "wall_s on section"),
    "integrate.evals_per_tu": ("evals/tu", "cut 3-4x on section by a DOP853 stepper; "
                               "barely moves on dense_series, where the grid caps h"),
    "integrate.evals_per_target": ("evals/target", "wall_s on dense_series (landing clamps)"),
    "twomode.s": ("s", "wall_s on dense_series"),
    "twomode.max_abs_dz": ("1", "accuracy next to speed on dense_series"),
    "separatrix.melnikov_s": ("s", "wall_s on threshold_scan"),
    "separatrix.curve_s": ("s", "wall_s on threshold_scan"),
    "analysis.lyapunov_s": ("s", "wall_s on threshold_scan"),
    "analysis.lyapunov_advance_calls": ("count", "wall_s on threshold_scan; halved by a "
                                        "tangent-space method"),
    "analysis.locking_s": ("s", "small everywhere"),
    "analysis.spectrum_s": ("s", "small everywhere"),
    "config.resolve_s": ("s", "setup_s on every workload"),
    "config.fmt_calls": ("count", "wall_s on dense_series, almost nothing on section"),
    "config.fmt_s": ("s", "wall_s on dense_series, almost nothing on section"),
    "cli.self_s": ("s", "wall_s and peak_rss_mb on dense_series"),
    "cli.out_bytes": ("bytes", "wall_s and peak_rss_mb on dense_series"),
    "setup.import_s": ("s", "setup_s on every workload (a lazy scipy import shows here)"),
    "trace.overhead_frac": ("frac", "traced over untraced wall time, minus one"),
    "trace.unattributed_frac": ("frac", "share of traced wall time outside every span"),
}


# --------------------------------------------------------------------------
# every workload in turn


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    results = {}
    # a run measures for `seconds`, then finishes its pass and its set-up probes
    timeout = 2 * seconds + 120
    for workload in WORKLOADS:
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(int(trace))],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            _die(f"{workload} took over {timeout:g} s")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            _die(f"{workload} failed: {proc.stderr.strip()}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    metrics = {f"{w}.{name}": entry
               for w, r in results.items() for name, entry in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
