"""Cold-CLI benchmark for ellgaudin.

Usage:
    python3 bench/run.py --workload {shipped,commute-large,bethe-large}
                         --seed N --seconds S --trace {0,1}

A round runs every job of the workload once, one at a time, each in a
fresh interpreter (bench/job.py) started from this process.  Rounds repeat
until S seconds have passed; every run therefore attempts whole rounds of
the same jobs.  Each job's outputs are checked independently of the
program (checks.py) and a job with any miss counts as failed.

With --trace 0 the last stdout line carries the end-to-end metrics, each
the median over rounds of a per-round sum (max for peak RSS):
    setup_s     launch to problem (and Bethe system) built
    check_s     CheckRunner.run() plus render_jsonl
    wall_s      launch to exit of the job's process
    peak_rss_mb largest peak resident set of any job's process
With --trace 1 each untraced round is followed by a traced one and the
line carries the per-layer metrics of the traced rounds plus the tracing
overhead (traced minus untraced wall time).

The program under test is the `src/ellgaudin` package of the checkout
holding this file; nothing is installed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tomllib
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build")
JOB_TIMEOUT_S = 170.0
BLAS_THREADS = 1
# glibc raises its mmap threshold after large frees, so whether a large
# array lands in the heap (and stays resident after it is freed) depends
# on allocation history; with the threshold fixed at its default the
# peak RSS follows the live data.  Without it the depth-5 build peaks at
# 167 or 186 MB depending on whether the package was byte-compiled.
MALLOC_MMAP_THRESHOLD = 131072

sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("check_s", "s"), ("wall_s", "s"),
              ("peak_rss_mb", "MB"))

# Per-layer metrics: name -> (span name, field) from the traced jobs.
LAYER_SPANS = {
    "cli.stage.elliptic_s": ("cli.stage.elliptic", "total_s"),
    "cli.stage.commute_s": ("cli.stage.commute", "total_s"),
    "cli.stage.bethe_s": ("cli.stage.bethe", "total_s"),
    "cli.stage.eigen_s": ("cli.stage.eigen", "total_s"),
    "elliptic.theta11.calls": ("elliptic.theta11", "calls"),
    "elliptic.theta11.self_s": ("elliptic.theta11", "self_s"),
    "elliptic.w_kernel.calls": ("elliptic.w_kernel", "calls"),
    "elliptic.w_kernel.self_s": ("elliptic.w_kernel", "self_s"),
    "elliptic.zeta11.calls": ("elliptic.zeta11", "calls"),
    "elliptic.zeta11.self_s": ("elliptic.zeta11", "self_s"),
    "liealg.build_module.calls": ("liealg.build_module", "calls"),
    "liealg.build_module.self_s": ("liealg.build_module", "self_s"),
    "liealg.op_full.calls": ("liealg.op_full", "calls"),
    "liealg.op_full.self_s": ("liealg.op_full", "self_s"),
    "diffop.compose.calls": ("diffop.compose", "calls"),
    "diffop.evaluate.calls": ("diffop.evaluate", "calls"),
    "diffop.evaluate.self_s": ("diffop.evaluate", "self_s"),
    "diffop.apply.calls": ("diffop.apply", "calls"),
    "diffop.apply.self_s": ("diffop.apply", "self_s"),
    "gaudin.problem_build_s": ("gaudin.problem_build", "total_s"),
    "gaudin.potential_jet.calls": ("gaudin.potential_jet", "calls"),
    "gaudin.potential_jet.self_s": ("gaudin.potential_jet", "self_s"),
    "gaudin.transfer.calls": ("gaudin.transfer", "calls"),
    "gaudin.commutativity_residual_s": ("gaudin.commutativity_residual", "total_s"),
    "bethe.solve_s": ("bethe.solve", "total_s"),
    "bethe.equations.calls": ("bethe.equations", "calls"),
    "bethe.vector_jet.calls": ("bethe.vector_jet", "calls"),
    "bethe.vector_jet.self_s": ("bethe.vector_jet", "self_s"),
    "bethe.eigenvalue.calls": ("bethe.eigenvalue", "calls"),
    "bethe.verify_eigenvector_s": ("bethe.verify_eigenvector", "total_s"),
}
LAYER_COUNTERS = ("liealg.op_full.bytes", "bethe.roots", "bethe.seeds")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name == "bethe.roots_per_seed":
        return "ratio"
    return "count"


PER_LAYER = (
    ["cli.import_s", "cli.load_config_s"]
    + list(LAYER_SPANS)
    + list(LAYER_COUNTERS)
    + ["bethe.roots_per_seed", "trace.overhead_s", "trace.spans"]
)


# --------------------------------------------------------------------------
# running jobs
# --------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["MALLOC_MMAP_THRESHOLD_"] = str(MALLOC_MMAP_THRESHOLD)
    return env


def run_job(job, config_path: str, work: str, index: int, env: dict,
            spans_path: str | None) -> dict:
    """Launch one job process and wait for it; returns marks and rusage."""
    result_path = os.path.join(work, f"result-{index}.json")
    stderr_path = os.path.join(work, f"stderr-{index}.txt")
    if os.path.exists(result_path):
        os.remove(result_path)
    argv = [sys.executable, os.path.join(BENCH, "job.py"), result_path,
            job.command, config_path]
    if spans_path is not None:
        argv += ["--trace", spans_path]
    with open(stderr_path, "wb") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exited = time.monotonic()
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = {"exit_code": proc.returncode, "report": "", "error": "",
               "marks": {}}
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as handle:
            outcome.update(json.load(handle))
        outcome["exit_code"] = proc.returncode
    else:
        with open(stderr_path, encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-400:].strip().replace("\n", " | ")
        outcome["error"] = f"no result; stderr: {tail}"
    marks = outcome["marks"]
    last = max(marks.values(), default=launch)
    setup_end = marks.get("setup_done", last)
    outcome["setup_s"] = setup_end - launch
    outcome["check_s"] = marks.get("check_done", setup_end) - setup_end
    outcome["wall_s"] = exited - launch
    outcome["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    return outcome


def round_totals(outcomes: list) -> dict:
    return {
        "setup_s": sum(o["setup_s"] for o in outcomes),
        "check_s": sum(o["check_s"] for o in outcomes),
        "wall_s": sum(o["wall_s"] for o in outcomes),
        "peak_rss_mb": max(o["peak_rss_mb"] for o in outcomes),
    }


def layer_totals(outcomes: list) -> dict:
    """Per-layer values of one traced round, summed over its jobs."""
    out = {name: 0.0 for name in PER_LAYER}
    for o in outcomes:
        marks = o["marks"]
        if "import_end" in marks:
            out["cli.import_s"] += marks["import_end"] - marks["import_start"]
        if "config_loaded" in marks:
            out["cli.load_config_s"] += marks["config_loaded"] - marks["ready"]
        trace = o.get("trace", {"spans": {}, "counters": {}, "span_count": 0})
        for name, (span, field) in LAYER_SPANS.items():
            out[name] += trace["spans"].get(span, {}).get(field, 0)
        for name in LAYER_COUNTERS:
            out[name] += trace["counters"].get(name, 0)
        out["trace.spans"] += trace["span_count"]
    if out["bethe.seeds"]:
        out["bethe.roots_per_seed"] = out["bethe.roots"] / out["bethe.seeds"]
    return out


# --------------------------------------------------------------------------
# run metadata
# --------------------------------------------------------------------------


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_loc() -> dict:
    pkg = os.path.join(SRC, "ellgaudin")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as handle:
                out[name[:-3]] = sum(1 for line in handle if line.strip())
    out["total"] = sum(out.values())
    return out


def run_metadata() -> dict:
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        project = tomllib.load(handle)["project"]
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "git_sha": git_sha(),
        "source_loc": source_loc(),
        "dependencies": project.get("dependencies", []),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "malloc_mmap_threshold": MALLOC_MMAP_THRESHOLD,
    }


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def theta_values(jobs: list, seed: int) -> dict:
    """theta11 from the checkout's package at each job tau's check points."""
    sys.path.insert(0, SRC)
    from ellgaudin.elliptic import ModularData, theta11

    out = {}
    for job in jobs:
        if job.tau not in out:
            points = checks.theta_points(seed, job.tau)
            md = ModularData(job.tau)
            out[job.tau] = (points, [theta11(z, md).value for z in points])
    return out


def check_outcomes(jobs, outcomes_by_round, seed):
    """Returns (per-job misses of the last round, failed count, correct)."""
    thetas = theta_values(jobs, seed)
    failed, correct = 0, True
    last = []
    cache: dict = {}
    for outcomes in outcomes_by_round:
        last = []
        for job, outcome in zip(jobs, outcomes):
            key = (job.name, outcome["exit_code"], outcome["report"],
                   outcome["error"])
            if key not in cache:
                points, values = thetas[job.tau]
                cache[key] = sorted(set(
                    checks.job_misses(job, outcome, values, points)))
            misses = cache[key]
            program_passed = outcome["exit_code"] == 0 and all(
                json.loads(line)["pass"] for line in outcome["report"].splitlines()
            )
            if misses:
                failed += 1
                if program_passed:
                    correct = False  # the program claimed success wrongly
            last.append(misses)
    return last, failed, correct


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fmt_metrics(values: dict, units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running job is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for required in (os.path.join(SRC, "ellgaudin", "cli.py"),
                     os.path.join(ROOT, "configs"),
                     os.path.join(ROOT, "pyproject.toml")):
        if not os.path.exists(required):
            print(f"bench: {required} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    jobs = workloads.jobs_for(args.workload, args.seed, ROOT)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="ellgaudin-bench-", dir=WORK)
    spans_dir = os.path.join(WORK, "spans", args.workload)
    if args.trace:
        os.makedirs(spans_dir, exist_ok=True)
    try:
        paths = []
        for index, job in enumerate(jobs):
            path = os.path.join(work, f"job-{index}.ini")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(job.config_text)
            paths.append(path)
        env = child_env()
        # Users pay neither bytecode compilation nor a cold page cache on
        # every run, so both happen before timing starts.
        compileall.compile_dir(os.path.join(SRC, "ellgaudin"), quiet=1)
        subprocess.run([sys.executable, "-c", "import ellgaudin.cli"],
                       cwd=SRC, env=env, check=True, timeout=JOB_TIMEOUT_S)
        plain_rounds, traced_rounds = [], []
        start = time.monotonic()
        while not plain_rounds or time.monotonic() - start < args.seconds:
            plain_rounds.append([
                run_job(job, path, work, i, env, None)
                for i, (job, path) in enumerate(zip(jobs, paths))
            ])
            if args.trace:
                traced_rounds.append([
                    run_job(job, path, work, i, env, os.path.join(
                        spans_dir, job.name.split("/")[-1] + ".spans"))
                    for i, (job, path) in enumerate(zip(jobs, paths))
                ])
        last_misses, failed, correct = check_outcomes(
            jobs, plain_rounds + traced_rounds, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [round_totals(r) for r in plain_rounds]
    e2e = {name: statistics.median(t[name] for t in plain) for name, _ in END_TO_END}
    print(json.dumps({"run_metadata": run_metadata()}, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(plain_rounds)} "
          f"round(s) of {len(jobs)} job(s)")
    for job, outcome, misses in zip(jobs, plain_rounds[-1], last_misses):
        status = "ok" if not misses else "FAILED: " + "; ".join(misses)[:300]
        if misses and job.known_fault:
            status += f" (known fault: {job.known_fault})"
        print(f"  {job.name:34s} exit {outcome['exit_code']}  "
              f"setup {outcome['setup_s']:.3f} s  check {outcome['check_s']:.3f} s  "
              f"wall {outcome['wall_s']:.3f} s  rss {outcome['peak_rss_mb']:.1f} MB  "
              f"{status}")
    for name, unit in END_TO_END:
        print(f"  {name} = {e2e[name]:.4f} {unit} (median of {len(plain)} round(s))")
    if args.trace:
        traced = [layer_totals(r) for r in traced_rounds]
        layers = {name: statistics.median(t[name] for t in traced)
                  for name in PER_LAYER}
        traced_wall = statistics.median(round_totals(r)["wall_s"] for r in traced_rounds)
        layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        metrics = fmt_metrics(layers, [(n, layer_unit(n)) for n in PER_LAYER])
    else:
        metrics = fmt_metrics(e2e, END_TO_END)
    rounds = len(plain_rounds) + len(traced_rounds)
    print(json.dumps({
        "correct": correct,
        "attempted": rounds * len(jobs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
