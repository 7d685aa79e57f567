"""Tests of the benchmark itself.

Run with: python3 -m pytest bench/test_bench.py -q

- Job fidelity: the report a job writes is byte-identical to what
  `ellgaudin <command> --format json-lines` prints for the same config and
  seed, and the exit codes agree.
- Trace completeness: for one job, every traced call count equals the
  cProfile call count of the wrapped function, so no caller inside the
  package (e.g. `gaudin._univariate_w -> w_kernel`) goes uncounted.
- The workload generators are deterministic in the seed.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402


def _cli(command: str, config: str):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ellgaudin.cli import main; sys.exit(main())",
         command, "--config", config, "--format", "json-lines"],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    return proc.returncode, proc.stdout


def _job(command: str, config: str, tmp_path):
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "job.py"), str(result), command,
         config],
        cwd=ROOT, capture_output=True, timeout=300,
    )
    with open(result, encoding="utf-8") as handle:
        out = json.load(handle)
    return proc.returncode, out


def _fidelity_cases():
    commute = workloads.commute_large_jobs(seed=5)[0]
    depth3 = workloads.bethe_large_jobs(seed=5)[2]
    return [
        ("full-verify", None, os.path.join(ROOT, "configs", "a1_bethe_m1.ini")),
        ("commute-check", commute.config_text, None),
        ("eigen-check", depth3.config_text, None),
    ]


@pytest.mark.parametrize("command,text,path", _fidelity_cases())
def test_job_report_matches_cli_bytes(command, text, path, tmp_path):
    if path is None:
        path = str(tmp_path / "job.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    cli_code, cli_out = _cli(command, path)
    job_code, job_out = _job(command, path, tmp_path)
    assert job_out["report"].encode("utf-8") == cli_out
    assert job_code == cli_code == job_out["exit_code"]


def test_traced_counts_equal_cprofile_ncalls(tmp_path):
    import job
    import spans

    tracer = spans.Tracer()
    profile = cProfile.Profile()
    config = os.path.join(ROOT, "configs", "a1_bethe_m1.ini")
    profile.enable()
    try:
        out = job.run_job("full-verify", config, tracer)
    finally:
        profile.disable()
    assert out["exit_code"] == 0
    stats = pstats.Stats(profile).stats
    summary = tracer.summary()["spans"]
    checked = 0
    for prefix, originals in tracer.originals.items():
        profiled = 0
        for fn in originals:
            code = fn.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            profiled += stats[key][1] if key in stats else 0
        assert summary[prefix]["calls"] == profiled, prefix
        checked += profiled > 0
    # the shipped Bethe config reaches every layer except the dense apply
    assert checked >= len(tracer.originals) - 1


def test_workloads_are_deterministic_in_the_seed():
    for seed in (0, 7):
        for name in ("commute-large", "bethe-large"):
            a = [j.config_text for j in workloads.jobs_for(name, seed, ROOT)]
            b = [j.config_text for j in workloads.jobs_for(name, seed, ROOT)]
            assert a == b
    a = workloads.jobs_for("commute-large", 0, ROOT)
    b = workloads.jobs_for("commute-large", 1, ROOT)
    assert [j.config_text for j in a] != [j.config_text for j in b]
