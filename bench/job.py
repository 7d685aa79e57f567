"""One benchmark job: a cold `ellgaudin <command> --config <file>` run.

Usage: python3 bench/job.py <result.json> <command> <config> [--trace <spans file>]

The job does what `ellgaudin.cli.main` does for `--format json-lines`:
`load_config`, `CheckRunner`, `run`, `render_jsonl`, and it exits with the
code `main` would return.  Instead of printing the report it writes it to
<result.json>, together with time marks taken on the system-wide
monotonic clock (the parent process reads the same clock), so that set-up
(interpreter start, import, config load, problem and Bethe-system build)
can be told apart from checking.  With --trace the public calls of every
layer are wrapped (see spans.py) and the spans are written at exit.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _build(runner, cli) -> None:
    """Build what `runner.run()` builds lazily, so set-up can be timed.

    For single-stage commands this is exactly what `run()` touches up
    front.  For full-verify `run()` builds inside the stages, where a
    build error becomes a failing record; such an error is left for the
    stage to raise again, so the report stays the one the CLI prints.
    """
    command, cfg = runner.command, runner.cfg
    if command == "full-verify":
        try:
            if cfg.sites:
                _ = runner.problem
            if cfg.bethe is not None:
                _ = runner.system
        except cli.ConfigError:
            raise
        except (cli.EllipticError, cli.LieAlgebraError, cli.GaudinError,
                cli.BetheError, ValueError, ArithmeticError):
            pass  # the same errors `CheckRunner._stage` records
        return
    if command == "elliptic-check":
        _ = runner.md
    if command in ("commute-check", "bethe-solve", "eigen-check"):
        _ = runner.problem
    if command in ("bethe-solve", "eigen-check"):
        _ = runner.system


def run_job(command: str, config: str, tracer=None) -> dict:
    """Run one job in this process; returns marks, exit code and report."""
    marks = {}
    marks["import_start"] = time.monotonic()
    sys.path.insert(0, SRC)
    import ellgaudin.cli as cli

    marks["import_end"] = time.monotonic()
    module_file = os.path.abspath(cli.__file__)
    if not module_file.startswith(SRC + os.sep):
        raise RuntimeError(f"ellgaudin imported from {module_file}, not {SRC}")
    if tracer is not None:
        import spans

        spans.install(tracer)
    marks["ready"] = time.monotonic()
    out = {"marks": marks, "report": "", "exit_code": 2, "error": ""}
    try:
        cfg = cli.load_config(config)
        marks["config_loaded"] = time.monotonic()
        runner = cli.CheckRunner(cfg, command, False)
        _build(runner, cli)
        marks["setup_done"] = time.monotonic()
        report = runner.run()
        out["report"] = cli.render_jsonl(report)
        marks["check_done"] = time.monotonic()
        out["exit_code"] = 0 if report.verdict else 1
    except cli.ConfigError as exc:
        out["error"] = f"config error: {exc}"
    return out


def main(argv) -> int:
    result_path, command, config = argv[:3]
    spans_path = argv[4] if len(argv) > 4 and argv[3] == "--trace" else None
    tracer = None
    if spans_path is not None:
        import spans

        tracer = spans.Tracer()
    out = run_job(command, config, tracer)
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return out["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
