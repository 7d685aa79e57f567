"""In-memory span tracer for the benchmark's traced mode.

`install` wraps the public calls each per-layer metric needs.  A wrapper
replaces the function in every `ellgaudin` module that holds it (methods
are replaced on their class), so internal callers such as
`gaudin._univariate_w -> w_kernel` or `w_kernel -> theta11` are counted
too.  Each call records a span (name, start, end, parent) in flat arrays;
self time is the span's duration minus the time covered by its child
spans.  Spans stay in memory until `dump` writes them when the job ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# (metric prefix, module, attribute path).  Two targets may share a prefix;
# their counts and times add up (build_irrep + build_dual_verma).
TARGETS = (
    ("cli.stage.elliptic", "ellgaudin.cli", "CheckRunner.stage_elliptic"),
    ("cli.stage.commute", "ellgaudin.cli", "CheckRunner.stage_commute"),
    ("cli.stage.bethe", "ellgaudin.cli", "CheckRunner.stage_bethe"),
    ("cli.stage.eigen", "ellgaudin.cli", "CheckRunner.stage_eigen"),
    ("elliptic.theta11", "ellgaudin.elliptic", "theta11"),
    ("elliptic.zeta11", "ellgaudin.elliptic", "zeta11"),
    ("elliptic.w_kernel", "ellgaudin.elliptic", "w_kernel"),
    ("liealg.build_module", "ellgaudin.liealg", "build_irrep"),
    ("liealg.build_module", "ellgaudin.liealg", "build_dual_verma"),
    ("liealg.op_full", "ellgaudin.liealg", "TensorSpace.op_full"),
    ("diffop.compose", "ellgaudin.diffop", "DiffOperator.compose"),
    ("diffop.evaluate", "ellgaudin.diffop", "DiffOperator.evaluate"),
    ("diffop.apply", "ellgaudin.diffop", "DiffOperator.apply"),
    ("gaudin.problem_build", "ellgaudin.gaudin", "GaudinProblem.__init__"),
    ("gaudin.potential_jet", "ellgaudin.gaudin", "GaudinProblem.potential_jet"),
    ("gaudin.transfer", "ellgaudin.gaudin", "GaudinProblem.transfer"),
    ("gaudin.commutativity_residual", "ellgaudin.gaudin", "commutativity_residual"),
    ("bethe.solve", "ellgaudin.bethe", "BetheSystem.solve"),
    ("bethe.equations", "ellgaudin.bethe", "BetheSystem.equations"),
    ("bethe.vector_jet", "ellgaudin.bethe", "BetheSystem.vector_jet"),
    ("bethe.eigenvalue", "ellgaudin.bethe", "BetheSystem.eigenvalue"),
    ("bethe.verify_eigenvector", "ellgaudin.bethe", "BetheSystem.verify_eigenvector"),
)


class Tracer:
    """Spans in flat arrays plus per-name call counts, total and self time."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []  # [span index, time covered by children]
        self.calls: list = []
        self.total: list = []
        self.self_time: list = []
        self.counters: dict = {}
        self.originals: dict = {}  # prefix -> list of wrapped functions

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end.append(end)
                duration = end - start
                self.calls[nid] += 1
                self.total[nid] += duration
                self.self_time[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def summary(self) -> dict:
        """Per-name calls, total seconds and self seconds, plus counters."""
        out = {
            name: {
                "calls": self.calls[i],
                "total_s": self.total[i],
                "self_s": self.self_time[i],
            }
            for i, name in enumerate(self.names)
        }
        return {"spans": out, "counters": dict(self.counters),
                "span_count": len(self.span_start)}

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "layout": "int32 name[count], int32 parent[count], "
            "float64 start[count], float64 end[count]",
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(handle)


def _resolve(module_name: str, attr_path: str):
    owner = sys.modules[module_name]
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _op_full_bytes(tracer, op_full):
    def on_result(args, kwargs, result):
        tracer.add("liealg.op_full.bytes", int(result.nbytes))

    return on_result


def _solve_roots(tracer, solve):
    signature = inspect.signature(solve)

    def on_result(args, kwargs, result):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        seeds = call.arguments["seeds"]
        n = call.arguments["n_seeds"] if seeds is None else len(seeds)
        tracer.add("bethe.seeds", int(n))
        tracer.add("bethe.roots", len(result))

    return on_result


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded `ellgaudin` module that holds it."""
    hooks = {"liealg.op_full": _op_full_bytes, "bethe.solve": _solve_roots}
    modules = [m for name, m in sys.modules.items()
               if name == "ellgaudin" or name.startswith("ellgaudin.")]
    for prefix, module_name, attr_path in TARGETS:
        owner, attr = _resolve(module_name, attr_path)
        original = getattr(owner, attr)
        hook = hooks[prefix](tracer, original) if prefix in hooks else None
        wrapper = tracer.wrap(prefix, original, hook)
        tracer.originals.setdefault(prefix, []).append(original)
        setattr(owner, attr, wrapper)
        if "." not in attr_path:  # module-level function: rebind importers
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
