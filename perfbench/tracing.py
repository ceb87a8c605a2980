"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps public functions of each package module and puts
the wrapper into every module namespace that holds the function, because
modules import each other's functions by name: ``strategies`` calls its
own ``solve_bounds``, ``build_lp`` and ``condition``, so wrapping only the
defining module would miss those calls. Spans nest by call order (the
benchmark is single-threaded) and are folded into additive totals as they
close, so a run keeps no per-call records.

Three things are not visible as plain spans and get dedicated hooks:

- program kind: ``build_lp`` and ``solve_bounds`` spans are tagged with
  ``space.shape.kind`` (reduced, stratum or full) and ``minimize_pair``
  inherits the kind of its enclosing ``solve_bounds``. The simulation
  dispatches strategies through a dict captured at import, so on the study
  workload strategy time is read from these kinds, not from
  ``reduction_bounds`` spans;
- simplex phases: the ``minimize_pair`` wrapper keeps each ``(A, b)``, and
  ``resolve_phase1`` later runs the public ``simplex.minimize`` with a zero
  cost on them, which does phase 1 only. That is extra work of the traced
  run, so callers run it outside every operation's timing;
- counts: classes and merged columns from ``BoundsResult.diagnostics``,
  exact pivot counts from the simplex results, and rows loaded.
"""

from __future__ import annotations

import functools
import time

import numpy as np

LAYER_FUNCS = {
    "io": ("load_config", "load_records", "build_report", "write_json"),
    "tables": ("condition", "empirical_joint", "joint_from_scm", "marginalize", "reorder", "with_variables"),
    "model": ("validate_model", "build_reduced_model", "build_stratum_model"),
    "strategies": ("reduce_table", "reduction_bounds", "conditioning_bounds", "compare_strategies"),
    "lp_bounds": ("enumerate_response_types", "class_cells", "build_lp", "solve_bounds", "direct_sharp_bounds"),
    "simplex": ("minimize_pair",),
    "simulation": ("run_replication", "random_scm", "true_policy_value"),
    "cli": ("main",),
}

# Calls that only sequence other layers' work. Their self time is what the
# trace leaves unattributed.
ORCHESTRATION = frozenset(
    {
        "simulation.run_replication",
        "strategies.reduction_bounds",
        "strategies.conditioning_bounds",
        "strategies.compare_strategies",
        "cli.main",
    }
)

KINDS = ("reduced", "stratum", "full")
KINDED = ("lp_bounds.build_lp", "lp_bounds.solve_bounds", "simplex.minimize_pair")


def empty_summary() -> dict:
    """Additive totals over traced operations; summaries of several runs add up."""
    return {
        "ops": 0,
        "op_wall_s": 0.0,
        "covered_s": 0.0,
        "spans": {},          # name or name@kind -> [calls, total_s, self_s]
        "classes": 0,
        "merged_columns": 0,
        "pivots": 0,
        "phase1_s": 0.0,
        "phase1_pivots": 0,
        "rows_loaded": 0,
    }


def merge_summary(into: dict, other: dict) -> None:
    for key, value in other.items():
        if key == "spans":
            for name, (calls, total, self_s) in value.items():
                row = into["spans"].setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += self_s
        else:
            into[key] += value


class Tracer:
    def __init__(self):
        self.summary = empty_summary()
        self._stack = []          # frames: [name, kind, start, child_s]
        self._cover_depth = 0     # open non-orchestration spans
        self._op_covered = 0.0
        self._captured = []       # (A, b) of each minimize_pair call
        self._minimize = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import importlib

        import rulebounds

        modules = [rulebounds] + [
            importlib.import_module(f"rulebounds.{layer}") for layer in LAYER_FUNCS
        ]
        simplex = importlib.import_module("rulebounds.simplex")
        self._minimize = simplex.minimize
        for layer, names in LAYER_FUNCS.items():
            home = importlib.import_module(f"rulebounds.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer._enter(name, tracer._kind(name, args))
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._observe(name, args, result)
            return result

        return wrapper

    # -- span bookkeeping -------------------------------------------------

    def _kind(self, name, args):
        if name == "lp_bounds.build_lp":
            return args[0].shape.kind
        if name == "lp_bounds.solve_bounds":
            return args[0].space.shape.kind
        if name == "simplex.minimize_pair":
            for frame in reversed(self._stack):
                if frame[1] is not None:
                    return frame[1]
        return None

    def _enter(self, name, kind):
        if name not in ORCHESTRATION:
            self._cover_depth += 1
        self._stack.append([name, kind, time.perf_counter(), 0.0])

    def _exit(self):
        name, kind, start, child_s = self._stack.pop()
        duration = time.perf_counter() - start
        if self._stack:
            self._stack[-1][3] += duration
        if name not in ORCHESTRATION:
            self._cover_depth -= 1
            if self._cover_depth == 0:
                self._op_covered += duration
        spans = self.summary["spans"]
        keys = (name, f"{name}@{kind}") if kind is not None else (name,)
        for key in keys:
            row = spans.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_s

    def _observe(self, name, args, result):
        s = self.summary
        if name == "lp_bounds.solve_bounds":
            s["classes"] += int(result.diagnostics["class_count"])
            s["merged_columns"] += int(result.diagnostics["merged_columns"])
        elif name == "simplex.minimize_pair":
            lo, hi = result
            s["pivots"] += lo.iterations + (hi.iterations if hi is not lo else 0)
            self._captured.append((args[2], args[3]))
        elif name == "io.load_records":
            s["rows_loaded"] += int(result[0].shape[0])

    # -- operations -------------------------------------------------------

    def begin_op(self) -> None:
        self._op_covered = 0.0

    def end_op(self, wall_s) -> None:
        """Close one operation; ``wall_s`` None leaves the wall time to the caller."""
        self.summary["ops"] += 1
        self.summary["covered_s"] += self._op_covered
        if wall_s is not None:
            self.summary["op_wall_s"] += wall_s

    def resolve_phase1(self) -> None:
        """Phase 1 alone on every captured program; call outside operation timing."""
        for A, b in self._captured:
            start = time.perf_counter()
            res = self._minimize(np.zeros(A.shape[1]), A, b)
            self.summary["phase1_s"] += time.perf_counter() - start
            self.summary["phase1_pivots"] += res.iterations
        self._captured.clear()


def _span(summary, name, field):
    row = summary["spans"].get(name)
    if row is None:
        return 0.0
    return float(row[{"calls": 0, "s": 1, "self_s": 2}[field]])


def per_layer_metrics(summary: dict, untraced_ops_per_s: float) -> dict:
    """Per-operation layer figures from a summary of traced operations."""
    ops = summary["ops"]
    if ops < 1:
        raise ValueError("no traced operations")
    wall = summary["op_wall_s"]

    def per_op(name, field="s"):
        return _span(summary, name, field) / ops

    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    load_s = _span(summary, "io.load_records", "s")
    put("io.load_records.s", load_s / ops, "s/op")
    put("io.rows_per_s", summary["rows_loaded"] / load_s if load_s else 0.0, "rows/s")
    put("io.write_json.s", per_op("io.write_json"), "s/op")
    put("tables.empirical_joint.s", per_op("tables.empirical_joint"), "s/op")
    put("tables.condition.calls", per_op("tables.condition", "calls"), "calls/op")
    put("tables.condition.s", per_op("tables.condition"), "s/op")
    put("tables.joint_from_scm.s", per_op("tables.joint_from_scm"), "s/op")
    put("model.validate_model.calls", per_op("model.validate_model", "calls"), "calls/op")
    put("model.validate_model.s", per_op("model.validate_model"), "s/op")
    put("model.build_stratum_model.s", per_op("model.build_stratum_model"), "s/op")
    put("strategies.reduce_table.s", per_op("strategies.reduce_table"), "s/op")
    put(
        "strategies.conditioning_bounds.self_s",
        per_op("strategies.conditioning_bounds", "self_s"),
        "s/op",
    )
    for name in KINDED:
        put(f"{name}.calls", per_op(name, "calls"), "calls/op")
        put(f"{name}.s", per_op(name), "s/op")
        for kind in KINDS:
            put(f"{name}.calls.{kind}", per_op(f"{name}@{kind}", "calls"), "calls/op")
            put(f"{name}.s.{kind}", per_op(f"{name}@{kind}"), "s/op")
    # solve_bounds' only child is minimize_pair, so its self time is the
    # class aggregation plus result assembly
    put("lp_bounds.aggregate.s", per_op("lp_bounds.solve_bounds", "self_s"), "s/op")
    put("lp_bounds.class_cells.s", per_op("lp_bounds.class_cells"), "s/op")
    put("lp_bounds.classes", summary["classes"] / ops, "count/op")
    put("lp_bounds.merged_columns", summary["merged_columns"] / ops, "count/op")
    put(
        "lp_bounds.merge_ratio",
        summary["merged_columns"] / summary["classes"] if summary["classes"] else 0.0,
        "ratio",
    )
    put("lp_bounds.direct_sharp_bounds.s", per_op("lp_bounds.direct_sharp_bounds"), "s/op")
    put("simplex.pivots", summary["pivots"] / ops, "count/op")
    put("simplex.phase1.s", summary["phase1_s"] / ops, "s/op")
    put("simplex.phase1_pivots", summary["phase1_pivots"] / ops, "count/op")
    put(
        "simplex.phase2.s",
        (_span(summary, "simplex.minimize_pair", "s") - summary["phase1_s"]) / ops,
        "s/op",
    )
    put("simulation.run_replication.s", per_op("simulation.run_replication"), "s/op")
    put("simulation.random_scm.s", per_op("simulation.random_scm"), "s/op")
    put("simulation.true_policy_value.s", per_op("simulation.true_policy_value"), "s/op")
    main_s = _span(summary, "cli.main", "s")
    put("cli.main.s", main_s / ops, "s/op")
    put("cli.process_overhead.s", (wall - main_s) / ops if main_s else 0.0, "s/op")
    traced_ops_per_s = ops / wall
    put("trace.overhead", untraced_ops_per_s / traced_ops_per_s, "ratio")
    put("trace.unattributed_share", 1.0 - summary["covered_s"] / wall, "ratio")
    return out
