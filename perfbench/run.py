"""Benchmark of the rulebounds pipeline: one workload per invocation.

    python3 perfbench/run.py --workload study --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. Workloads are closed loops with one client:

- study:  ``simulation.run_replication`` on consecutive indices, in-process;
- strata: ``reduction_bounds`` + ``conditioning_bounds`` on one 1,000-stratum
          table, a new seeded rule per request, in-process;
- csv:    ``rulebounds bounds`` on configs/example.json with a generated
          1,000,000-row CSV, one fresh process per operation;
- oracle: ``rulebounds compare`` on a generated 6-level-covariate config
          (1,572,864 oracle classes), one fresh process per operation.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, times
calibrated for the machine's drifting speed (calibrate.py); with
``--trace 1`` the per-layer ones (see tracing.py). Every output is checked
(checks.py) after timing; the exit code is 1 if any check fails. Inputs
are generated from ``--seed`` into a temporary directory under the
checkout's ``.perfbench_tmp``, which is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

import calibrate
import gen
from tracing import empty_summary, merge_summary, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = str(HERE / "worker.py")

# fresh interpreters timed for setup_s; strata's cold operation takes seconds
SETUP_RUNS = {"study": 5, "strata": 3, "csv": 5, "oracle": 5}
CSV_ROWS = 1_000_000
ORACLE_ROWS = 20_000
STUDY_SCIPY_SAMPLE = 2      # replications re-solved with HiGHS per run
STRATA_SCIPY_SAMPLE = 2     # strata re-solved with HiGHS per request


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Child(NamedTuple):
    code: int
    wall_s: float
    ready_s: Optional[float]    # spawn to the "ready" line, when one was awaited
    maxrss_mb: float


class Run:
    """One invocation: arguments, temp dir, child environment."""

    def __init__(self, args, tmp: str):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.n_children = 0

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def spawn(self, argv, ready=False) -> Child:
        """Run ``python argv`` to completion; its own rusage comes from wait4."""
        self.n_children += 1
        err_path = self.path(f"stderr-{self.n_children}.txt")
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable] + argv,
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE if ready else subprocess.DEVNULL,
                stderr=err,
            )
            ready_s = None
            if ready:
                line = proc.stdout.readline()
                ready_s = time.perf_counter() - start
                proc.stdout.read()
                proc.stdout.close()
                if line.strip() != b"ready":
                    ready_s = None
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall_s, ready_s, usage.ru_maxrss / 1024.0)

    def stderr_tail(self) -> str:
        with open(self.path(f"stderr-{self.n_children}.txt"), encoding="utf-8", errors="replace") as fh:
            return fh.read()[-2000:]

    def spawn_ok(self, argv, ready=False) -> Child:
        child = self.spawn(argv, ready)
        if child.code != 0 or (ready and child.ready_s is None):
            raise HarnessError(f"child {argv[:2]} exited {child.code}:\n{self.stderr_tail()}")
        return child


class Outcome:
    """What a workload measured; metrics are derived from it."""

    def __init__(self):
        self.latencies = []         # untraced operation wall times, seconds
        self.references = []        # machine-speed reference times between operations
        self.attempted = 0
        self.problems = []          # (operation label, problem)
        self.failed_ops = set()
        self.peak_rss_mb = 0.0
        self.setup_s = []
        self.setup_references = []  # and between set-ups (calibrate.py)
        self.summary = None         # traced-run totals

    def fail(self, op, problems):
        for p in problems:
            self.problems.append((op, p))
            self.failed_ops.add(op)


# -- in-process workloads ------------------------------------------------------


def run_in_process(run: Run) -> Outcome:
    import checks
    from workloads import STRATA_VARIABLES, strata_request, strata_table_path, study_config

    from rulebounds.tables import JointTable

    if run.workload == "strata":
        np.save(strata_table_path(run.tmp), gen.strata_table(run.seed))
    spec = {
        "workload": run.workload,
        "seed": run.seed,
        "inputs": run.tmp,
        "seconds": run.seconds,
        "trace": run.trace,
        "out": run.path("worker.json"),
    }
    arg = json.dumps(spec)
    result = Outcome()
    calibrate.reference()  # warm-up
    if not run.trace:
        for _ in range(SETUP_RUNS[run.workload] - 1):
            child = run.spawn_ok([WORKER, "setup", arg], ready=True)
            result.setup_s.append(child.ready_s)
            result.setup_references += calibrate.sample(calibrate.SHARE * child.wall_s)
    main = run.spawn_ok([WORKER, "run", arg], ready=True)
    result.setup_s.append(main.ready_s)
    result.peak_rss_mb = main.maxrss_mb
    with open(spec["out"], encoding="utf-8") as fh:
        data = json.load(fh)
    result.latencies = data["latencies"]
    result.references = data["references"]
    result.summary = data.get("summary")
    outputs = data["outputs"]
    result.attempted = len(outputs)

    rng = np.random.default_rng(np.random.SeedSequence((run.seed, 6)))
    if run.workload == "study":
        config = study_config(run.seed)
        sample = set(rng.choice(len(outputs), size=min(STUDY_SCIPY_SAMPLE, len(outputs)), replace=False).tolist())
        for n, out in enumerate(outputs):
            result.fail(out["index"], checks.check_study(config, out, n in sample))
    else:
        table = JointTable(STRATA_VARIABLES, np.load(strata_table_path(run.tmp)))
        n_strata = int(np.prod(gen.STRATA_X_CARDS))
        for out in outputs:
            sample = rng.choice(n_strata, size=STRATA_SCIPY_SAMPLE, replace=False).tolist()
            request = strata_request(table, run.seed, out["request"])
            result.fail(out["request"], checks.check_strata(request, out, sample))
    return result


# -- one fresh CLI process per operation ----------------------------------------


def prepare_csv(run: Run):
    from rulebounds.io import load_config

    config = load_config(str(ROOT / "configs" / "example.json"))
    model = config.model
    counts = gen.counts_for_model(model, run.seed, CSV_ROWS)
    data = run.path("data.csv")
    rows = gen.write_csv(data, counts, [config.columns[v.name] for v in model.variables], run.seed)

    def argv(out):
        return [
            "bounds", "--config", config.source_path, "--data", data,
            "--strategy", "both", "--query", "cu", "--output", out,
        ]

    return model, counts, rows, "cu", argv


def prepare_oracle(run: Run):
    from rulebounds.io import load_config

    data = run.path("oracle.csv")
    config_path = run.path("oracle.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(gen.oracle_config(run.seed, data), fh)
    config = load_config(config_path)
    model = config.model
    counts = gen.counts_for_model(model, run.seed, ORACLE_ROWS)
    rows = gen.write_csv(data, counts, [config.columns[v.name] for v in model.variables], run.seed)

    def argv(out):
        return ["compare", "--config", config_path, "--output", out]

    return model, counts, rows, config.query, argv


def run_cli(run: Run) -> Outcome:
    import checks

    from rulebounds.tables import JointTable

    prepare = prepare_csv if run.workload == "csv" else prepare_oracle
    model, counts, rows, query, argv = prepare(run)
    exact = JointTable(model.variables, counts / counts.sum())
    expected = checks.expected_intervals(model, exact, query)
    check = checks.check_bounds_report if run.workload == "csv" else checks.check_compare_report

    result = Outcome()
    calibrate.reference()  # warm-up
    if not run.trace:
        for _ in range(SETUP_RUNS[run.workload]):
            child = run.spawn_ok(["-c", "import rulebounds.cli"])
            result.setup_s.append(child.wall_s)
            result.setup_references += calibrate.sample(calibrate.SHARE * child.wall_s)

    reports = []

    def loop(seconds, traced):
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            n = len(reports)
            out = run.path(f"report-{n}.json")
            if traced:
                trace_out = run.path(f"trace-{n}.json")
                spec = json.dumps({"argv": argv(out), "out": trace_out})
                child = run.spawn([WORKER, "cli", spec])
            else:
                child = run.spawn(["-m", "rulebounds.cli"] + argv(out))
            reports.append((n, child, out))
            result.peak_rss_mb = max(result.peak_rss_mb, child.maxrss_mb)
            if not traced:
                result.latencies.append(child.wall_s)
                result.references += calibrate.sample(calibrate.SHARE * child.wall_s)
            elif child.code == 0:
                with open(trace_out, encoding="utf-8") as fh:
                    data = json.load(fh)
                wall = child.wall_s - data["extra_s"]
                data["summary"]["op_wall_s"] = wall
                merge_summary(result.summary, data["summary"])

    if run.trace:
        result.summary = empty_summary()
        loop(run.seconds / 2, False)
        loop(run.seconds / 2, True)
    else:
        loop(run.seconds, False)

    result.attempted = len(reports)
    for n, child, out in reports:
        if child.code != 0:
            result.fail(n, [f"exit code {child.code}"])
            continue
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        result.fail(n, check(report, expected, rows))
    return result


# -- metrics -------------------------------------------------------------------


def end_to_end(result: Outcome):
    """Calibrated metrics (see calibrate.py) and the raw values they come from."""
    lat = result.latencies
    raw = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_p90_ms": 1000.0 * float(np.percentile(lat, 90)),
        "peak_rss_mb": result.peak_rss_mb,
        "setup_s": statistics.median(result.setup_s),
    }
    ops = calibrate.factor(result.references)
    setup = calibrate.factor(result.setup_references)
    cal = {
        "ops_per_s": raw["ops_per_s"] / ops,
        "op_p50_ms": raw["op_p50_ms"] * ops,
        "op_p90_ms": raw["op_p90_ms"] * ops,
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": raw["setup_s"] * setup,
    }
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in cal.items()}
    return metrics, raw, (ops, setup)


def per_layer(result: Outcome) -> dict:
    if not result.summary or not result.summary["ops"] or not result.latencies:
        raise HarnessError("the traced run completed no operation in one of its halves")
    untraced_ops_per_s = len(result.latencies) / sum(result.latencies)
    return per_layer_metrics(result.summary, untraced_ops_per_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("study", "strata", "csv", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "rulebounds" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'rulebounds'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rulebounds

    if Path(rulebounds.__file__).resolve().parent != SRC / "rulebounds":
        print(f"error: imported rulebounds from {rulebounds.__file__}", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        run = Run(args, tmp)
        runner = run_in_process if args.workload in ("study", "strata") else run_cli
        result = runner(run)
        if run.trace:
            metrics, raw, factors = per_layer(result), None, None
        else:
            metrics, raw, factors = end_to_end(result)
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    failed = len(result.failed_ops)
    for op, problem in result.problems[:20]:
        print(f"check failed ({op}): {problem}", file=sys.stderr)
    n = len(result.latencies)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if factors is not None:
        print(
            f"  times calibrated (calibrate.py) by {factors[0]:.4f}, set-up by {factors[1]:.4f}, "
            f"from {len(result.references)} + {len(result.setup_references)} reference timings; "
            "raw in brackets"
        )
    for name, m in metrics.items():
        note = ""
        if raw is not None and name != "peak_rss_mb":
            note = f"  [raw {raw[name]:.6g}]"
        if name in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
            note += f"  (n={n})"
        elif name == "setup_s":
            note += f"  (median of {len(result.setup_s)})"
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':40s} {failed / result.attempted:.6g}  ({failed}/{result.attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
