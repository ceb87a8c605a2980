"""Command-line interface: ``bounds``, ``simulate``, and ``compare``.

Exit codes: 0 success, 2 configuration problem or a program over the
memory budget, 3 data problem, 4 observed data incompatible with the
assumed structure.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import fields, replace

from .errors import ConfigError, DataError, InfeasibleModelError, ProgramTooLargeError
from .io import (
    VALID_STRATEGIES,
    AnalysisConfig,
    build_report,
    file_sha256,
    load_config,
    load_table,
    make_output_dir,
    model_summary,
    parse_rule,
    read_config_json,
    write_json,
    write_stratum_csv,
)
from .lp_bounds import QUERIES
from .strategies import (
    StrategyRequest,
    compare_strategies,
    conditioning_bounds,
    reduction_bounds,
)


def _analysis_parser(sub, name: str, summary: str, func) -> argparse.ArgumentParser:
    """A subcommand that bounds a config's query on a data file: ``bounds`` or ``compare``."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--config", required=True, help="JSON analysis config")
    p.add_argument("--data", help="CSV data file (overrides config 'data')")
    p.add_argument("--output", help="report JSON path (default: config 'output' or stdout)")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulebounds",
        description=(
            "Nonparametric bounds on the value of an individualized treatment rule "
            "from discrete observational data with unmeasured confounding."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = _analysis_parser(
        sub, "bounds", "bound a rule's value (or clinical utility) from a data file", cmd_bounds
    )
    p_bounds.add_argument(
        "--strategy", choices=VALID_STRATEGIES, help="override the config's strategy selection"
    )
    p_bounds.add_argument("--query", choices=QUERIES, help="override the config's query")
    p_bounds.add_argument("--stratum-csv", help="also write per-stratum bounds as CSV")

    p_sim = sub.add_parser(
        "simulate", help="validate bounds against randomly drawn ground-truth models"
    )
    p_sim.add_argument("--replications", type=int, help="number of ground-truth draws")
    p_sim.add_argument("--seed", type=int, help="master seed")
    p_sim.add_argument("--jobs", type=int, help="worker processes (default 1)")
    p_sim.add_argument(
        "--strategies", help="comma-separated subset of: reduction,conditioning"
    )
    p_sim.add_argument("--query", choices=QUERIES)
    p_sim.add_argument("--config", help="optional JSON with study-shape overrides")
    p_sim.add_argument("--output", help="report JSON path (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    _analysis_parser(
        sub, "compare", "run both strategies and, when its program fits, the direct sharp oracle", cmd_compare
    )
    return parser


def _emit(report: dict, output_path, summary_lines) -> None:
    for line in summary_lines:
        print(line)
    if output_path:
        write_json(report, output_path)
        print(f"report written to {output_path}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _given(**flags) -> dict:
    """The flags the command line set: every one that is not None."""
    return {k: v for k, v in flags.items() if v is not None}


def _analyse(args, config: AnalysisConfig, command: str, solve) -> int:
    """Bound ``config``'s query on its data and emit the report: the path ``bounds`` and ``compare`` share.

    ``solve(request)`` returns the command's own report field as a one-key dict,
    its intervals by name (None for one not computed) and its last summary lines.
    """
    data_path = args.data or config.data_path
    if not data_path:
        raise ConfigError("no data file: pass --data or set 'data' in the config")
    output_path = args.output or config.output_path
    if output_path:
        make_output_dir(output_path)  # an unwritable report path fails before the data are read
    table, data_info = load_table(data_path, config)
    own, intervals, tail = solve(StrategyRequest(config.model, table, config.query))
    report = build_report(
        command,
        {
            "config": {"path": config.source_path, "sha256": file_sha256(config.source_path)},
            "model": model_summary(config.model),
            "query": config.query,
            "data": data_info,
            **own,
        },
    )
    lines = [f"query: {config.query}  (n = {data_info['n_records']})"]
    lines += [
        f"  {name:13s} [{res.lower: .6f}, {res.upper: .6f}]  width {res.width:.6f}"
        for name, res in intervals.items()
        if res is not None
    ]
    _emit(report, output_path, lines + tail)
    return 0


def cmd_bounds(args) -> int:
    config = replace(load_config(args.config), **_given(query=args.query, strategy=args.strategy))
    stratum_csv = args.stratum_csv or config.stratum_csv_path
    if stratum_csv:
        if config.strategy == "reduction":
            raise ConfigError("--stratum-csv needs the conditioning strategy")
        make_output_dir(stratum_csv)  # like the report path, refused before the data are read

    def solve(request):
        results = {
            name: bound(request)
            for name, bound in (("reduction", reduction_bounds), ("conditioning", conditioning_bounds))
            if config.strategy in (name, "both")
        }
        if stratum_csv:
            write_stratum_csv(results["conditioning"].diagnostics["strata"], config.model, stratum_csv)
        return {"results": {name: res.to_dict() for name, res in results.items()}}, results, []

    return _analyse(args, config, "bounds", solve)


def _sim_config(args):
    from .simulation import SimConfig  # here, not at the top: bounds and compare never load the simulator

    raw = {}
    if args.config:
        raw = read_config_json(args.config)
        if not isinstance(raw, dict):
            raise ConfigError("simulation config root must be a JSON object")
        known = {f.name for f in fields(SimConfig)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown simulation config keys {sorted(unknown)}")
        for key in ("rule", "guideline"):
            if raw.get(key) is not None:
                raw[key] = parse_rule(raw[key], 1, key)
        if isinstance(raw.get("strategies"), list):
            raw["strategies"] = tuple(raw["strategies"])
    strategies = args.strategies
    if strategies is not None:
        strategies = tuple(s.strip() for s in strategies.split(",") if s.strip())
    flags = _given(
        replications=args.replications, master_seed=args.seed, jobs=args.jobs, query=args.query, strategies=strategies
    )
    # built once, from the file's fields and the flags over them, so only the whole config is checked
    try:
        return SimConfig(**{**raw, **flags})
    except ValueError as err:
        raise ConfigError(str(err)) from None


def cmd_simulate(args) -> int:
    from .simulation import run_study

    config = _sim_config(args)
    if args.output:
        make_output_dir(args.output)  # an unwritable report path fails before the study runs, not after
    report = run_study(config)
    doc = build_report("simulate", report.to_dict())
    lines = [
        f"replications: {config.replications}  seed: {config.master_seed}  "
        f"query: {config.query}"
    ]
    for name in config.strategies:
        width = report.mean_width[name]
        lines.append(
            f"  {name:13s} validity {report.validity_rate[name]:.4f}  "
            f"mean width {width:.4f}" if width is not None
            else f"  {name:13s} validity {report.validity_rate[name]:.4f}  (no widths)"
        )
        if report.anomaly_indices[name]:
            lines.append(
                f"  {name:13s} anomalies at replications {report.anomaly_indices[name]}"
            )
    if report.mean_width_difference is not None:
        lines.append(
            f"  width difference (reduction - conditioning): "
            f"mean {report.mean_width_difference:.6f}, "
            f"min {report.min_width_difference:.6f}, "
            f"max {report.max_width_difference:.6f}"
        )
        lines.append(f"  containment violations: {report.containment_violations}")
    lines.append(f"  elapsed: {report.elapsed_seconds:.2f}s")
    _emit(doc, args.output, lines)
    return 0


def cmd_compare(args) -> int:
    config = load_config(args.config)
    if config.stratum_csv_path:
        raise ConfigError("compare writes no stratum CSV; drop 'stratum_csv' or run 'rulebounds bounds'")

    def solve(request):
        comparison = compare_strategies(request)
        tail = [f"  oracle note: {comparison.oracle_note}"] if comparison.oracle_note else []
        tail.append(f"  conditioning inside reduction: {comparison.containment_ok}")
        if comparison.oracle_matches_conditioning is not None:
            tail.append(f"  oracle matches conditioning: {comparison.oracle_matches_conditioning}")
        intervals = {name: getattr(comparison, name) for name in ("reduction", "conditioning", "oracle")}
        return {"comparison": comparison.to_dict()}, intervals, tail

    return _analyse(args, config, "compare", solve)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ProgramTooLargeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except InfeasibleModelError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 4


def run() -> None:
    """The process entry (``python -m rulebounds.cli`` and the ``rulebounds`` script): ``main``, then exit.

    Before exiting, ``gc.freeze()`` moves every live object into the
    permanent generation, which the collections of interpreter shutdown
    never examine. ``atexit`` handlers, the stream flushes and module
    teardown still run, and whatever reference counting frees is freed;
    only the cycles still alive at exit are left for the OS to reclaim with
    the rest of the process. ``main`` itself never freezes, so it can be
    called any number of times in one process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
