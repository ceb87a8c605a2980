"""Command-line interface: ``bounds``, ``simulate``, and ``compare``.

Exit codes: 0 success, 2 configuration problem, 3 data problem,
4 observed data incompatible with the assumed structure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .errors import ConfigError, DataError, EnumerationCapError, InfeasibleModelError
from .io import (
    AnalysisConfig,
    build_report,
    empirical_table,
    file_sha256,
    load_config,
    load_records,
    model_summary,
    parse_rule,
    write_json,
    write_stratum_csv,
)
from .lp_bounds import DEFAULT_CAP
from .simulation import SimConfig, run_study
from .strategies import (
    StrategyRequest,
    compare_strategies,
    conditioning_bounds,
    reduction_bounds,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulebounds",
        description=(
            "Nonparametric bounds on the value of an individualized treatment rule "
            "from discrete observational data with unmeasured confounding."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser(
        "bounds", help="bound a rule's value (or clinical utility) from a data file"
    )
    p_bounds.add_argument("--config", required=True, help="JSON analysis config")
    p_bounds.add_argument("--data", help="CSV data file (overrides config 'data')")
    p_bounds.add_argument("--output", help="report JSON path (default: config 'output' or stdout)")
    p_bounds.add_argument(
        "--strategy",
        choices=("reduction", "conditioning", "both"),
        help="override the config's strategy selection",
    )
    p_bounds.add_argument("--query", choices=("theta_f", "theta_g", "cu"), help="override the config's query")
    p_bounds.add_argument("--stratum-csv", help="also write per-stratum bounds as CSV")
    p_bounds.add_argument("--cap", type=int, help="response-type enumeration cap override")
    p_bounds.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser(
        "simulate", help="validate bounds against randomly drawn ground-truth models"
    )
    p_sim.add_argument("--replications", type=int, help="number of ground-truth draws")
    p_sim.add_argument("--seed", type=int, help="master seed")
    p_sim.add_argument("--jobs", type=int, help="worker processes (default 1)")
    p_sim.add_argument(
        "--strategies", help="comma-separated subset of: reduction,conditioning"
    )
    p_sim.add_argument("--query", choices=("theta_f", "theta_g", "cu"))
    p_sim.add_argument("--config", help="optional JSON with study-shape overrides")
    p_sim.add_argument("--output", help="report JSON path (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser(
        "compare",
        help="run both strategies and, when tractable, the direct sharp oracle",
    )
    p_cmp.add_argument("--config", required=True, help="JSON analysis config")
    p_cmp.add_argument("--data", help="CSV data file (overrides config 'data')")
    p_cmp.add_argument("--output", help="report JSON path (default: config 'output' or stdout)")
    p_cmp.add_argument(
        "--oracle-cap",
        type=int,
        default=DEFAULT_CAP,
        help="largest class count the direct oracle may enumerate",
    )
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def _load_table(args, config: AnalysisConfig):
    data_path = args.data or config.data_path
    if not data_path:
        raise ConfigError("no data file: pass --data or set 'data' in the config")
    records, info = load_records(data_path, config)
    return empirical_table(records, config), info


def _emit(report: dict, output_path, summary_lines) -> None:
    for line in summary_lines:
        print(line)
    if output_path:
        write_json(report, output_path)
        print(f"report written to {output_path}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def cmd_bounds(args) -> int:
    config = load_config(args.config)
    if args.query:
        config = replace(config, query=args.query)
    if args.strategy:
        config = replace(config, strategy=args.strategy)
    if args.cap is not None:
        if args.cap < 1:
            raise ConfigError(f"enumeration_cap must be a positive integer, got --cap {args.cap}")
        config = replace(config, cap=args.cap)
    if config.query in ("theta_g", "cu") and config.model.guideline is None:
        raise ConfigError(f"query {config.query!r} needs a 'guideline'")
    table, data_info = _load_table(args, config)
    request = StrategyRequest(config.model, table, config.query, cap=config.cap)
    results = {}
    if config.strategy in ("reduction", "both"):
        results["reduction"] = reduction_bounds(request)
    if config.strategy in ("conditioning", "both"):
        results["conditioning"] = conditioning_bounds(request)
    stratum_csv = args.stratum_csv or config.stratum_csv_path
    if stratum_csv:
        if "conditioning" not in results:
            raise ConfigError("--stratum-csv needs the conditioning strategy")
        write_stratum_csv(
            results["conditioning"].diagnostics["strata"], config.model, stratum_csv
        )
    report = build_report(
        "bounds",
        {
            "config": {"path": config.source_path, "sha256": file_sha256(config.source_path)},
            "model": model_summary(config.model),
            "query": config.query,
            "data": data_info,
            "results": {name: res.to_dict() for name, res in results.items()},
        },
    )
    lines = [f"query: {config.query}  (n = {data_info['n_records']})"]
    for name, res in results.items():
        lines.append(
            f"  {name:13s} [{res.lower: .6f}, {res.upper: .6f}]  width {res.width:.6f}"
        )
    _emit(report, args.output or config.output_path, lines)
    return 0


def _sim_config(args) -> SimConfig:
    config = SimConfig()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config {args.config!r}: {err}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"config {args.config!r} is not valid JSON: {err}") from None
        if not isinstance(raw, dict):
            raise ConfigError("simulation config root must be a JSON object")
        known = {f.name for f in fields(SimConfig)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown simulation config keys {sorted(unknown)}")
        for key in ("rule", "guideline"):
            if raw.get(key) is not None:
                raw[key] = parse_rule(raw[key], 1, key)
        if "strategies" in raw:
            raw["strategies"] = tuple(raw["strategies"])
        config = replace(config, **raw)
    overrides = {}
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.query is not None:
        overrides["query"] = args.query
    if args.strategies is not None:
        overrides["strategies"] = tuple(
            s.strip() for s in args.strategies.split(",") if s.strip()
        )
    if overrides:
        config = replace(config, **overrides)
    try:
        config.validate()
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return config


def cmd_simulate(args) -> int:
    config = _sim_config(args)
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
    table, data_info = _load_table(args, config)
    request = StrategyRequest(config.model, table, config.query, cap=config.cap)
    comparison = compare_strategies(request, oracle_cap=args.oracle_cap)
    report = build_report(
        "compare",
        {
            "config": {"path": config.source_path, "sha256": file_sha256(config.source_path)},
            "model": model_summary(config.model),
            "query": config.query,
            "data": data_info,
            "comparison": comparison.to_dict(),
        },
    )
    lines = [f"query: {config.query}  (n = {data_info['n_records']})"]
    for name, res in (
        ("reduction", comparison.reduction),
        ("conditioning", comparison.conditioning),
        ("oracle", comparison.oracle),
    ):
        if res is not None:
            lines.append(
                f"  {name:13s} [{res.lower: .6f}, {res.upper: .6f}]  width {res.width:.6f}"
            )
    if comparison.oracle_note:
        lines.append(f"  oracle note: {comparison.oracle_note}")
    lines.append(f"  conditioning inside reduction: {comparison.containment_ok}")
    if comparison.oracle_matches_conditioning is not None:
        lines.append(
            f"  oracle matches conditioning: {comparison.oracle_matches_conditioning}"
        )
    _emit(report, args.output or config.output_path, lines)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EnumerationCapError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except InfeasibleModelError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
