"""Config parsing, CSV loading, report writing, and the CLI surface.

End-to-end runs go through ``main`` with real files under tmp_path and
check exit codes, report contents, and agreement with the library calls.
"""

import csv
import json
import os

import numpy as np
import pytest

from rulebounds.cli import main
from rulebounds.errors import ConfigError, DataError
from rulebounds.io import (
    build_report,
    empirical_table,
    load_config,
    load_records,
    model_summary,
    parse_rule,
    write_json,
    write_stratum_csv,
)
from rulebounds.strategies import StrategyRequest, conditioning_bounds, reduction_bounds

BASE_CONFIG = {
    "variables": [
        {"name": "z", "cardinality": 2, "role": "instrument"},
        {"name": "x", "cardinality": 3, "role": "rule_covariate"},
        {"name": "a", "cardinality": 2, "role": "treatment"},
        {"name": "y", "cardinality": 2, "role": "outcome"},
    ],
    "rule": {"0": 0, "1": 1, "2": 1},
    "guideline": {"name": "standard", "table": {"0": 0, "1": 0, "2": 0}},
    "query": "theta_f",
    "strategy": "both",
}

# Per-stratum response mixtures (count per arm, treatment by arm, outcome by
# treatment). Emitting these counts verbatim makes the empirical distribution
# an exact latent-class mixture, so every strategy's program is feasible even
# though the file is "real" finite data.
STRATUM_MIX = {
    0: [(50, (0, 1), (0, 1)), (30, (0, 0), (1, 1)), (20, (1, 1), (0, 0))],
    1: [(60, (0, 1), (1, 1)), (40, (1, 1), (0, 1))],
    2: [(70, (0, 0), (0, 1)), (30, (0, 1), (1, 0))],
}


def write_config(tmp_path, name="config.json", **overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.update(overrides)
    for key in [k for k, v in doc.items() if v is None]:
        del doc[key]
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def write_data(tmp_path, name="data.csv", header=None):
    """600 records (300 per arm) forming an exactly feasible empirical table."""
    rows = []
    for x, mixture in STRATUM_MIX.items():
        for z in (0, 1):
            for count, a_by_arm, y_by_treatment in mixture:
                a = a_by_arm[z]
                y = y_by_treatment[a]
                rows.extend([[z, x, a, y]] * count)
    path = tmp_path / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header or ["z", "x", "a", "y"])
        writer.writerows(rows)
    return str(path)


# ---------------------------------------------------------------------------
# rule and config parsing


def test_parse_rule_accepts_bare_and_named_tables():
    bare = parse_rule({"0": 1, "1": 0}, 1, "rule")
    assert bare.name == "rule"
    assert bare.table == {(0,): 1, (1,): 0}
    named = parse_rule({"name": "f2", "table": {"0,1": 2}}, 2, "rule")
    assert named.name == "f2"
    assert named.table == {(0, 1): 2}


def test_parse_rule_defects():
    with pytest.raises(ConfigError, match="non-empty object"):
        parse_rule([], 1, "rule")
    with pytest.raises(ConfigError, match="non-empty object"):
        parse_rule({"table": {}}, 1, "rule")
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_rule({"0": "high"}, 1, "rule")
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_rule({"0": True}, 1, "rule")
    with pytest.raises(ConfigError, match="not a comma-joined integer"):
        parse_rule({"a": 1}, 1, "rule")
    with pytest.raises(ConfigError, match="declares 2 rule covariate"):
        parse_rule({"0": 1}, 2, "rule")


def test_load_config_happy_path(tmp_path):
    path = write_config(tmp_path, data="records.csv", output="out.json")
    config = load_config(path)
    assert [v.name for v in config.model.variables] == ["z", "x", "a", "y"]
    assert config.model.rule.table == {(0,): 0, (1,): 1, (2,): 1}
    assert config.model.guideline.name == "standard"
    assert config.query == "theta_f"
    assert config.strategy == "both"
    assert config.cap == 10_000_000
    assert config.columns == {"z": "z", "x": "x", "a": "a", "y": "y"}
    assert config.data_path == "records.csv"
    assert config.output_path == "out.json"
    assert config.source_path == path


def test_load_config_column_mapping(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["variables"][0]["column"] = "instrument_code"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    config = load_config(str(path))
    assert config.columns["z"] == "instrument_code"


@pytest.mark.parametrize(
    "mutation,message",
    [
        ({"variables": None}, "must list model variables"),
        ({"variables": [{"name": "z", "role": "instrument"}]}, "missing"),
        (
            {"variables": BASE_CONFIG["variables"][:1] + [
                {"name": "x", "cardinality": 3, "role": "covariate"}]},
            "unknown role",
        ),
        (
            {"variables": [dict(v, cardinality=0) if v["name"] == "x" else v
                           for v in BASE_CONFIG["variables"]]},
            "positive integer",
        ),
        ({"rule": None}, "must declare a 'rule'"),
        ({"rule": {"0": 0}}, "no level assigned"),
        ({"rule": {"0": 0, "1": 1, "2": 9}}, "outside"),
        ({"query": "theta_q"}, "unknown query"),
        ({"query": "cu", "guideline": None}, "needs a 'guideline'"),
        ({"strategy": "oracle"}, "unknown strategy"),
        ({"enumeration_cap": -1}, "enumeration_cap"),
        (
            {"variables": BASE_CONFIG["variables"] + [
                {"name": "y", "cardinality": 2, "role": "outcome"}]},
            "invalid model",
        ),
    ],
)
def test_load_config_defects(tmp_path, mutation, message):
    path = write_config(tmp_path, **mutation)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_load_config_unreadable_inputs(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root must be"):
        load_config(str(listy))


# ---------------------------------------------------------------------------
# CSV records


def test_load_records_roundtrip(tmp_path):
    config = load_config(write_config(tmp_path))
    data = write_data(tmp_path)
    records, info = load_records(data, config)
    assert records.shape == (600, 4)
    assert info["n_records"] == 600
    assert len(info["sha256"]) == 64
    counts = info["value_counts"]
    assert sum(counts["x"].values()) == 600
    assert counts["x"] == {"0": 200, "1": 200, "2": 200}
    assert set(counts["y"]) == {"0", "1"}
    table = empirical_table(records, config)
    assert table.probs.shape == (2, 3, 2, 2)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_load_records_respects_column_order_and_mapping(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["variables"][3]["column"] = "result"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    config = load_config(str(cfg))
    data = tmp_path / "d.csv"
    # columns deliberately shuffled relative to the model declaration
    data.write_text("result,a,z,x\n1,0,1,2\n0,1,0,0\n")
    records, _ = load_records(str(data), config)
    np.testing.assert_array_equal(records, [[1, 2, 0, 1], [0, 0, 1, 0]])


def test_load_records_defects(tmp_path):
    config = load_config(write_config(tmp_path))
    with pytest.raises(DataError, match="cannot read"):
        load_records(str(tmp_path / "none.csv"), config)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="is empty"):
        load_records(str(empty), config)

    missing_col = tmp_path / "short.csv"
    missing_col.write_text("z,x,a\n0,1,0\n")
    with pytest.raises(DataError, match="no column 'y'"):
        load_records(str(missing_col), config)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("z,x,a,y\n0,1,0,1\n0,1\n")
    with pytest.raises(DataError, match="row 3"):
        load_records(str(ragged), config)

    text_cell = tmp_path / "text.csv"
    text_cell.write_text("z,x,a,y\n0,1,0,yes\n")
    with pytest.raises(DataError, match="row 2.*'yes'"):
        load_records(str(text_cell), config)

    # rows are named by file line, blank lines included
    text_cell.write_text("z,x,a,y\n\n0,1,1,1\n0,2,q,1\n")
    with pytest.raises(DataError, match="row 4 .*'q'"):
        load_records(str(text_cell), config)
    ragged.write_text("z,x,a,y\n0,1,1,1\n\n  \n0,2\n")
    with pytest.raises(DataError, match="row 5 .*only 2 fields"):
        load_records(str(ragged), config)


def test_out_of_range_code_is_a_data_error(tmp_path):
    config = load_config(write_config(tmp_path))
    data = tmp_path / "d.csv"
    data.write_text("z,x,a,y\n0,7,0,1\n")
    records, _ = load_records(str(data), config)
    with pytest.raises(DataError, match="outside"):
        empirical_table(records, config)


def test_blank_lines_are_ignored(tmp_path):
    config = load_config(write_config(tmp_path))
    data = tmp_path / "d.csv"
    data.write_text("z,x,a,y\n0,1,0,1\n\n  \n1,2,1,0\n")
    records, info = load_records(str(data), config)
    assert info["n_records"] == 2


# ---------------------------------------------------------------------------
# report assembly and writing


def test_build_report_envelope():
    doc = build_report("bounds", {"results": 1}, timestamp="2026-08-24T00:00:00+00:00")
    assert doc["command"] == "bounds"
    assert doc["generated_at"] == "2026-08-24T00:00:00+00:00"
    assert doc["results"] == 1
    assert "tool_version" in doc
    fresh = build_report("bounds", {})
    assert "T" in fresh["generated_at"]


def test_write_json_creates_directories_and_is_clean(tmp_path):
    target = tmp_path / "nested" / "deep" / "report.json"
    write_json({"b": 2, "a": 1}, str(target))
    text = target.read_text()
    assert text == '{\n  "a": 1,\n  "b": 2\n}\n'
    leftovers = [p for p in os.listdir(target.parent) if p.startswith(".rulebounds-")]
    assert leftovers == []


def test_write_json_failure_leaves_target_untouched(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("original")
    with pytest.raises(TypeError):
        write_json({"bad": object()}, str(target))
    assert target.read_text() == "original"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".rulebounds-")]
    assert leftovers == []


def test_write_stratum_csv_roundtrip(tmp_path):
    config = load_config(write_config(tmp_path))
    data = write_data(tmp_path)
    records, _ = load_records(data, config)
    table = empirical_table(records, config)
    cond = conditioning_bounds(StrategyRequest(config.model, table))
    out = tmp_path / "strata.csv"
    write_stratum_csv(cond.diagnostics["strata"], config.model, str(out))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row, stratum in zip(rows, cond.diagnostics["strata"]):
        assert int(row["x"]) == stratum["x"][0]
        assert float(row["weight"]) == stratum["weight"]  # repr round-trips exactly
        if stratum["skipped"]:
            assert row["lower"] == ""
        else:
            assert float(row["lower"]) == stratum["lower"]
            assert float(row["upper"]) == stratum["upper"]
    assert sum(float(r["weight"]) for r in rows) == pytest.approx(1.0, abs=1e-10)


def test_model_summary_mirrors_declaration(tmp_path):
    config = load_config(write_config(tmp_path))
    summary = model_summary(config.model)
    assert summary["rule"] == {"0": 0, "1": 1, "2": 1}
    assert summary["guideline"] == {"0": 0, "1": 0, "2": 0}
    assert summary["variables"][0] == {"name": "z", "cardinality": 2, "role": "instrument"}


# ---------------------------------------------------------------------------
# CLI end to end


def test_bounds_command_matches_library(tmp_path, capsys):
    cfg = write_config(tmp_path)
    data = write_data(tmp_path)
    out = tmp_path / "report.json"
    assert main(["bounds", "--config", cfg, "--data", data, "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "query: theta_f" in printed and "reduction" in printed

    doc = json.loads(out.read_text())
    assert doc["command"] == "bounds"
    assert doc["data"]["n_records"] == 600

    config = load_config(cfg)
    records, _ = load_records(data, config)
    table = empirical_table(records, config)
    request = StrategyRequest(config.model, table, "theta_f", cap=config.cap)
    red = reduction_bounds(request)
    cond = conditioning_bounds(request)
    assert doc["results"]["reduction"]["lower"] == red.lower
    assert doc["results"]["reduction"]["upper"] == red.upper
    assert doc["results"]["conditioning"]["lower"] == cond.lower
    assert doc["results"]["conditioning"]["upper"] == cond.upper


def test_bounds_command_repeat_runs_identical_reports(tmp_path, capsys):
    cfg = write_config(tmp_path)
    data = write_data(tmp_path)
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert main(["bounds", "--config", cfg, "--data", data, "--output", str(first)]) == 0
    assert main(["bounds", "--config", cfg, "--data", data, "--output", str(second)]) == 0
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


def test_bounds_command_stdout_and_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path)
    data = write_data(tmp_path)
    code = main(
        ["bounds", "--config", cfg, "--data", data, "--query", "cu",
         "--strategy", "reduction"]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert '"command": "bounds"' in printed
    assert '"query": "cu"' in printed
    assert "conditioning" not in printed.split("{", 1)[0]  # summary lines only


def test_bounds_command_stratum_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    data = write_data(tmp_path)
    strata_path = tmp_path / "strata.csv"
    out = tmp_path / "report.json"
    code = main(
        ["bounds", "--config", cfg, "--data", data, "--output", str(out),
         "--stratum-csv", str(strata_path)]
    )
    assert code == 0
    with open(strata_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    # reduction alone cannot produce the per-stratum table
    code = main(
        ["bounds", "--config", cfg, "--data", data, "--strategy", "reduction",
         "--stratum-csv", str(strata_path)]
    )
    assert code == 2
    assert "conditioning" in capsys.readouterr().err


def test_cli_exit_codes_for_config_problems(tmp_path, capsys):
    data = write_data(tmp_path)
    assert main(["bounds", "--config", str(tmp_path / "no.json"), "--data", data]) == 2
    assert "config error" in capsys.readouterr().err

    cfg_no_rule = write_config(tmp_path, name="norule.json", rule=None)
    assert main(["bounds", "--config", cfg_no_rule, "--data", data]) == 2

    cfg = write_config(tmp_path)
    assert main(["bounds", "--config", cfg]) == 2  # no data anywhere
    assert main(["bounds", "--config", cfg, "--data", data, "--cap", "10"]) == 2
    err = capsys.readouterr().err
    assert "--cap" in err and "enumeration_cap" in err  # the reduced program is over the cap
    assert "reduction or conditioning" not in err
    for cap in ("0", "-3"):
        assert main(["bounds", "--config", cfg, "--data", data, "--cap", cap]) == 2
        assert "enumeration_cap must be a positive integer" in capsys.readouterr().err


def test_cli_exit_codes_for_data_problems(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["bounds", "--config", cfg, "--data", str(tmp_path / "no.csv")]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("z,x,a\n0,0,0\n")
    assert main(["bounds", "--config", cfg, "--data", str(bad)]) == 3
    out_of_range = tmp_path / "range.csv"
    out_of_range.write_text("z,x,a,y\n0,9,0,1\n")
    assert main(["bounds", "--config", cfg, "--data", str(out_of_range)]) == 3
    assert "data error" in capsys.readouterr().err


def test_cli_exit_code_for_infeasible_data(tmp_path, capsys):
    cfg = write_config(tmp_path)
    data = tmp_path / "contradiction.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z", "x", "a", "y"])
        # stratum x=1 forces (a,y)=(0,0) under z=0 and (0,1) under z=1
        for _ in range(25):
            writer.writerows([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 1]])
    assert main(["bounds", "--config", cfg, "--data", str(data)]) == 4
    err = capsys.readouterr().err
    assert "infeasible" in err and "constraint" in err


def test_simulate_command_reports_and_repeats(tmp_path, capsys):
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({"card_covariate": 3, "card_treatment": 2}))
    first = tmp_path / "s1.json"
    second = tmp_path / "s2.json"
    args = ["simulate", "--config", str(sim_cfg), "--replications", "4",
            "--seed", "99", "--output"]
    assert main(args + [str(first)]) == 0
    printed = capsys.readouterr().out
    assert "validity 1.0000" in printed
    assert main(args + [str(second)]) == 0

    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b
    assert len(a["records"]) == 4
    assert a["config"]["master_seed"] == 99
    assert a["validity_rate"] == {"reduction": 1.0, "conditioning": 1.0}


def test_simulate_command_config_validation(tmp_path, capsys):
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({"card_covariate": 3, "unknown_key": 1}))
    assert main(["simulate", "--config", str(sim_cfg), "--replications", "2"]) == 2
    assert "unknown simulation config keys" in capsys.readouterr().err
    assert main(["simulate", "--replications", "2", "--strategies", "magic"]) == 2
    assert main(["simulate", "--replications", "0"]) == 2


def test_compare_command_runs_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path)
    data = write_data(tmp_path)
    out = tmp_path / "cmp.json"
    code = main(
        ["compare", "--config", cfg, "--data", data, "--output", str(out),
         "--oracle-cap", "100000"]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "conditioning inside reduction: True" in printed
    doc = json.loads(out.read_text())
    cmp = doc["comparison"]
    assert cmp["containment_ok"] is True
    assert cmp["oracle"] is not None
    assert cmp["oracle_matches_conditioning"] is True

    tiny = main(["compare", "--config", cfg, "--data", data, "--oracle-cap", "4"])
    assert tiny == 0
    printed = capsys.readouterr().out
    assert "oracle note" in printed
    assert "use the reduction or conditioning strategy instead" in printed
