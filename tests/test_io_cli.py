"""Config parsing, CSV loading, report writing, and the CLI surface.

End-to-end runs go through ``main`` with real files under tmp_path and
check exit codes, report contents, and agreement with the library calls.
"""

import argparse
import contextlib
import csv
import dataclasses
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rulebounds.io
from rulebounds.cli import build_parser, main
from rulebounds.errors import ConfigError, DataError
from rulebounds.io import (
    build_report,
    load_config,
    load_records,
    load_table,
    model_summary,
    parse_rule,
    write_json,
    write_stratum_csv,
)
from rulebounds.model import rule_table
from rulebounds.strategies import StrategyRequest, conditioning_bounds, reduction_bounds
from rulebounds.tables import empirical_joint

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
    # rule_table is its inverse
    assert rule_table(named) == {"0,1": 2}
    assert parse_rule(rule_table(bare), 1, "rule").items == bare.items
    assert rule_table(None) is None


def test_parse_rule_defects():
    with pytest.raises(ConfigError, match="non-empty object"):
        parse_rule([], 1, "rule")
    with pytest.raises(ConfigError, match="non-empty object"):
        parse_rule({"table": {}}, 1, "rule")
    with pytest.raises(ConfigError, match="non-integer value"):
        parse_rule({"0": "high"}, 1, "rule")
    with pytest.raises(ConfigError, match="non-integer value"):
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
        ({"query": "cu", "guideline": None}, "^query 'cu' needs a guideline"),
        ({"strategy": "oracle"}, "unknown strategy"),
        ({"enumeration_cap": 10**9}, "enumeration_cap"),
        (
            {"variables": BASE_CONFIG["variables"] + [
                {"name": "y", "cardinality": 2, "role": "outcome"}]},
            "invalid model",
        ),
        ({"oracle_cap": 4}, "oracle_cap"),
        ({"data": 7}, "'data' must be a file path string"),
        ({"stratum_csv": 0}, "'stratum_csv' must be a file path string"),
        ({"query": ["cu"]}, r"unknown query \['cu'\]; expected one of \('theta_f', 'theta_g', 'cu'\)"),
    ],
)
def test_load_config_defects(tmp_path, mutation, message):
    path = write_config(tmp_path, **mutation)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


@pytest.mark.parametrize(
    "changes,message",
    [
        # two variables reading one column: explicitly, or one's default name as another's column
        ({"a": {"column": "z"}}, "^variables 'z' and 'a' both read column 'z'$"),
        ({"z": {"column": "x"}}, "^variables 'z' and 'x' both read column 'x'$"),
        ({"a": {"column": 5}}, r"^variables\[2\] \('a'\): column must be a non-empty string, got 5$"),
        ({"a": {"column": ""}}, r"^variables\[2\] \('a'\): column must be a non-empty string, got ''$"),
        ({"a": {"name": 7}}, r"^variables\[2\]: variable name must be a non-empty string, got 7$"),
    ],
)
def test_load_config_refuses_column_and_name_defects(tmp_path, capsys, changes, message):
    # left to the data loader, each would read another variable's codes or fail as a data error (exit 3)
    data = write_data(tmp_path)
    variables = [dict(v, **changes.get(v["name"], {})) for v in BASE_CONFIG["variables"]]
    cfg = write_config(tmp_path, variables=variables)
    with pytest.raises(ConfigError, match=message):
        load_config(cfg)
    assert main(["bounds", "--config", cfg, "--data", data]) == 2
    assert "config error: variable" in capsys.readouterr().err


@pytest.mark.parametrize("role", [[1], {"r": 1}, 1, None, "covariate"])
def test_load_config_refuses_a_role_that_is_not_a_role_name(tmp_path, capsys, role):
    # an unhashable role used to end the run in a TypeError traceback (exit 1)
    data = write_data(tmp_path)
    variables = [dict(v, role=role) if v["name"] == "a" else v for v in BASE_CONFIG["variables"]]
    cfg = write_config(tmp_path, variables=variables)
    message = rf"^variables\[2\] \('a'\): unknown role {re.escape(repr(role))} \(expected one of \["
    with pytest.raises(ConfigError, match=message):
        load_config(cfg)
    assert main(["bounds", "--config", cfg, "--data", data]) == 2
    assert "config error: variables[2] ('a'): unknown role" in capsys.readouterr().err


def test_load_config_refuses_unknown_keys(tmp_path, capsys):
    # a misspelt key is a config error naming it, at the top level and on a variable
    data = write_data(tmp_path)
    top = write_config(tmp_path, name="top.json", enumeraton_cap=1)
    with pytest.raises(ConfigError, match=r"unknown config keys \['enumeraton_cap'\]"):
        load_config(top)
    variables = [dict(v, colum="nope") if v["name"] == "x" else v for v in BASE_CONFIG["variables"]]
    misspelt = write_config(tmp_path, name="var.json", variables=variables)
    with pytest.raises(ConfigError, match=r"variables\[1\] \('x'\): unknown keys \['colum'\]"):
        load_config(misspelt)
    for cfg in (top, misspelt):
        assert main(["bounds", "--config", cfg, "--data", data]) == 2
        assert "config error: " in capsys.readouterr().err
    # every documented key is accepted
    variables = [dict(v, column=v["name"]) for v in BASE_CONFIG["variables"]]
    every = write_config(
        tmp_path, name="every.json", variables=variables, data="d.csv", output="o.json", stratum_csv="s.csv",
    )
    assert load_config(every).stratum_csv_path == "s.csv"


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
    table = empirical_joint(records, config.model.variables)
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

    # a byte that is not UTF-8 and a code too large for int64 are data errors, not tracebacks
    undecodable = tmp_path / "latin1.csv"
    undecodable.write_bytes(b"z,x,a,y\n0,1,0,1\n0,\xff,0,1\n")
    with pytest.raises(DataError, match=r"line 3 of .*latin1\.csv.*byte 0xff is not UTF-8"):
        load_records(str(undecodable), config)
    huge = tmp_path / "huge.csv"
    huge.write_text("z,x,a,y\n0,1,0,1\n0,99999999999999999999,0,1\n")
    with pytest.raises(
        DataError, match=r"row 3 .*value 99999999999999999999 for 'x' is outside range\(0, 3\)"
    ):
        load_records(str(huge), config)

    # a field longer than csv.field_size_limit() is named by its file line, in a row or the header
    long_field = tmp_path / "long.csv"
    long_field.write_text('z,x,a,y\n0,1,0,1\n0,"' + "1" * 200_001 + '",0,1\n')
    with pytest.raises(DataError, match=r"line 3 of .*long\.csv.*field larger than field limit"):
        load_records(str(long_field), config)
    long_field.write_text('"' + "z" * 200_001 + '",x,a,y\n0,1,0,1\n')
    with pytest.raises(DataError, match=r"line 1 of .*long\.csv.*field larger than field limit"):
        load_records(str(long_field), config)


def test_out_of_range_code_is_a_data_error(tmp_path):
    config = load_config(write_config(tmp_path))
    data = tmp_path / "d.csv"
    data.write_text("z,x,a,y\n0,7,0,1\n")
    with pytest.raises(DataError, match="outside"):
        load_records(str(data), config)


def test_blank_lines_are_ignored(tmp_path):
    config = load_config(write_config(tmp_path))
    data = tmp_path / "d.csv"
    data.write_text("z,x,a,y\n0,1,0,1\n\n  \n1,2,1,0\n")
    records, info = load_records(str(data), config)
    assert info["n_records"] == 2


def load_or_error(path, config):
    try:
        return load_records(path, config)
    except DataError as err:
        return str(err)


# 1 and 7 bytes put nearly every line in a block of its own; 16 splits between rows of a file
BLOCK_SIZES = (1, 7, 16, rulebounds.io._BLOCK_BYTES)


def tabulate_or_error(load, path, config):
    """The probs and info of ``load``'s table, or a ``DataError``'s text."""
    try:
        table, info = load(path, config)
    except DataError as err:
        return str(err)
    return table.probs, info


def records_table(path, config):
    records, info = load_records(path, config)
    return empirical_joint(records, config.model.variables), info


def assert_same_load(path, config):
    """``load_records`` agrees with its csv.reader path at every block size, and ``load_table`` with both.

    Same records and info, or a ``DataError`` with the same text; ``load_table``
    gives bit-identical probs and the same info as ``empirical_joint`` over
    the csv.reader path's records, or the same error. The tokenizer is made
    to refuse the first block, so csv.reader reads every row.
    """
    with mock.patch.object(rulebounds.io, "_plain_blocks", side_effect=lambda *args: iter([(None, False)])):
        slow = load_or_error(path, config)
        slow_table = tabulate_or_error(records_table, path, config)
    for block in BLOCK_SIZES:
        with mock.patch.object(rulebounds.io, "_BLOCK_BYTES", block):
            fast = load_or_error(path, config)
            table = tabulate_or_error(load_table, path, config)
        if isinstance(fast, str) or isinstance(slow, str):
            assert fast == slow
        else:
            np.testing.assert_array_equal(fast[0], slow[0])
            assert fast[0].dtype == slow[0].dtype
            assert fast[1] == slow[1]
        if isinstance(table, str) or isinstance(slow_table, str):
            assert table == slow_table
        else:
            assert np.array_equal(table[0], slow_table[0])
            assert table[1] == slow_table[1]


PLAIN_CELLS = st.sampled_from(["0", "1", "2", "01", "001", "0" * 17 + "1"])
ODD_CELLS = st.sampled_from([
    "", " ", " 1", "1 ", "\t0 ", "+1", "-0", "-1", "+", "-", "1 1", "+-1", "1-", "yes", "_",
    "1_0", '"1"', '"', "\r1", "é", "9" * 19, "0" * 18 + "1",
])


@st.composite
def csv_files(draw, columns):
    """Bytes of small CSV files over ``columns``: mostly plain, with every kind of deviation."""
    extra = draw(st.lists(st.sampled_from(["note", "w", "note", "z"]), max_size=2))
    names = draw(st.permutations(columns + extra))
    if draw(st.integers(0, 9)) == 0:
        names.pop(draw(st.integers(0, len(names) - 1)))
    header = ",".join(draw(st.sampled_from([n, n, f" {n}\t", f'"{n}"'])) for n in names)
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "", ",,,", ",,,,,,", "  ", " \t,"])))
            continue
        width = len(names) + draw(st.sampled_from([0] * 8 + [-1, 1]))
        cells = draw(st.lists(PLAIN_CELLS, min_size=width, max_size=width))
        if cells and draw(st.integers(0, 5)) == 0:
            cells[draw(st.integers(0, width - 1))] = draw(ODD_CELLS)
        lines.append(",".join(cells))
    end = st.sampled_from(["\n"] * 12 + ["\r\n", "\r"])
    ends = draw(st.lists(end, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    raw = text.encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        cut = draw(st.integers(0, len(raw)))
        raw = raw[:cut] + b"\xff" + raw[cut:]
    return raw


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data(), renamed=st.booleans())
def test_plain_tokenizer_agrees_with_csv_reader(tmp_path, data, renamed):
    config = load_config(write_config(tmp_path))
    if renamed:
        config = dataclasses.replace(config, columns=dict(config.columns, y="result"))
    path = tmp_path / "d.csv"
    path.write_bytes(data.draw(csv_files([config.columns[n] for n in ("z", "x", "a", "y")])))
    assert_same_load(str(path), config)


@pytest.mark.parametrize(
    "raw",
    [
        b"z,x,a,y\n0,\r1,0,1\n",  # a lone CR ends the row for csv.reader
        b"z,x,a,y\n0,1,0,1\r",
        b"z,x,a,y\r\n0,1,0,1\r\n",
        b"z,x,a,y\r\n0,1,0,1\n1,2,1,0\r\n0,3,0,1\r\n",  # LF and CRLF mixed, out of range on line 4
        b"z,x,a,y\r\n0,1,0,1\r\r\n1,2,1,0\r\n",  # CR CR LF holds a lone CR
        b"z,x,a,y\r0",  # a header ended by a lone CR, then a short row and no LF
        b"z,x,a,y\r0,1,0,1\r\n",
        b"z,x,a,y\n0,-1,0,1\n",
        b"z,x,a,y\n0, 1 ,0,1\n",
        b"z,x,a,y\n0,9999999999999999999,0,1\n",  # 19 digits overflow int64
        b"z,x,a,y\n0,0000000000000000001,0,1\n",  # 19 digits that fit
        b"z,x,a,y\n0,1,0,1,5\n1,1,0,1\n",
        b"z,x,a,y\n0,1,0\n1,1,0,1\n",
        b"z,x,a,y\n0,,0,1\n",
        b"z,x,a,y\n,,,\n\n0,1,0,1",
        b"z,x,a,y\n\n\n,,,\n0,1,0,1\n\n,,,\n1,2,1,0\n\n",  # blank rows at block ends
        b"z,x,a,y\n0,1,0,1\n0,3,0,1\n",  # out of range in a later block
        b"z,x,a,y",
        b"z,x,a,y\n",
        b"\"z\",x,a,y\n0,1,0,1\n",
        b"z,x,a,y\n\"0\",1,0,1\n",
    ],
)
def test_load_records_agrees_with_csv_reader_on_edge_files(tmp_path, raw):
    config = load_config(write_config(tmp_path))
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    assert_same_load(str(path), config)


@pytest.mark.parametrize(
    "raw,line",
    [
        (b"z,x,a,y\n\n,,,\n0,1,0,1\n,,\n\n0,7,0,1\n", 7),
        (b"z,x,a,y\n,,,,,,\n0,1,0,1\n\n,\n1,2,1,0\n\n\n1,2,1,5", 9),
        (b"z,x,a,y\n3,1,0,1\n\n", 2),
    ],
)
def test_tokenizer_names_the_file_line_of_an_out_of_range_code(tmp_path, raw, line):
    """Without csv.reader, the row named is csv.reader's file line, blank and comma-only lines counted."""
    config = load_config(write_config(tmp_path))
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    for block in BLOCK_SIZES:
        refuse = AssertionError("csv.reader ran")
        with mock.patch.object(rulebounds.io, "_csv_records", side_effect=refuse), \
                mock.patch.object(rulebounds.io, "_BLOCK_BYTES", block):
            with pytest.raises(DataError, match=rf"^row {line} of .*is outside range"):
                load_records(str(path), config)
    assert_same_load(str(path), config)


def test_plain_tokenizer_reads_plain_files(tmp_path):
    """Digit-comma files with LF or CRLF line ends go through the tokenizer, at every block size; others do not."""
    config = load_config(write_config(tmp_path))
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    counts = np.random.default_rng(5).integers(0, 40, size=(2, 3, 2, 2))
    fixed_width = tmp_path / "bench.csv"
    gen.write_csv(str(fixed_width), counts, ["z", "x", "a", "y"], 5)
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("note,z ,x,a,y\n7,0,01,0,1\n\n,,,,\n12,1,2,001,0\n\n3,0,0,1,1")
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(b"z,x,a,y\r\n0,1,0,1\r\n\r\n,,,\r\n1,2,1,0\r\n")
    for block in BLOCK_SIZES:
        refuse = AssertionError("csv.reader ran")
        with mock.patch.object(rulebounds.io, "_csv_records", side_effect=refuse), \
                mock.patch.object(rulebounds.io, "_BLOCK_BYTES", block):
            records, _ = load_records(str(crlf), config)
            np.testing.assert_array_equal(records, [[0, 1, 0, 1], [1, 2, 1, 0]])
            records, info = load_records(str(fixed_width), config)
            np.testing.assert_array_equal(
                np.bincount(np.ravel_multi_index(tuple(records.T), counts.shape),
                            minlength=counts.size),
                counts.ravel(),
            )
            assert info["sha256"] == rulebounds.io.file_sha256(str(fixed_width))
            records, _ = load_records(str(sparse), config)
            np.testing.assert_array_equal(records, [[0, 1, 0, 1], [1, 2, 1, 0], [0, 0, 1, 1]])

    spaced = tmp_path / "spaced.csv"
    spaced.write_text("z,x,a,y\n0, 1,+0,1\n")
    for path in (fixed_width, sparse, crlf, spaced):
        with mock.patch.object(rulebounds.io, "_csv_records", wraps=rulebounds.io._csv_records) as slow:
            load_records(str(path), config)
        assert slow.called == (path == spaced)
        assert_same_load(str(path), config)


def load_gen():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_load_table_folds_plain_files_into_counts(tmp_path):
    """Plain files, CRLF ones too, are tabulated by the tokenizer alone, at every block size; spaced files are not."""
    config = load_config(write_config(tmp_path))
    gen = load_gen()
    counts = np.random.default_rng(6).integers(0, 40, size=(2, 3, 2, 2))
    fixed_width = tmp_path / "bench.csv"
    gen.write_csv(str(fixed_width), counts, ["z", "x", "a", "y"], 6)
    sparse = tmp_path / "sparse.csv"
    sparse.write_text("note,z ,x,a,y\n7,0,01,0,1\n\n,,,,\n12,1,2,001,0\n\n3,0,0,1,1")
    for block in BLOCK_SIZES:
        refuse = AssertionError("csv.reader ran")
        with mock.patch.object(rulebounds.io, "_csv_records", side_effect=refuse), \
                mock.patch.object(rulebounds.io, "_BLOCK_BYTES", block):
            table, info = load_table(str(fixed_width), config)
            np.testing.assert_array_equal(table.probs, counts / counts.sum())
            assert info["n_records"] == counts.sum()
            assert info["sha256"] == rulebounds.io.file_sha256(str(fixed_width))
            assert info["value_counts"]["x"] == {
                str(x): int(counts[:, x].sum()) for x in range(3)
            }
            table, info = load_table(str(sparse), config)
            assert info["n_records"] == 3
            assert table.probs[0, 1, 0, 1] == table.probs[1, 2, 1, 0] == table.probs[0, 0, 1, 1] == 1 / 3

    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(b"z,x,a,y\r\n0,1,0,1\r\n1,2,1,0\r\n")
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("z,x,a,y\n0, 1,+0,1\n")
    out_of_range = tmp_path / "range.csv"
    out_of_range.write_text("z,x,a,y\n0,1,0,1\n0,3,0,1\n")
    for path in (fixed_width, sparse, crlf, spaced, out_of_range):
        for load in (load_table, load_records):
            with mock.patch.object(rulebounds.io, "_csv_records", wraps=rulebounds.io._csv_records) as slow, \
                    contextlib.suppress(DataError):
                load(str(path), config)
            assert slow.called == (path == spaced)
        assert_same_load(str(path), config)


def test_each_tokenizer_block_is_decoded_once(tmp_path):
    """A file that leaves the tokenizer's path only in its last row has each block decoded once, by either loader."""
    config = load_config(write_config(tmp_path))
    gen = load_gen()
    plain = tmp_path / "plain.csv"
    gen.write_csv(str(plain), gen.counts_for_model(config.model, 7, 40_000), ["z", "x", "a", "y"], 7)
    data = plain.read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(data[:-1] + b"\r\n")
    out_of_range = tmp_path / "range.csv"
    out_of_range.write_bytes(data[:last] + b"0,3" + data[last + 3:])
    decode = rulebounds.io._plain_blocks
    yields = []

    def counted(*args):
        for block in decode(*args):
            yields.append(block)
            yield block

    decoded = {}
    for path in (plain, crlf, out_of_range):
        for load in (load_table, load_records):
            yields.clear()
            with mock.patch.object(rulebounds.io, "_plain_blocks", counted), contextlib.suppress(DataError):
                load(str(path), config)
            decoded[path.name, load.__name__] = len(yields)
    blocks = decoded["plain.csv", "load_table"]
    assert blocks > 4
    assert set(decoded.values()) == {blocks}


def table_excess(tmp_path, old, new):
    """``load_table``'s tracemalloc peak beyond the file's bytes, on files of 100k and 400k rows, ``old`` made ``new``."""
    config = load_config(write_config(tmp_path))
    gen = load_gen()
    excess = []
    for rows in (100_000, 400_000):
        path = tmp_path / f"rows{rows}.csv"
        gen.write_csv(str(path), gen.counts_for_model(config.model, 3, rows), ["z", "x", "a", "y"], 3)
        path.write_bytes(path.read_bytes().replace(old, new))
        tracemalloc.start()
        try:
            table, info = load_table(str(path), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info["n_records"] == rows
        excess.append(peak - path.stat().st_size)
    return excess


def test_load_table_memory_follows_one_block_not_the_row_count(tmp_path):
    """Beyond the file's bytes, tabulating a plain file, LF or CRLF, holds about one block's index arrays."""
    for end in (b"\n", b"\r\n"):
        excess = table_excess(tmp_path, b"\n", end)
        assert max(excess) < 32 * rulebounds.io._BLOCK_BYTES
        assert abs(excess[1] - excess[0]) < rulebounds.io._BLOCK_BYTES // 8


def test_csv_reader_memory_follows_one_block_not_the_row_count(tmp_path):
    """A file with a line of one space after each row, which csv.reader reads, is folded a block of rows at a time."""
    with mock.patch.object(rulebounds.io, "_csv_records", wraps=rulebounds.io._csv_records) as slow:
        excess = table_excess(tmp_path, b"\n", b"\n \n")
    assert slow.call_count == 2
    assert max(excess) < 32 * rulebounds.io._BLOCK_BYTES
    assert abs(excess[1] - excess[0]) < rulebounds.io._BLOCK_BYTES // 8


@pytest.mark.parametrize(
    "raw,error",
    [
        (b"z,x,a,y\n0,5,0,1\n0,1,0,1\n7,1,0,1\n", "row 4 of {path!r}: value 7 for 'z' is outside range(0, 2)"),
        (b"z,x,a,y\r\n0,5,0,1\r\n0,1,0,1\r\n7,1,0,1\r\n",
         "row 4 of {path!r}: value 7 for 'z' is outside range(0, 2)"),
        (b'z,x,a,y\n0,q,0,1\n0,1,0,1\n0,"' + b"1" * 200_001 + b'",0,1\n',
         "line 4 of {path!r}: field larger than field limit (131072)"),
        (b"z,x,a,y\n0,5,0,1\n0,1,0,1\n0,x,0,1\n", "row 4 of {path!r}: value 'x' for 'x' is not an integer"),
        (b"z,x,a,y\n", None),
    ],
)
def test_a_file_with_several_defects_names_the_one_that_comes_first(tmp_path, raw, error):
    """A csv.Error comes before an unreadable row, which comes before a code out of range, wherever they lie;
    among codes out of range, the first variable in model order's comes first."""
    config = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "example.json"))
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    if error is None:
        records, info = load_records(str(path), config)
        assert records.shape == (0, 4) and info["n_records"] == 0
        error = "records are empty"
    else:
        error = error.format(path=str(path))
        assert load_or_error(str(path), config) == error
    assert tabulate_or_error(load_table, str(path), config) == error


def test_non_ascii_header_costs_no_decoded_copy_of_the_file(tmp_path):
    """UTF-8 is checked a block at a time: a non-ASCII header name adds at most one block to the peak."""
    variables = [dict(v, column="résultat") if v["name"] == "y" else v for v in BASE_CONFIG["variables"]]
    configs = (load_config(write_config(tmp_path)), load_config(write_config(tmp_path, "é.json", variables=variables)))
    gen = load_gen()
    counts = gen.counts_for_model(configs[0].model, 5, 200_000)
    loads = []
    for config, y in zip(configs, ("y", "résultat")):
        path = tmp_path / f"{y}.csv"
        gen.write_csv(str(path), counts, ["z", "x", "a", y], 5)
        tracemalloc.start()
        try:
            table, info = load_table(str(path), config)
            loads.append((table.probs, info["value_counts"], tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
    (ascii_probs, ascii_counts, ascii_peak), (probs, value_counts, peak) = loads
    assert np.array_equal(probs, ascii_probs) and value_counts == ascii_counts
    assert peak - ascii_peak < rulebounds.io._BLOCK_BYTES


def test_utf8_check_names_the_line_across_a_block_boundary(tmp_path):
    config = load_config(write_config(tmp_path))
    block = rulebounds.io._BLOCK_BYTES
    plain = b"z,x,a,y\n" + b"0,1,0,1\n" * (block // 8 + 100)  # 8-byte lines: line n + 1 starts at byte 8n
    # a bad byte just past the boundary, and a lead byte cut by it whose continuation is bad
    for offset, byte in ((block + 2, 0xFF), (block - 1, 0xC3)):
        data = bytearray(plain)
        data[offset] = byte
        path = tmp_path / f"bad{offset}.csv"
        path.write_bytes(bytes(data))
        line = data[:offset].count(b"\n") + 1
        assert line == offset // 8 + 1
        with pytest.raises(DataError) as exc:
            load_table(str(path), config)
        assert str(exc.value) == f"line {line} of {str(path)!r}: byte 0x{byte:02x} is not UTF-8; data files must be UTF-8"
    # a character cut by the boundary, of two, three or four bytes, loads; its text column is not read
    header, row = b"z,x,a,y,note\n", b"0,1,0,1,-\n"
    head = header + row * ((block - 100) // len(row))
    for char in ("é", "€", "𝄞"):
        start = b"1,2,1,0,"
        cut = start + b"-" * (block - 1 - len(head) - len(start)) + char.encode() + b"\n"
        data = head + cut + row * 3
        assert data[block - 1:block - 1 + len(char.encode())] == char.encode()
        path = tmp_path / "cut.csv"
        path.write_bytes(data)
        table, info = load_table(str(path), config)
        assert info["n_records"] == data.count(b"\n") - 1
        assert table.probs[1, 2, 1, 0] == 1 / info["n_records"]


CARDS = {"z": 2, "x": 3, "a": 2, "y": 2}
DEVIANT_ROWS = ["two digits", "zero-padded", "blank", "commas", "CR", "out of range", "text"]


@st.composite
def one_digit_files(draw):
    """Bytes of CSV files of one-digit rows over ``CARDS``, with now and then a deviant row."""
    names = draw(st.permutations(list(CARDS) + draw(st.sampled_from([[], ["note"]]))))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(1, 30))):
        cells = [str(draw(st.integers(0, CARDS.get(n, 10) - 1))) for n in names]
        deviant = draw(st.sampled_from([None] * 15 + DEVIANT_ROWS))
        i = draw(st.integers(0, len(CARDS) - 1))
        column = names.index(list(CARDS)[i])
        if deviant == "two digits":
            cells[column] = "1" + cells[column]
        elif deviant == "zero-padded":
            cells[column] = "0" + cells[column]
        elif deviant == "out of range":
            cells[column] = str(draw(st.integers(CARDS[names[column]], 9)))
        elif deviant == "text":
            if "note" in names:
                cells[names.index("note")] = "n"
            else:
                cells.append("n")
        line = ",".join(cells)
        if deviant in ("blank", "commas"):
            line = "" if deviant == "blank" else "," * (len(names) - 1)
        lines.append(line + "\r" * (deviant == "CR"))
    text = "\n".join(lines) + "\n" * draw(st.sampled_from([1, 1, 1, 0]))
    return text.encode()


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(raw=one_digit_files())
def test_one_digit_tokenizer_agrees_with_csv_reader(tmp_path, raw):
    config = load_config(write_config(tmp_path))
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    assert_same_load(str(path), config)


def test_one_digit_blocks_skip_the_general_decoder(tmp_path):
    """Fixed-layout rows are read as a byte matrix; a single ``01`` row sends only its own block to _plain_block."""
    config = load_config(write_config(tmp_path))
    gen = load_gen()
    counts = gen.counts_for_model(config.model, 4, 40_000)
    path = tmp_path / "bench.csv"
    gen.write_csv(str(path), counts, ["z", "x", "a", "y"], 4)
    plain = path.read_bytes()
    assert len(plain) > 4 * rulebounds.io._BLOCK_BYTES
    cut = plain.index(b"\n", len(plain) // 2) + 1
    padded = tmp_path / "padded.csv"
    padded.write_bytes(plain[:cut] + b"0,01,0,1\n" + plain[cut:])
    with_row = counts.copy()
    with_row[0, 1, 0, 1] += 1
    for path, expected, calls in ((path, counts, 0), (padded, with_row, 1)):
        for load in (load_table, load_records):
            with mock.patch.object(rulebounds.io, "_plain_block", wraps=rulebounds.io._plain_block) as general, \
                    mock.patch.object(rulebounds.io, "_csv_records", side_effect=AssertionError("csv.reader ran")):
                loaded, info = load(str(path), config)
            assert general.call_count == calls
            if calls:
                assert b"\n0,01,0,1\n" in general.call_args.args[0].tobytes()
            if load is load_records:
                loaded = empirical_joint(loaded, config.model.variables)
            assert info["n_records"] == expected.sum()
            assert np.array_equal(loaded.probs, expected / expected.sum())


@pytest.mark.parametrize("card", range(1, 13))
def test_one_digit_blocks_check_each_code_against_its_cardinality(tmp_path, card):
    """A byte-matrix block holds only codes below ``min(card, 10)``; one code outside sends its block elsewhere.

    Over an extra covariate ``w`` of each cardinality, every load tabulates
    as ``empirical_joint`` over ``load_records``. A one-digit code outside
    its range in the first, a middle or the last block is the record path's
    error, with the same text from both loaders.
    """
    config = load_config(write_config(
        tmp_path, variables=BASE_CONFIG["variables"] + [{"name": "w", "cardinality": card, "role": "extra_covariate"}]
    ))
    rng = np.random.default_rng(card)
    rows = 4 * rulebounds.io._BLOCK_BYTES // 10  # 10-byte rows: four full blocks and a short fifth
    cards = [v.cardinality for v in config.model.variables]
    codes = np.stack([rng.integers(0, min(c, 10), rows) for c in cards], axis=1)
    lines = [",".join(map(str, row)) for row in codes.tolist()]
    if card > 10:  # a two-digit code in range sends only its own block to the general decoder
        lines[rows // 2] = lines[rows // 2][:-1] + str(card - 1)
    # the bad code: in w while a digit can lie outside its range, else in x (cardinality 3)
    column, bad = (4, str(card)) if card < 10 else (1, "7")
    for name, row in (("clean", None), ("first", 0), ("middle", rows // 2 + 1), ("last", rows - 1)):
        body = list(lines)
        if row is not None:
            cells = body[row].split(",")
            cells[column] = bad
            body[row] = ",".join(cells)
        path = tmp_path / f"{name}.csv"
        path.write_text("z,x,a,y,w\n" + "\n".join(body) + "\n")
        expected = tabulate_or_error(records_table, str(path), config)
        with mock.patch.object(rulebounds.io, "_plain_block", wraps=rulebounds.io._plain_block) as general:
            loaded = tabulate_or_error(load_table, str(path), config)
        if row is None:
            assert general.call_count == (card > 10)
            assert np.array_equal(loaded[0], expected[0]) and loaded[1] == expected[1]
            assert loaded[1]["n_records"] == rows
        else:
            assert loaded == expected == (
                f"row {row + 2} of {str(path)!r}: value {bad} for {'xw'[column == 4]!r} "
                f"is outside range(0, {cards[column]})"
            )


def test_leap_prep_script_writes_lines_the_tokenizer_reads(tmp_path, capsys):
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("prepare_leap_csv", root / "scripts" / "prepare_leap_csv.py")
    prepare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(prepare)
    export = tmp_path / "export.csv"
    export.write_text(
        "arm,spt,peanut_grams_weekly,allergic\n"
        "consumption,positive,7.5,no\navoidance,0,0,yes\nconsumption,1,1.0,0\n,1,2,0\n"
    )
    out = tmp_path / "leap" / "leap_observed.csv"
    assert prepare.main(["--input", str(export), "--output", str(out)]) == 0
    assert out.read_bytes() == b"arm,spt,a2,a3,y\n1,1,1,2,0\n0,0,0,0,1\n1,1,1,1,0\n"
    for name in ("leap_f1.json", "leap_f2.json"):
        config = load_config(str(root / "configs" / name))
        with mock.patch.object(rulebounds.io, "_csv_records", side_effect=AssertionError("csv.reader ran")):
            table, info = load_table(str(out), config)
        assert info["n_records"] == 3


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
    table = empirical_joint(records, config.model.variables)
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
    table = empirical_joint(records, config.model.variables)
    request = StrategyRequest(config.model, table, "theta_f")
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
    # the refusal comes before the data is read, and writes nothing
    unwritten = tmp_path / "unwritten.csv"
    code = main(
        ["bounds", "--config", cfg, "--data", str(tmp_path / "missing.csv"),
         "--strategy", "reduction", "--stratum-csv", str(unwritten)]
    )
    assert code == 2
    assert "config error: --stratum-csv needs the conditioning strategy" in capsys.readouterr().err
    assert not unwritten.exists()


def test_zero_stratum_endpoints_are_not_negative_zero(tmp_path, capsys):
    """Stratum x=0 of the example has rule level = guideline level, so its cu program's objective is zero."""
    root = Path(__file__).resolve().parent.parent
    out, strata = tmp_path / "report.json", tmp_path / "strata.csv"
    code = main(
        ["bounds", "--config", str(root / "configs" / "example.json"),
         "--data", str(root / "data" / "example_observed.csv"),
         "--output", str(out), "--stratum-csv", str(strata)]
    )
    assert code == 0

    def numbers(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            return [x for child in node for x in numbers(child)]
        return [node] if isinstance(node, float) else []

    zeros = [x for x in numbers(json.loads(out.read_text())) if x == 0]
    with open(strata, newline="") as fh:
        cells = [row[key] for row in csv.DictReader(fh) for key in ("lower", "upper")]
    zeros += [float(cell) for cell in cells if cell and float(cell) == 0]
    assert len(zeros) >= 4
    assert all(math.copysign(1.0, x) == 1.0 for x in zeros)


def test_cli_exit_codes_for_config_problems(tmp_path, capsys):
    data = write_data(tmp_path)
    assert main(["bounds", "--config", str(tmp_path / "no.json"), "--data", data]) == 2
    assert "config error" in capsys.readouterr().err

    cfg_no_rule = write_config(tmp_path, name="norule.json", rule=None)
    assert main(["bounds", "--config", cfg_no_rule, "--data", data]) == 2

    cfg = write_config(tmp_path)
    assert main(["bounds", "--config", cfg]) == 2  # no data anywhere
    capsys.readouterr()
    # the retired class caps are refused by name, never silently ignored
    for command, flag in (("bounds", "--cap"), ("compare", "--oracle-cap")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--data", data, flag, "10"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err
    old_key = write_config(tmp_path, name="old.json", enumeration_cap=10**9)
    assert main(["bounds", "--config", old_key, "--data", data]) == 2
    assert "config error: unknown config keys ['enumeration_cap']" in capsys.readouterr().err


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


def test_cli_exit_code_for_undecodable_and_overflowing_data(tmp_path, capsys):
    cfg = write_config(tmp_path)
    data = tmp_path / "d.csv"
    data.write_bytes(b"z,x,a,y\n0,1,0,1\n0,\xff,0,1\n")
    assert main(["bounds", "--config", cfg, "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "line 3" in err and "not UTF-8" in err
    data.write_text("z,x,a,y\n0,1,0,1\n0,99999999999999999999,0,1\n")
    assert main(["bounds", "--config", cfg, "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert "row 3" in err and "value 99999999999999999999 for 'x'" in err
    data.write_text('z,x,a,y\n0,1,0,1\n0,"' + "1" * 200_001 + '",0,1\n')
    assert main(["bounds", "--config", cfg, "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert "data error: line 3 of" in err and "field larger than field limit" in err


def test_cli_refuses_a_repeated_model_column(tmp_path, capsys):
    cfg = write_config(tmp_path)
    lines = open(write_data(tmp_path)).read().splitlines()

    def with_columns(header, cells):
        path = tmp_path / "wide.csv"
        path.write_text("\n".join([lines[0] + header] + [r + cells for r in lines[1:]]) + "\n")
        return str(path)

    assert main(["bounds", "--config", cfg, "--data", with_columns(",a", ",0")]) == 3
    err = capsys.readouterr().err
    assert "column 'a'" in err and "2 times" in err
    # repeated columns the model does not read stay ignored
    assert main(["bounds", "--config", cfg, "--data", with_columns(",note,note", ",p,q")]) == 0


def test_cli_names_file_line_of_out_of_range_code(tmp_path, capsys):
    cfg = write_config(tmp_path)
    data = tmp_path / "range.csv"
    data.write_text("z,x,a,y\n\n0,1,1,1\n0,1,9,1\n")
    assert main(["bounds", "--config", cfg, "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert "row 4" in err and "value 9 for 'a'" in err and "range(0, 2)" in err


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


def test_infeasible_reduction_names_the_guideline_level(tmp_path, capsys):
    # a guideline constant at 1 gives guideline_rec one value, which stands for level 1
    cfg = write_config(
        tmp_path, guideline={"name": "always", "table": {"0": 1, "1": 1, "2": 1}}, query="cu", strategy="reduction"
    )
    data = tmp_path / "contradiction.csv"
    # as in test_cli_exit_code_for_infeasible_data: stratum x=1 takes treatment 0, yet its outcome follows z
    data.write_text("z,x,a,y\n" + "0,0,0,0\n1,0,0,0\n0,1,0,0\n1,1,0,1\n" * 25)
    assert main(["bounds", "--config", cfg, "--data", str(data)]) == 4
    err = capsys.readouterr().err
    assert "guideline_rec=1" in err and "guideline_rec=0" not in err


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
    # wrong-typed or out-of-range shape values are config errors, not tracebacks
    for raw, message in (
        ({"replications": "10"}, "replications must be an integer"),
        ({"card_covariate": 0}, "card_covariate must be an integer"),
        ({"master_seed": True}, "master_seed must be an integer"),
        ({"strategies": 5}, "strategies must be a tuple"),
        ({"strategies": ["conditioning", "conditioning"]}, "strategies ['conditioning'] given more than once"),
        ({"query": ["cu"]}, "unknown query ['cu']; expected one of ('theta_f', 'theta_g', 'cu')"),
        ({"query": "theta_x"}, "unknown query 'theta_x'; expected one of ('theta_f', 'theta_g', 'cu')"),
        ({"rule": {"0": 0}}, "config error: invalid model: rule 'rule': no level assigned for covariate values"),
    ):
        sim_cfg.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(sim_cfg)]) == 2
        assert message in capsys.readouterr().err
    assert main(["simulate", "--strategies", ""]) == 2
    assert "at least one strategy is required" in capsys.readouterr().err
    # a repeated strategy would be reported twice and solved twice in every replication
    assert main(["simulate", "--replications", "2", "--strategies", "reduction,reduction"]) == 2
    assert "config error: strategies ['reduction'] given more than once" in capsys.readouterr().err


def test_cli_validates_the_model_once(tmp_path, capsys, monkeypatch):
    # the model checks itself when load_config builds it; nothing after re-runs validate_model
    import rulebounds.model as model_module

    calls = []
    validate = model_module.validate_model

    def counted(m):
        calls.append(m)
        return validate(m)

    # counted in every module that could hold it by name
    for module in (model_module, rulebounds.io):
        monkeypatch.setattr(module, "validate_model", counted, raising=False)
    cfg, data = write_config(tmp_path, query="cu"), write_data(tmp_path)
    for command in ("bounds", "compare"):
        calls.clear()
        assert main([command, "--config", cfg, "--data", data]) == 0
        assert len(calls) == 1, command
    capsys.readouterr()


def test_unwritable_report_paths_are_config_errors(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    data = write_data(tmp_path)
    (tmp_path / "file").write_text("a regular file")
    below_file = str(tmp_path / "file" / "r.json")
    for args in (
        ["bounds", "--config", cfg, "--data", data, "--output", below_file],
        ["bounds", "--config", cfg, "--data", data, "--stratum-csv", below_file],
        ["compare", "--config", cfg, "--data", data, "--output", below_file],
    ):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {below_file}: ")
    assert sorted(os.listdir(tmp_path)) == ["config.json", "data.csv", "file"]
    # simulate refuses the path before its first replication
    import rulebounds.simulation

    def never(config, index):
        raise AssertionError("a replication ran before the output path was checked")

    monkeypatch.setattr(rulebounds.simulation, "run_replication", never)
    assert main(["simulate", "--replications", "2", "--output", below_file]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {below_file}: ")


def test_unwritable_paths_are_refused_before_the_data_are_read(tmp_path, capsys, monkeypatch):
    # nothing is loaded, solved or printed before an unwritable report or stratum CSV path is refused
    import rulebounds.cli

    def never(path, config):
        raise AssertionError("the data were read before the output paths were checked")

    monkeypatch.setattr(rulebounds.cli, "load_table", never)
    cfg = write_config(tmp_path)
    data = write_data(tmp_path)
    (tmp_path / "file").write_text("a regular file")
    below_file = str(tmp_path / "file" / "out")
    for path in (below_file, str(tmp_path)):  # below a regular file, or a directory itself
        for args in (
            ["bounds", "--config", cfg, "--data", data, "--output", path],
            ["bounds", "--config", cfg, "--data", data, "--stratum-csv", path],
            ["bounds", "--config", cfg, "--data", data, "--output", str(tmp_path / "r.json"), "--stratum-csv", path],
            ["compare", "--config", cfg, "--data", data, "--output", path],
        ):
            assert main(args) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"config error: cannot write {path}: ")


def test_compare_command_runs_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path)
    data = write_data(tmp_path)
    out = tmp_path / "cmp.json"
    code = main(["compare", "--config", cfg, "--data", data, "--output", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "conditioning inside reduction: True" in printed
    doc = json.loads(out.read_text())
    cmp = doc["comparison"]
    assert cmp["containment_ok"] is True
    assert cmp["oracle"] is not None
    assert cmp["oracle_matches_conditioning"] is True


def _write_uniform_case(tmp_path, name, variables, rule, cells):
    """A config over ``variables`` and a CSV with one all-zero-outcome row per instrument arm of each of ``cells``.

    Every program is feasible: each arm sees treatment 0 and outcome 0.
    """
    names = [v["name"] for v in variables]
    lines = [",".join(names)]
    for z in range(variables[0]["cardinality"]):
        for cell in cells:
            lines.append(",".join(map(str, (z,) + cell + (0, 0))))
    data = tmp_path / f"{name}.csv"
    data.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, name=f"{name}.json", variables=variables, rule=rule, guideline=None)
    return cfg, str(data)


def test_program_size_not_class_count_decides_a_refusal(tmp_path, capsys):
    def var(name, card, role):
        return {"name": name, "cardinality": card, "role": role}

    # a 4-level extra covariate: 322,486,272 classes, yet a 145 × 360 reduction program
    variables = [var("z", 2, "instrument"), var("x", 3, "rule_covariate"), var("w", 4, "extra_covariate"),
                 var("a", 3, "treatment"), var("y", 2, "outcome")]
    cells = [(x, w) for x in range(3) for w in range(4)]
    cfg, data = _write_uniform_case(tmp_path, "extra", variables, {"0": 0, "1": 1, "2": 2}, cells)
    out = tmp_path / "extra-report.json"
    assert main(["bounds", "--config", cfg, "--data", data, "--output", str(out)]) == 0
    diagnostics = json.loads(out.read_text())["results"]["reduction"]["diagnostics"]
    assert diagnostics["class_count"] == 322_486_272
    assert (diagnostics["constraint_rows"], diagnostics["merged_columns"]) == (145, 360)

    # treatment 4 with an 8-arm instrument: 4,194,304 profiles are refused before they are built
    variables = [var("z", 8, "instrument"), var("x", 4, "rule_covariate"), var("a", 4, "treatment"),
                 var("y", 2, "outcome")]
    cfg, data = _write_uniform_case(tmp_path, "arms", variables, {str(x): x for x in range(4)}, [(x,) for x in range(4)])
    assert main(["bounds", "--config", cfg, "--data", data]) == 2
    err = capsys.readouterr().err
    assert "config error: the reduction program is too large: merging its 4,194,304 response profiles" in err
    assert "needs 536,870,912 bytes (512.0 MiB), over the budget of 268,435,456 bytes (256 MiB)" in err

    # covariates (10, 10, 10): the strategies run, and the oracle's 3.8 GiB tableau is noted, not built
    variables = [var("z", 2, "instrument")] + [var(f"x{i}", 10, "rule_covariate") for i in range(3)] + [
        var("a", 3, "treatment"), var("y", 2, "outcome")]
    rule = {f"{i},{j},{k}": i % 3 for i in range(10) for j in range(10) for k in range(10)}
    cfg, data = _write_uniform_case(tmp_path, "wide", variables, rule, [(0, 0, 0), (1, 2, 3)])
    out = tmp_path / "wide-report.json"
    assert main(["compare", "--config", cfg, "--data", data, "--output", str(out)]) == 0
    comparison = json.loads(out.read_text())["comparison"]
    assert comparison["oracle"] is None and comparison["oracle_matches_conditioning"] is None
    assert comparison["oracle_note"].startswith(
        "direct oracle skipped: the direct_oracle program is too large: "
        "the simplex tableau of its 12,001 rows × 30,000 columns needs 4,032,864,032 bytes"
    )
    assert f"oracle note: {comparison['oracle_note']}" in capsys.readouterr().out

    # 8-arm instruments with 400 and 240 cells per arm: their codes would overflow int64, yet each
    # program is refused by its tableau, as an oracle note under compare and exit 2 under bounds
    variables = [var("z", 8, "instrument"), var("x0", 10, "rule_covariate"), var("x1", 10, "rule_covariate"),
                 var("a", 2, "treatment"), var("y", 2, "outcome")]
    rule = {f"{i},{j}": i % 2 for i in range(10) for j in range(10)}
    cfg, data = _write_uniform_case(tmp_path, "wide8", variables, rule, [(0, 0), (1, 2)])
    out = tmp_path / "wide8-report.json"
    assert main(["compare", "--config", cfg, "--data", data, "--output", str(out)]) == 0
    comparison = json.loads(out.read_text())["comparison"]
    assert comparison["oracle"] is None and comparison["reduction"] and comparison["conditioning"]
    assert comparison["oracle_note"].startswith(
        "direct oracle skipped: the direct_oracle program is too large: "
        "the simplex tableau of its 3,201 rows × 102,000 columns needs "
    )
    capsys.readouterr()
    variables = [var("z", 8, "instrument"), var("x", 2, "rule_covariate"), var("w", 30, "extra_covariate"),
                 var("a", 2, "treatment"), var("y", 2, "outcome")]
    cells = [(x, w) for x in range(2) for w in range(30)]
    cfg, data = _write_uniform_case(tmp_path, "extra8", variables, {"0": 0, "1": 1}, cells)
    assert main(["bounds", "--config", cfg, "--data", data]) == 2
    assert (
        "config error: the reduction program is too large: the simplex tableau of its 1,921 rows × 61,200 columns"
        in capsys.readouterr().err
    )


def test_compare_refuses_a_config_stratum_csv(tmp_path, capsys):
    data = write_data(tmp_path)
    strata = tmp_path / "strata.csv"
    cfg = write_config(tmp_path, stratum_csv=str(strata))
    # the refusal comes before the data is read, and writes nothing
    assert main(["compare", "--config", cfg, "--data", str(tmp_path / "missing.csv")]) == 2
    assert "config error: compare writes no stratum CSV" in capsys.readouterr().err
    assert not strata.exists()
    # bounds writes it from the same config
    assert main(["bounds", "--config", cfg, "--data", data]) == 0
    assert strata.exists()


# ---------------------------------------------------------------------------
# the process entry: a fresh interpreter through ``cli.run``

PROCESS_ENTRIES = {
    "python -m": ["-m", "rulebounds.cli"],
    "script": ["-c", "import sys; from rulebounds.cli import run; sys.exit(run())"],  # as the installed script
}


def run_process(entry, argv):
    """Exit code, stdout and stderr of ``argv`` run by a fresh interpreter through ``entry``."""
    src = str(Path(rulebounds.io.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)  # buffered streams, so an exit that skips their flush loses output
    done = subprocess.run(
        [sys.executable, *PROCESS_ENTRIES[entry], *argv], env=env, capture_output=True, text=True, timeout=300
    )
    return done.returncode, done.stdout, done.stderr


def run_in_process(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``, counting argparse's own exit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def written(directory):
    """Each file in ``directory`` by name: a JSON report less its timestamp, any other file's bytes."""
    files = {path.name: path.read_bytes() for path in directory.iterdir()}
    for name in [name for name in files if name.endswith(".json")]:
        files[name] = json.loads(files[name])
        del files[name]["generated_at"]
    return files


@pytest.mark.parametrize("entry", PROCESS_ENTRIES)
def test_process_entry_prints_and_writes_what_main_does(tmp_path, capsys, entry):
    cfg = write_config(tmp_path)
    data = write_data(tmp_path)
    reports = tmp_path / "reports"
    for argv in (
        ["bounds", "--config", cfg, "--data", data, "--output", str(reports / "b.json"),
         "--stratum-csv", str(reports / "strata.csv")],
        ["compare", "--config", cfg, "--data", data, "--output", str(reports / "c.json")],
        ["bounds", "--config", cfg, "--data", data, "--query", "cu"],  # the report on stdout
    ):
        expected = run_in_process(capsys, argv)
        files = written(reports)
        code, stdout, stderr = run_process(entry, argv)
        assert (code, stderr) == (0, "") and expected[0::2] == (0, "")
        assert written(reports) == files
        if "--output" in argv:
            assert stdout == expected[1]
        else:
            (lines, doc), (expected_lines, expected_doc) = (
                (text[:text.index("{")], json.loads(text[text.index("{"):])) for text in (stdout, expected[1])
            )
            del doc["generated_at"], expected_doc["generated_at"]
            assert lines == expected_lines and doc == expected_doc
    assert not list(tmp_path.rglob(".rulebounds-*.tmp"))


@pytest.mark.parametrize("entry", PROCESS_ENTRIES)
def test_process_entry_keeps_exit_codes_and_error_texts(tmp_path, capsys, entry):
    cfg = write_config(tmp_path)
    data = write_data(tmp_path)
    out_of_range = tmp_path / "range.csv"
    out_of_range.write_text("z,x,a,y\n0,1,0,1\n0,9,0,1\n")
    contradiction = tmp_path / "contradiction.csv"
    contradiction.write_text("z,x,a,y\n" + "0,0,0,0\n1,0,0,0\n0,1,0,0\n1,1,0,1\n" * 25)
    out = str(tmp_path / "r.json")
    cases = [
        (2, ["bounds", "--config", str(tmp_path / "no.json"), "--data", data]),
        (2, ["compare", "--config", cfg, "--data", data, "--oracle-cap", "10"]),  # argparse's own exit
        (3, ["bounds", "--config", cfg, "--data", str(out_of_range), "--output", out]),
        (4, ["compare", "--config", cfg, "--data", str(contradiction), "--output", out]),
    ]
    for code, argv in cases:
        expected = run_in_process(capsys, argv)
        assert expected[0] == code and expected[2]
        assert run_process(entry, argv) == expected
    assert sorted(os.listdir(tmp_path)) == ["config.json", "contradiction.csv", "data.csv", "range.csv"]


def test_cli_phases_script_times_each_phase(tmp_path, capsys):
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("cli_phases", root / "scripts" / "cli_phases.py")
    phases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(phases)
    argv = ["bounds", "--config", write_config(tmp_path), "--data", write_data(tmp_path), "--output", str(tmp_path / "r.json")]
    assert phases.main(["-n", "2", "--"] + argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("(exit codes [0])")
    assert [line.split()[0] for line in lines[1:]] == ["start", "import", "main", "exit", "total"]
    assert json.loads((tmp_path / "r.json").read_text())["command"] == "bounds"


def test_parity_script_compares_two_source_trees(capsys):
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("parity", root / "scripts" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    # this checkout against itself: every command agrees
    assert parity.main(["--src", str(root / "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [
        [name, "exit", code]
        for name, code in (("bounds", "0"), ("compare", "0"), ("simulate", "0"), ("simulate-cu", "0"),
                           ("simulate-jobs2", "0"), ("exit-2", "2"), ("exit-3", "3"), ("exit-4", "4"),
                           ("zero-arm", "3"), ("zero-arm-cond", "3"), ("crlf", "0"))
    ]
    # endpoints 1e-9 apart are a difference that names its field; a skipped timestamp is not
    report = {"generated_at": "then", "results": {"conditioning": {"lower": -0.1, "upper": 0.25, "skipped": False}}}
    moved = json.loads(json.dumps(report))
    moved["generated_at"] = "now"
    moved["results"]["conditioning"]["lower"] += 1e-9
    largest, bad = parity.differences({"report.json": report}, {"report.json": moved})
    assert largest == pytest.approx(1e-9, rel=1e-6)
    assert len(bad) == 1 and bad[0].startswith("report.json.results.conditioning.lower: -0.1 against")
    moved["results"]["conditioning"]["lower"] = -0.1 + 1e-13
    assert parity.differences(report, moved)[1] == []
    assert parity.differences({"stderr": "a"}, {"stderr": "b"})[1] == ["stderr: 'a' against 'b'"]


def test_installed_script_runs_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"rulebounds": "rulebounds.cli:run"}


def test_readme_commands_parse():
    """Every concrete ``rulebounds`` command in README's sh blocks parses; every synopsis flag exists."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        # a trailing backslash, or an indented line opening with an option, continues a command
        block = re.sub(r"\n\s+(?=\[|--)", " ", block.replace("\\\n", "\n"))
        lines = (line.split("#")[0].strip() for line in block.splitlines())
        commands += [line for line in lines if line.startswith("rulebounds ")]
    assert len(commands) == 8
    for command in commands:
        argv = shlex.split(command)[1:]
        if "[" in command:  # a usage synopsis
            options = subcommands[argv[0]]._option_string_actions
            assert set(re.findall(r"--[a-z][a-z-]*", command)) <= set(options), command
        else:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}")


def test_readme_library_example_runs(monkeypatch, capsys):
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(root)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True True"
