"""Config files, CSV data loading, and report writing for the CLI.

Config files are JSON. Rule tables are keyed by comma-joined covariate
values in rule-covariate declaration order ("0,2": 1); single-covariate
models may use bare keys ("3": 1). Data files are CSV with a header row
and integer codes; the optional per-variable "column" field maps variable
names to differently named columns. Blank lines are skipped, and error
messages name rows by their line number in the file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from . import __version__
from .errors import ConfigError, DataError
from .model import ROLES, CausalModel, TreatmentRule, VariableSpec, validate_model
from .tables import JointTable, empirical_joint

VALID_QUERIES = ("theta_f", "theta_g", "cu")
VALID_STRATEGIES = ("reduction", "conditioning", "both")


@dataclass(frozen=True)
class AnalysisConfig:
    """A parsed analysis config: the model plus run options and paths."""

    model: CausalModel
    query: str
    strategy: str
    cap: int
    columns: dict                 # variable name -> CSV column name
    data_path: Optional[str]
    output_path: Optional[str]
    stratum_csv_path: Optional[str]
    source_path: Optional[str]


def _parse_rule_key(key: str, n_covariates: int) -> tuple:
    parts = [p.strip() for p in str(key).split(",")]
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"rule key {key!r} is not a comma-joined integer tuple") from None
    if len(values) != n_covariates:
        raise ConfigError(
            f"rule key {key!r} has {len(values)} values; model declares "
            f"{n_covariates} rule covariate(s)"
        )
    return values


def parse_rule(spec, n_covariates: int, default_name: str) -> TreatmentRule:
    """Accept either {"name":..., "table": {...}} or a bare table object."""
    if isinstance(spec, dict) and "table" in spec:
        name = spec.get("name", default_name)
        table = spec["table"]
    else:
        name = default_name
        table = spec
    if not isinstance(table, dict) or not table:
        raise ConfigError(f"rule {name!r}: table must be a non-empty object")
    items = {}
    for key, value in table.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"rule {name!r}: level for key {key!r} must be an integer")
        items[_parse_rule_key(key, n_covariates)] = value
    try:
        return TreatmentRule.from_table(items, name=name)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def load_config(path: str) -> AnalysisConfig:
    """Parse and validate a JSON analysis config; all defects raise ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    var_specs = raw.get("variables")
    if not isinstance(var_specs, list) or not var_specs:
        raise ConfigError("config must list model variables under 'variables'")
    variables = []
    columns = {}
    for i, entry in enumerate(var_specs):
        if not isinstance(entry, dict):
            raise ConfigError(f"variables[{i}] must be an object")
        missing = {"name", "cardinality", "role"} - set(entry)
        if missing:
            raise ConfigError(f"variables[{i}] is missing {sorted(missing)}")
        name = entry["name"]
        card = entry["cardinality"]
        role = entry["role"]
        if role not in ROLES:
            raise ConfigError(
                f"variables[{i}] ({name!r}): unknown role {role!r}; expected one of {sorted(ROLES)}"
            )
        if not isinstance(card, int) or isinstance(card, bool) or card < 1:
            raise ConfigError(f"variables[{i}] ({name!r}): cardinality must be a positive integer")
        try:
            variables.append(VariableSpec(name, card, role))
        except ValueError as err:
            raise ConfigError(str(err)) from None
        columns[name] = entry.get("column", name)

    n_x = sum(1 for v in variables if v.role == "rule_covariate")
    if "rule" not in raw:
        raise ConfigError("config must declare a 'rule'")
    rule = parse_rule(raw["rule"], n_x, "rule")
    guideline = None
    if raw.get("guideline") is not None:
        guideline = parse_rule(raw["guideline"], n_x, "guideline")

    model = CausalModel(tuple(variables), rule, guideline)
    problems = validate_model(model)
    if problems:
        raise ConfigError("invalid model: " + "; ".join(problems))

    query = raw.get("query", "theta_f")
    if query not in VALID_QUERIES:
        raise ConfigError(f"unknown query {query!r}; expected one of {VALID_QUERIES}")
    if query in ("theta_g", "cu") and guideline is None:
        raise ConfigError(f"query {query!r} needs a 'guideline'")
    strategy = raw.get("strategy", "both")
    if strategy not in VALID_STRATEGIES:
        raise ConfigError(
            f"unknown strategy {strategy!r}; expected one of {VALID_STRATEGIES}"
        )
    cap = raw.get("enumeration_cap", 10_000_000)
    if not isinstance(cap, int) or cap < 1:
        raise ConfigError("enumeration_cap must be a positive integer")

    return AnalysisConfig(
        model=model,
        query=query,
        strategy=strategy,
        cap=cap,
        columns=columns,
        data_path=raw.get("data"),
        output_path=raw.get("output"),
        stratum_csv_path=raw.get("stratum_csv"),
        source_path=path,
    )


def load_records(path: str, config: AnalysisConfig) -> tuple[np.ndarray, dict]:
    """Read integer-coded records for the model's variables from a CSV file.

    Returns the (n, n_vars) array in model variable order plus loading info
    (row count and per-variable value counts).
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"data file {path!r} is empty") from None
            header = [h.strip() for h in header]
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except OSError as err:
        raise DataError(f"cannot read data {path!r}: {err}") from None

    positions = []
    for v in config.model.variables:
        column = config.columns.get(v.name, v.name)
        if column not in header:
            raise DataError(
                f"data file {path!r} has no column {column!r} for variable {v.name!r}; "
                f"columns are {header}"
            )
        positions.append(header.index(column))

    records = np.empty((len(rows), len(positions)), dtype=np.int64)
    for r, row in enumerate(rows):
        for j, pos in enumerate(positions):
            if pos >= len(row):
                raise DataError(
                    f"row {_file_line(path, r)} of {path!r} has only {len(row)} fields"
                )
            cell = row[pos].strip()
            try:
                records[r, j] = int(cell)
            except ValueError:
                name = config.model.variables[j].name
                raise DataError(
                    f"row {_file_line(path, r)} of {path!r}: value {cell!r} for {name!r} "
                    "is not an integer"
                ) from None
    info = {
        "path": os.path.abspath(path),
        "sha256": file_sha256(path),
        "n_records": int(records.shape[0]),
        "value_counts": {
            v.name: {
                str(level): int((records[:, j] == level).sum()) for level in v.levels
            }
            for j, v in enumerate(config.model.variables)
        },
    }
    return records, info


def _file_line(path: str, index: int) -> int:
    """File line number of the ``index``-th non-blank data row; used only for errors."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        lines = (reader.line_num for row in reader if row and any(cell.strip() for cell in row))
        return next(islice(lines, index, None))


def empirical_table(records: np.ndarray, config: AnalysisConfig) -> JointTable:
    """Empirical joint over the model variables; domain violations raise DataError."""
    return empirical_joint(records, config.model.variables)


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def model_summary(model: CausalModel) -> dict:
    return {
        "variables": [
            {"name": v.name, "cardinality": v.cardinality, "role": v.role}
            for v in model.variables
        ],
        "rule": {",".join(map(str, k)): v for k, v in model.rule.items},
        "guideline": (
            {",".join(map(str, k)): v for k, v in model.guideline.items}
            if model.guideline
            else None
        ),
    }


def build_report(command: str, body: dict, timestamp: Optional[str] = None) -> dict:
    """Assemble the report envelope; the timestamp sits in one strippable field."""
    if timestamp is None:
        import datetime

        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    doc = {"command": command, "tool_version": __version__, "generated_at": timestamp}
    doc.update(body)
    return doc


def write_json(doc: dict, path: str) -> None:
    """Serialize first, then atomically replace the target; no partial files."""
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rulebounds-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_stratum_csv(strata: list, model: CausalModel, path: str) -> None:
    """Per-stratum weights and bounds as CSV, one row per stratum."""
    x_names = [v.name for v in model.rule_covariates]
    w_names = [v.name for v in model.extra_covariates]
    header = x_names + w_names + [
        "weight", "level", "guideline_level", "lower", "upper", "skipped",
    ]
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rulebounds-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for s in strata:
                row = list(s["x"]) + (list(s["w"]) if s["w"] is not None else [])
                row += [
                    repr(s["weight"]),
                    s["level"],
                    s["guideline_level"] if s["guideline_level"] is not None else "",
                    repr(s["lower"]) if s["lower"] is not None else "",
                    repr(s["upper"]) if s["upper"] is not None else "",
                    int(s["skipped"]),
                ]
                writer.writerow(row)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
