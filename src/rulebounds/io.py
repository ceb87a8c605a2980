"""Config files, CSV data loading, and report writing for the CLI.

Config files are JSON. Rule tables are keyed by comma-joined covariate
values in rule-covariate declaration order ("0,2": 1); single-covariate
models may use bare keys ("3": 1). Data files are UTF-8 CSV with a header
row and integer codes; the optional per-variable "column" field maps
variable names to differently named columns. Blank lines are skipped, and
error messages name rows by their line number in the file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .errors import ConfigError, DataError
from .lp_bounds import DEFAULT_CAP, QUERIES, require_guideline
from .model import ROLES, CausalModel, TreatmentRule, VariableSpec, rule_table, validate_model

VALID_STRATEGIES = ("reduction", "conditioning", "both")
_CONFIG_KEYS = (
    "variables", "rule", "guideline", "query", "strategy", "enumeration_cap", "data", "output", "stratum_csv",
)
_VARIABLE_KEYS = ("name", "cardinality", "role", "column")


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

    def __post_init__(self):
        # also runs on every dataclasses.replace, so command-line overrides are checked too
        if not isinstance(self.query, str) or self.query not in QUERIES:
            raise ConfigError(f"unknown query {self.query!r}; expected one of {tuple(QUERIES)}")
        try:
            require_guideline(self.query, self.model.guideline is not None)
        except ValueError:
            raise ConfigError(f"query {self.query!r} needs a 'guideline'") from None
        if self.strategy not in VALID_STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; expected one of {VALID_STRATEGIES}"
            )
        if not isinstance(self.cap, int) or isinstance(self.cap, bool) or self.cap < 1:
            raise ConfigError(f"enumeration_cap must be a positive integer, got {self.cap!r}")
        for key, path in (
            ("data", self.data_path),
            ("output", self.output_path),
            ("stratum_csv", self.stratum_csv_path),
        ):
            if path is not None and not isinstance(path, str):
                raise ConfigError(f"'{key}' must be a file path string, got {path!r}")


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
    """Accept either {"name":..., "table": {...}} or a bare table object; ``model.rule_table`` inverts it."""
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


def read_config_json(path: str):
    """Parsed JSON of a config file; unreadable or malformed files raise ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from None


def load_config(path: str) -> AnalysisConfig:
    """Parse and validate a JSON analysis config; all defects raise ConfigError."""
    raw = read_config_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}; expected some of {list(_CONFIG_KEYS)}")

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
        unknown = set(entry) - set(_VARIABLE_KEYS)
        if unknown:
            raise ConfigError(
                f"variables[{i}] ({name!r}): unknown keys {sorted(unknown)}; "
                f"expected some of {list(_VARIABLE_KEYS)}"
            )
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

    return AnalysisConfig(
        model=model,
        query=raw.get("query", "theta_f"),
        strategy=raw.get("strategy", "both"),
        cap=raw.get("enumeration_cap", DEFAULT_CAP),
        columns=columns,
        data_path=raw.get("data"),
        output_path=raw.get("output"),
        stratum_csv_path=raw.get("stratum_csv"),
        source_path=path,
    )


# Bytes of the plain grammar the tokenizer reads; anything else goes to csv.reader.
_PLAIN_BYTES = b"0123456789,\n"
_BLOCK_BYTES = 1 << 20
_MAX_DIGITS = 18  # every 18-digit code fits int64


def load_records(path: str, config: AnalysisConfig) -> tuple[np.ndarray, dict]:
    """Read integer-coded records for the model's variables from a CSV file.

    Returns the (n, n_vars) array in model variable order plus loading info
    (path, SHA-256 of the bytes read, row count and per-variable value
    counts). The file is read once, as bytes, and must be UTF-8. The header
    is parsed with ``csv.reader``. Data rows of plain integer CSV (ASCII
    digits, commas and LF line ends only, one field per header column) are
    decoded by a vectorised tokenizer; any other file, CRLF or spaced for
    example, goes through ``csv.reader`` row by row, which also words every
    row-level error. Both give the same records.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise DataError(f"cannot read data {path!r}: {err}") from None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise DataError(
                f"line {_line_of_offset(data, err.start)} of {path!r}: byte "
                f"0x{data[err.start]:02x} is not UTF-8; data files must be UTF-8"
            ) from None

    reader = _csv_reader(data)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"data file {path!r} is empty") from None
    except csv.Error as err:
        raise DataError(f"line {reader.line_num} of {path!r}: {err}") from None
    header = [h.strip() for h in header]
    positions = _column_positions(path, header, config)

    records = lines = None
    body = data.find(b"\n") + 1 or len(data)
    # the tokenizer takes over when the header record is exactly the first line
    if reader.line_num == 1 and data.find(b"\r", 0, body) == -1:
        records = _plain_records(data, body, len(header), positions)
    if records is None:
        records, lines = _csv_records(path, reader, positions, config)

    value_counts = {}
    for j, v in enumerate(config.model.variables):
        column = records[:, j]
        outside = (column < 0) | (column >= v.cardinality)
        if outside.any():
            r = int(np.flatnonzero(outside)[0])
            line = _plain_line(data, body, r) if lines is None else lines[r]
            raise DataError(
                f"row {line} of {path!r}: value {column[r]} for {v.name!r} "
                f"is outside range(0, {v.cardinality})"
            )
        counts = np.bincount(column, minlength=v.cardinality)
        value_counts[v.name] = {str(level): int(counts[level]) for level in v.levels}
    info = {
        "path": os.path.abspath(path),
        "sha256": hashlib.sha256(data).hexdigest(),
        "n_records": int(records.shape[0]),
        "value_counts": value_counts,
    }
    return records, info


def _column_positions(path: str, header: list, config: AnalysisConfig) -> list:
    """Header index of each model variable's column, in model variable order."""
    positions = []
    for v in config.model.variables:
        column = config.columns.get(v.name, v.name)
        if column not in header:
            raise DataError(
                f"data file {path!r} has no column {column!r} for variable {v.name!r}; "
                f"columns are {header}"
            )
        if header.count(column) > 1:
            raise DataError(
                f"data file {path!r} names column {column!r} for variable {v.name!r} "
                f"{header.count(column)} times; its header is {header}"
            )
        positions.append(header.index(column))
    return positions


def _csv_reader(data: bytes):
    """``csv.reader`` over UTF-8 ``data``, splitting lines as a file opened with newline=''."""
    from io import BytesIO, TextIOWrapper

    return csv.reader(TextIOWrapper(BytesIO(data), encoding="utf-8", newline=""))


def _csv_records(path: str, reader, positions: list, config: AnalysisConfig) -> tuple:
    """Records of the rows ``reader`` has left, cell by cell, and the file line each ends on; defects name it."""
    rows, lines = [], array("q")
    try:
        for row in reader:
            if row and any(cell.strip() for cell in row):
                rows.append(row)
                lines.append(reader.line_num)
    except csv.Error as err:  # a field over csv.field_size_limit(), for one
        raise DataError(f"line {reader.line_num} of {path!r}: {err}") from None
    records = np.empty((len(rows), len(positions)), dtype=np.int64)
    for r, row in enumerate(rows):
        for j, pos in enumerate(positions):
            if pos >= len(row):
                raise DataError(
                    f"row {lines[r]} of {path!r} has only {len(row)} fields"
                )
            cell = row[pos].strip()
            try:
                records[r, j] = int(cell)
            except ValueError:
                name = config.model.variables[j].name
                raise DataError(
                    f"row {lines[r]} of {path!r}: value {cell!r} for {name!r} "
                    "is not an integer"
                ) from None
            except OverflowError:  # an integer too large for int64
                v = config.model.variables[j]
                raise DataError(
                    f"row {lines[r]} of {path!r}: value {int(cell)} for {v.name!r} "
                    f"is outside range(0, {v.cardinality})"
                ) from None
    return records, lines


def _plain_records(data: bytes, start: int, n_fields: int, positions: list) -> Optional[np.ndarray]:
    """Records of the rows in ``data[start:]``, or None when they fall outside the plain grammar.

    The grammar: only ASCII digits, commas and LF, no field longer than
    ``csv.field_size_limit()``, and every row that holds a digit holding
    exactly ``n_fields - 1`` commas, with 1 to ``_MAX_DIGITS`` digits in each
    field at ``positions``; other rows are blank. Such rows split and
    convert exactly as ``csv.reader`` and ``int`` do. Blocks of whole lines
    bound the index arrays' memory.
    """
    out = np.empty((data.count(b"\n", start) + 1, len(positions)), dtype=np.int64, order="F")
    n = 0
    while start < len(data):
        stop = data.find(b"\n", start + _BLOCK_BYTES) + 1 or len(data)
        chunk = data[start:stop]
        start = stop
        if chunk.translate(None, _PLAIN_BYTES):
            return None
        rows = _plain_block(np.frombuffer(chunk, dtype=np.uint8), n_fields, positions, out[n:])
        if rows is None:
            return None
        n += rows
    return out[:n]


def _plain_block(b: np.ndarray, n_fields: int, positions: list, out: np.ndarray) -> Optional[int]:
    """Decode the non-blank lines of a block of plain bytes into ``out``; the row count, or None."""
    is_newline = b == ord("\n")
    # field i spans bytes bounds[i] + 1 .. bounds[i + 1] - 1, ended by a comma, newline or block end
    bounds = np.concatenate(([-1], np.flatnonzero(is_newline | (b == ord(","))), [b.size]))
    if np.diff(bounds).max() > csv.field_size_limit():
        return None
    line_first = np.concatenate(([0], np.flatnonzero(is_newline[bounds[1:-1]]) + 1))
    line_commas = np.diff(line_first, append=len(bounds) - 1) - 1
    if b[-1] == ord("\n"):  # the empty line after the last newline
        line_first, line_commas = line_first[:-1], line_commas[:-1]
    filled = np.logical_or.reduceat(b >= ord("0"), bounds[line_first] + 1)  # holds a digit
    rows = line_first[filled]
    if np.any(line_commas[filled] != n_fields - 1):
        return None
    if not rows.size:
        return 0
    for j, p in enumerate(positions):
        first, end = bounds[rows + p] + 1, bounds[rows + p + 1]
        digits = end - first
        shortest, longest = int(digits.min()), int(digits.max())
        if shortest < 1 or longest > _MAX_DIGITS:
            return None
        value = np.zeros(len(rows), dtype=np.int64)
        for k in range(longest):
            step = value * 10 + (b[np.minimum(first + k, end - 1)] - ord("0"))
            value = step if k < shortest else np.where(k < digits, step, value)
        out[:len(rows), j] = value
    return len(rows)


def _line_of_offset(data: bytes, offset: int) -> int:
    """File line of byte ``offset``, counting LF, CRLF and lone CR as line ends like csv.reader."""
    head = data[:offset]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def _plain_line(data: bytes, start: int, index: int) -> int:
    """File line number of the ``index``-th row the tokenizer read from ``data[start:]``.

    ``start`` is the first byte after the one-line header, and a row is an
    LF line holding a digit, as in ``_plain_block``; used only for errors.
    """
    b = np.frombuffer(data, dtype=np.uint8, offset=start)
    line_first = np.concatenate(([0], np.flatnonzero(b == ord("\n")) + 1))
    filled = np.logical_or.reduceat(b >= ord("0"), line_first[line_first < b.size])
    return int(np.flatnonzero(filled)[index]) + 2


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
        "rule": rule_table(model.rule),
        "guideline": rule_table(model.guideline),
    }


def build_report(command: str, body: dict, timestamp: Optional[str] = None) -> dict:
    """Assemble the report envelope; the timestamp sits in one strippable field."""
    if timestamp is None:
        import datetime

        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    doc = {"command": command, "tool_version": __version__, "generated_at": timestamp}
    doc.update(body)
    return doc


def _replace_atomically(path: str, write, newline=None) -> None:
    """Run ``write(fh)`` on a temp file beside ``path``, then rename it over ``path``; no partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rulebounds-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(doc: dict, path: str) -> None:
    """Serialize first, then atomically replace the target."""
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _replace_atomically(path, lambda fh: fh.write(payload))


def write_stratum_csv(strata: list, model: CausalModel, path: str) -> None:
    """Per-stratum weights and bounds as CSV, one row per stratum."""
    x_names = [v.name for v in model.rule_covariates]
    w_names = [v.name for v in model.extra_covariates]
    header = x_names + w_names + [
        "weight", "level", "guideline_level", "lower", "upper", "skipped",
    ]

    def write(fh):
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

    _replace_atomically(path, write, newline="")
