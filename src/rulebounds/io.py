"""Config files, CSV data loading, and report writing for the CLI.

Config files are JSON. Rule tables are keyed by comma-joined covariate
values in rule-covariate declaration order ("0,2": 1); single-covariate
models may use bare keys ("3": 1). Data files are UTF-8 CSV with a header
row and integer codes; the optional per-variable "column" field maps
variable names to differently named columns. Blank lines are skipped, and
error messages name rows by their line number in the file.

``load_table`` returns a file's empirical joint table, which is all the
CLI needs; ``load_records`` returns its records, one row of codes per
subject. Both run one fold over the file a block of rows at a time, which
checks each block's codes against their ranges and counts them into cells.
A byte tokenizer decodes plain integer files (digits, commas, and LF or
CRLF line ends only); at its first block outside that grammar,
``csv.reader`` reads the rows again from the start. So beyond the file's
bytes, memory follows one block for every file. Of several defects, the
first ``csv.Error`` is raised; else the first row that cannot be read;
else the first out-of-range row of the first variable in model order.
"""

from __future__ import annotations

import codecs
import csv
import errno
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
from .lp_bounds import require_guideline
from .model import CausalModel, TreatmentRule, VariableSpec, role_problem, rule_table
from .tables import JointTable

VALID_STRATEGIES = ("reduction", "conditioning", "both")
_CONFIG_KEYS = (
    "variables", "rule", "guideline", "query", "strategy", "data", "output", "stratum_csv",
)
_VARIABLE_KEYS = ("name", "cardinality", "role", "column")


@dataclass(frozen=True)
class AnalysisConfig:
    """A parsed analysis config: the model plus run options and paths."""

    model: CausalModel
    query: str
    strategy: str
    columns: dict                 # variable name -> CSV column name
    data_path: Optional[str]
    output_path: Optional[str]
    stratum_csv_path: Optional[str]
    source_path: Optional[str]

    def __post_init__(self):
        # also runs on every dataclasses.replace, so command-line overrides are checked too
        try:
            require_guideline(self.query, self.model.guideline is not None)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if self.strategy not in VALID_STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; expected one of {VALID_STRATEGIES}"
            )
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
    items = {_parse_rule_key(key, n_covariates): value for key, value in table.items()}
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
        if problem := role_problem(role):
            raise ConfigError(f"variables[{i}] ({name!r}): {problem}")
        try:
            variables.append(VariableSpec(name, card, role))
        except ValueError as err:
            raise ConfigError(f"variables[{i}]: {err}") from None
        column = entry.get("column", name)
        if not isinstance(column, str) or not column:
            raise ConfigError(f"variables[{i}] ({name!r}): column must be a non-empty string, got {column!r}")
        columns[name] = column

    n_x = sum(1 for v in variables if v.role == "rule_covariate")
    if "rule" not in raw:
        raise ConfigError("config must declare a 'rule'")
    rule = parse_rule(raw["rule"], n_x, "rule")
    guideline = None
    if raw.get("guideline") is not None:
        guideline = parse_rule(raw["guideline"], n_x, "guideline")

    try:
        model = CausalModel(tuple(variables), rule, guideline)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    readers = {}
    for name, column in columns.items():
        if column in readers:
            raise ConfigError(f"variables {readers[column]!r} and {name!r} both read column {column!r}")
        readers[column] = name

    return AnalysisConfig(
        model=model,
        query=raw.get("query", "theta_f"),
        strategy=raw.get("strategy", "both"),
        columns=columns,
        data_path=raw.get("data"),
        output_path=raw.get("output"),
        stratum_csv_path=raw.get("stratum_csv"),
        source_path=path,
    )


# Bytes of the plain grammar the tokenizer reads; anything else goes to csv.reader.
_PLAIN_BYTES = b"0123456789,\n"
_BLOCK_BYTES = 1 << 16
_MAX_DIGITS = 18  # every 18-digit code fits int64


def load_records(path: str, config: AnalysisConfig) -> tuple[np.ndarray, dict]:
    """Read integer-coded records for the model's variables from a CSV file.

    Returns the (n, n_vars) int64 array in model variable order and the
    loading info, read by ``load_table``'s fold with each block's codes
    kept: the same info, or the same ``DataError``, but a file with no
    rows gives zero records.
    """
    _, kept, info = _fold(path, config, keep=True)
    records = np.empty((info["n_records"], len(config.model.variables)), dtype=np.int64)
    for j, column in enumerate(zip(*kept)):
        np.concatenate(column, out=records[:, j])
    return records, info


def load_table(path: str, config: AnalysisConfig) -> tuple[JointTable, dict]:
    """The empirical joint of a CSV file's records over the model's variables, and the loading info.

    The info is the file's absolute path, the SHA-256 of its bytes, its row
    count and each variable's value counts. Each block of rows is folded
    straight into cell counts, so beyond the file's bytes memory follows
    one block, not the row count. The same table and info as
    ``tables.empirical_joint`` over ``load_records``, or the same error.
    """
    counts, _, info = _fold(path, config, keep=False)
    if not info["n_records"]:
        raise DataError("records are empty")
    return JointTable(config.model.variables, counts / info["n_records"]), info


def _fold(path: str, config: AnalysisConfig, keep: bool) -> tuple:
    """Cell counts of a data file's rows, shaped as the cells; each block's codes when ``keep``; the loading info.

    A code out of range is raised after the last row, for the first
    variable in model order that has one, at its first row.
    """
    data, reader, n_fields, positions, body = _open_data(path, config)
    variables = config.model.variables
    shape = tuple(v.cardinality for v in variables)
    for block in _blocks(path, data, reader, n_fields, positions, body, variables):
        if block is None:  # a pass over the rows begins: drop what an earlier one folded
            counts, kept, n, outside = np.zeros(int(np.prod(shape)), dtype=np.int64), [], 0, {}
            continue
        columns, lines, in_range = block
        for j, (column, v) in enumerate(zip(columns, variables)):
            if in_range or j in outside:
                continue
            bad = np.flatnonzero((column < 0) | (column >= v.cardinality))
            if bad.size:
                r = int(bad[0])
                line = _plain_line(data, body, n + r) if lines is None else lines[r]
                outside[j] = (
                    f"row {line} of {path!r}: value {column[r]} for {v.name!r} "
                    f"is outside range(0, {v.cardinality})"
                )
        n += len(columns[0])
        if outside:  # an error is certain: nothing more to count
            continue
        cells = columns[0].astype(np.intp)  # C-order cell index by Horner's rule
        for column, card in zip(columns[1:], shape[1:]):
            cells *= card
            cells += column
        counts += np.bincount(cells, minlength=counts.size)
        if keep:
            kept.append(columns)
    if outside:
        raise DataError(outside[min(outside)])
    counts = counts.reshape(shape)
    info = {"path": os.path.abspath(path), "sha256": hashlib.sha256(data).hexdigest(), "n_records": n}
    info["value_counts"] = {}
    for j, v in enumerate(variables):
        margin = counts.sum(axis=tuple(k for k in range(len(variables)) if k != j))
        info["value_counts"][v.name] = {str(level): int(margin[level]) for level in v.levels}
    return counts, kept, info


def _open_data(path: str, config: AnalysisConfig) -> tuple:
    """Read a data file and its header.

    Returns the file's bytes, its ``csv.reader`` past the header, the
    header's width, the model's column positions, and the first byte after
    the header when the tokenizer may read on from it, else None: it may
    when the header record is exactly the first line, ended by LF or CRLF.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise DataError(f"cannot read data {path!r}: {err}") from None
    checked = len(data) if data.isascii() else 0  # else a block at a time: no decoded copy of the file
    while checked < len(data):
        stop = checked + max(_BLOCK_BYTES, 4)  # a character cut at a block's end starts the next block
        try:
            checked += codecs.utf_8_decode(memoryview(data)[checked:stop], "strict", stop >= len(data))[1]
        except UnicodeDecodeError as err:
            bad = checked + err.start
            raise DataError(
                f"line {_line_of_offset(data, bad)} of {path!r}: byte "
                f"0x{data[bad]:02x} is not UTF-8; data files must be UTF-8"
            ) from None

    reader = _csv_reader(data)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"data file {path!r} is empty") from None
    except csv.Error as err:
        raise DataError(f"line {reader.line_num} of {path!r}: {err}") from None
    header = [h.strip() for h in header]
    body = data.find(b"\n") + 1 or len(data)
    # the header line's one CR, if any, is that of its CRLF line end
    if reader.line_num != 1 or data.find(b"\r", 0, body) not in (-1, data.find(b"\r\n", 0, body)):
        body = None
    return data, reader, len(header), _column_positions(path, header, config), body


def _blocks(path: str, data: bytes, reader, n_fields: int, positions: list, body: Optional[int], variables):
    """Each block of a data file's rows as ``(codes, lines, in_range)``, and a None before each pass over the rows.

    ``codes`` holds one array per model column, ``lines`` each row's file
    line (None from the tokenizer: ``_plain_line`` finds one), ``in_range``
    whether every code is known to lie inside its variable's range. The
    tokenizer reads from ``body``; at its first block outside the plain
    grammar, or when ``body`` is None, ``csv.reader`` reads the rows again
    from the start. The first row that cannot be read (too short, a
    non-integer, or outside int64) is raised after the last row, so that a
    ``csv.Error`` on a later line comes first.
    """
    if body is not None:
        yield None
        for columns, in_range in _plain_blocks(data, body, n_fields, positions, variables):
            if columns is None:
                break
            yield columns, None, in_range
        else:
            return
    yield None
    unreadable = None
    for rows, lines in _csv_records(path, reader, _BLOCK_BYTES // (2 * n_fields) + 1):  # rows of a one-digit block
        if unreadable is None:
            try:
                columns = [np.array([int(row[p].strip()) for row in rows], dtype=np.int64) for p in positions]
            except (IndexError, ValueError, OverflowError):
                unreadable = _unreadable(path, rows, lines, positions, variables)
            else:
                yield columns, lines, False
    if unreadable is not None:
        raise unreadable


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


def _csv_records(path: str, reader, size: int):
    """The non-blank rows ``reader`` has left, ``size`` at a time, and the file line each ends on; defects name it."""
    rows, lines = [], array("q")
    try:
        for row in reader:
            if any(map(str.strip, row)):
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == size:
                    yield rows, lines
                    rows.clear()  # so one block's rows are held at a time
                    lines = array("q")
    except csv.Error as err:  # a field over csv.field_size_limit(), for one
        raise DataError(f"line {reader.line_num} of {path!r}: {err}") from None
    if rows:
        yield rows, lines


def _unreadable(path: str, rows: list, lines: list, positions: list, variables) -> DataError:
    """The error for the first of ``rows`` that cannot be read, and its first such field in model order."""
    for row, line in zip(rows, lines):
        for pos, v in zip(positions, variables):
            if pos >= len(row):
                return DataError(f"row {line} of {path!r} has only {len(row)} fields")
            cell = row[pos].strip()
            try:
                value = int(cell)
            except ValueError:
                return DataError(f"row {line} of {path!r}: value {cell!r} for {v.name!r} is not an integer")
            if not -(1 << 63) <= value < 1 << 63:
                return DataError(
                    f"row {line} of {path!r}: value {value} for {v.name!r} is outside range(0, {v.cardinality})"
                )


def _plain_blocks(data: bytes, start: int, n_fields: int, positions: list, variables):
    """Decode ``data[start:]`` a block of whole lines at a time; the plain grammar's one decoder.

    Yields, per block, the integer codes of each non-blank row in the columns
    at ``positions``, one array per position, and whether every one of them
    is known to lie inside its variable's range; the codes are None for a
    block outside the grammar. The grammar: only ASCII digits, commas and LF,
    each CRLF read as LF, no field longer than ``csv.field_size_limit()``,
    and every row that holds a digit holding exactly ``n_fields - 1`` commas,
    with 1 to ``_MAX_DIGITS`` digits in each field at ``positions``; other
    rows are blank. Such rows split and convert exactly as ``csv.reader``
    and ``int`` do. Blocks bound the index arrays' memory.

    A block of whole LF lines with one digit in every field, each code at a
    position inside its variable's range, is read as a rows × ``2 * n_fields``
    byte matrix instead, its codes straight from the digit columns; the same
    records, chosen from the block's bytes alone.
    """
    # A fitting row less ``layout`` is below ``limit`` bytewise: a digit in even places (below the
    # variable's cardinality at a model position), its separator in odd ones. Both are tiled over the
    # longest one-digit block: _BLOCK_BYTES and the rest of its last row.
    width = 2 * n_fields
    layout = np.tile(np.array([ord("0"), ord(",")], dtype=np.uint8), n_fields)
    layout[-1] = ord("\n")
    limit = np.tile(np.array([10, 1], dtype=np.uint8), n_fields)
    for p, v in zip(positions, variables):
        limit[2 * p] = min(limit[2 * p], v.cardinality)
    rows = _BLOCK_BYTES // width + 2
    layout, limit = np.tile(layout, rows), np.tile(limit, rows)
    while start < len(data):
        stop = data.find(b"\n", start + _BLOCK_BYTES) + 1 or len(data)
        if data.find(b"\r", start, stop) == -1:
            b = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
        else:  # CRLF line ends read as LF; a lone CR stays, outside the grammar
            b = np.frombuffer(data[start:stop].replace(b"\r\n", b"\n"), dtype=np.uint8)
        start = stop
        if b.size % width == 0 and b.size <= layout.size:
            codes = b - layout[:b.size]  # uint8, so any other byte wraps to at least its limit
            if (codes < limit[:b.size]).all():
                yield [codes[2 * p::width] for p in positions], True
                continue
        if b.tobytes().translate(None, _PLAIN_BYTES):
            yield None, False
        else:
            yield _plain_block(b, n_fields, positions), False


def _plain_block(b: np.ndarray, n_fields: int, positions: list) -> Optional[list]:
    """The codes of the non-blank lines of a block of plain bytes, one array per position, or None."""
    is_newline = b == ord("\n")
    # field i spans bytes bounds[i] + 1 .. bounds[i + 1] - 1, ended by a comma, newline or block end
    bounds = np.concatenate(([-1], np.flatnonzero(is_newline | (b == ord(","))), [b.size]))
    width = np.diff(bounds) - 1
    if width.max() >= csv.field_size_limit():
        return None
    # line i holds fields line_first[i] .. line_first[i + 1] - 1; after a final LF, one empty line
    line_first = np.concatenate(([0], np.flatnonzero(is_newline[bounds[1:-1]]) + 1, [width.size]))
    fields = np.diff(line_first)
    # a line spans its digits plus one byte per field, so it holds a digit when it spans more
    filled = bounds[line_first[1:]] - bounds[line_first[:-1]] > fields
    rows = line_first[:-1][filled]
    if np.any(fields[filled] != n_fields):
        return None
    if not rows.size:
        return [rows] * len(positions)
    columns = []
    for p in positions:
        field = rows + p
        first, digits = bounds[field] + 1, width[field]
        shortest, longest = int(digits.min()), int(digits.max())
        if shortest < 1 or longest > _MAX_DIGITS:
            return None
        value = b[first].astype(np.int64) - ord("0")
        for k in range(1, longest):
            step = value * 10 + (b[np.minimum(first + k, first + digits - 1)] - ord("0"))
            value = step if k < shortest else np.where(k < digits, step, value)
        columns.append(value)
    return columns


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


def _unwritable(path: str, err: OSError) -> ConfigError:
    """The ConfigError for an ``OSError`` met writing ``path``: the path, the reason and the file it names."""
    where = f" ({err.filename})" if err.filename else ""
    return ConfigError(f"cannot write {path}: {err.strerror or err}{where}")


def make_output_dir(path: str) -> str:
    """Create the directory ``path`` will be written in.

    A directory that cannot be made (say, below a file), or a ``path`` that
    is itself a directory, is a ConfigError.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as err:
        raise _unwritable(path, err) from err
    return directory


def _replace_atomically(path: str, write, newline=None) -> None:
    """Run ``write(fh)`` on a temp file beside ``path``, then rename it over ``path``; no partial files.

    An ``OSError`` on the way (a directory below a file, ``path`` itself a
    directory, no permission) is raised as a ``ConfigError`` naming ``path``.
    """
    directory = make_output_dir(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rulebounds-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as err:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError):
            raise _unwritable(path, err) from err
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
