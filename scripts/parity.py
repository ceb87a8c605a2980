"""Check that two source trees give the same ``rulebounds`` outputs, field by field.

Runs a fixed set of command lines in fresh processes, once with
``PYTHONPATH`` set to this checkout's ``src`` and once to ``--src``, and
compares each pair of runs:

  bounds          ``bounds --stratum-csv`` on ``configs/example.json``
  compare         ``compare`` on ``configs/example.json``
  simulate        ``simulate --replications 200``, the default study
  simulate-cu     the same, query ``cu`` against a never-treat guideline
  simulate-jobs2  ``--jobs 2`` on the default study: the config and its observed model pickled into pool workers
  exit-2          ``bounds`` on ``configs/example.json`` with its rule's key ``"2"`` removed
  exit-3          ``bounds`` on a CSV with an out-of-range code
  exit-4          conditioning alone on a CSV no instrumented model can give
  zero-arm        ``bounds`` on the example data without its ``z=1`` rows
  zero-arm-cond   the same with ``--strategy conditioning``
  crlf            ``bounds --stratum-csv`` on the example data with CRLF line ends, which the tokenizer reads as LF

Exit codes, stderr and stdout must be equal; JSON reports and stratum CSVs
are compared field by field, numbers within ``TOL`` and everything else
exactly. ``generated_at``, the elapsed-time line and the run's own paths
are left out. Prints the largest numeric difference per command and every
field beyond tolerance; exits 1 if there is one.

    python scripts/parity.py --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-12
SKIPPED_KEYS = {"generated_at"}
ELAPSED = re.compile(r"^\s*elapsed: .*$\n?", re.MULTILINE)
NEVER_TREAT = {"guideline": {"name": "never_treat", "table": {str(x): 0 for x in range(6)}}}


def write_inputs(inputs: Path) -> None:
    """Every input the commands read beyond the checkout.

    The never-treat study config, ``configs/example.json`` for conditioning
    alone and without its rule key ``"2"``, three failing CSVs, and the
    example data with CRLF line ends.
    """
    (inputs / "never_treat.json").write_text(json.dumps(NEVER_TREAT))
    example = json.loads((ROOT / "configs" / "example.json").read_text())
    (inputs / "conditioning.json").write_text(json.dumps({**example, "strategy": "conditioning"}))
    # covariate cell x=2 gets no level: an invalid model, refused as the config is read
    table = {k: v for k, v in example["rule"]["table"].items() if k != "2"}
    (inputs / "missing_key.json").write_text(json.dumps({**example, "rule": {**example["rule"], "table": table}}))
    (inputs / "bad_code.csv").write_text("z,x,a,y\n0,0,0,0\n1,7,0,1\n")
    # in every stratum arm 0 gives a=0, y=0 and arm 1 gives a=0, y=1: no response type does both, so the
    # first stratum, x=0, where the rule and the guideline agree, is the one reported
    rows = [f"{z},{x},0,{z}\n" for x in range(3) for z in range(2) for _ in range(10)]
    (inputs / "infeasible.csv").write_text("z,x,a,y\n" + "".join(rows))
    # instrument arm z=1 has no rows, so neither the reduced table nor any stratum can be conditioned on it
    lines = (ROOT / "data" / "example_observed.csv").read_text().splitlines(keepends=True)
    (inputs / "zero_arm.csv").write_text(lines[0] + "".join(line for line in lines[1:] if line.startswith("0,")))
    lf = (ROOT / "data" / "example_observed.csv").read_bytes().replace(b"\r\n", b"\n")
    (inputs / "crlf.csv").write_bytes(lf.replace(b"\n", b"\r\n"))


def commands(inputs: Path) -> dict:
    """Each command's name and argv; ``{out}`` stands for the run's own output directory."""
    example = str(ROOT / "configs" / "example.json")
    report = ["--output", "{out}/report.json"]
    return {
        "bounds": ["bounds", "--config", example, "--stratum-csv", "{out}/strata.csv"] + report,
        "compare": ["compare", "--config", example] + report,
        "simulate": ["simulate", "--replications", "200"] + report,
        "simulate-cu": ["simulate", "--replications", "200", "--config", str(inputs / "never_treat.json"),
                        "--query", "cu"] + report,
        "simulate-jobs2": ["simulate", "--replications", "200", "--jobs", "2"] + report,
        "exit-2": ["bounds", "--config", str(inputs / "missing_key.json")] + report,
        "exit-3": ["bounds", "--config", example, "--data", str(inputs / "bad_code.csv")] + report,
        "exit-4": ["bounds", "--config", str(inputs / "conditioning.json"), "--data", str(inputs / "infeasible.csv")]
        + report,
        "zero-arm": ["bounds", "--config", example, "--data", str(inputs / "zero_arm.csv")] + report,
        "zero-arm-cond": ["bounds", "--config", example, "--data", str(inputs / "zero_arm.csv"),
                          "--strategy", "conditioning"] + report,
        "crlf": ["bounds", "--config", example, "--data", str(inputs / "crlf.csv"), "--stratum-csv", "{out}/strata.csv"]
        + report,
    }


def _number(text: str):
    """A CSV field as a float when it reads as one, else the text."""
    try:
        return float(text)
    except ValueError:
        return text


def run(src: str, argv: list, out: Path) -> dict:
    """One fresh process of ``rulebounds argv`` importing from ``src``: its exit code, streams and files."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=src)
    argv = [a.replace("{out}", str(out)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "rulebounds.cli"] + argv, cwd=ROOT, env=env, capture_output=True, text=True
    )
    result = {
        "exit code": proc.returncode,
        "stdout": ELAPSED.sub("", proc.stdout).replace(str(out), "<out>"),
        "stderr": proc.stderr.replace(str(out), "<out>"),
    }
    for path in sorted(out.iterdir()):
        with open(path, newline="", encoding="utf-8") as fh:
            if path.suffix == ".json":
                result[path.name] = json.load(fh)
            else:
                result[path.name] = [[_number(field) for field in row] for row in csv.reader(fh)]
    return result


def differences(a, b, where: str = "") -> tuple:
    """``(largest numeric difference, fields that differ beyond TOL)`` between two parsed outputs."""
    if isinstance(a, dict) and isinstance(b, dict):
        largest, bad = 0.0, []
        for key in sorted(set(a) | set(b), key=str):
            if key in SKIPPED_KEYS:
                continue
            field = f"{where}.{key}" if where else str(key)
            if key not in a or key not in b:
                bad.append(f"{field}: only in {'the other' if key in b else 'this'} tree's output")
                continue
            d, sub = differences(a[key], b[key], field)
            largest, bad = max(largest, d), bad + sub
        return largest, bad
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return 0.0, [f"{where}: {len(a)} entries against {len(b)}"]
        largest, bad = 0.0, []
        for i, (x, y) in enumerate(zip(a, b)):
            d, sub = differences(x, y, f"{where}[{i}]")
            largest, bad = max(largest, d), bad + sub
        return largest, bad
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if numbers and math.isfinite(a) and math.isfinite(b):
        d = abs(a - b)
        return d, ([f"{where}: {a!r} against {b!r} (difference {d:.3g})"] if d > TOL else [])
    return 0.0, ([] if a == b and type(a) is type(b) else [f"{where}: {a!r} against {b!r}"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the other source tree to import rulebounds from")
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        write_inputs(tmp / "inputs")
        for name, command in commands(tmp / "inputs").items():
            ours = run(str(ROOT / "src"), command, tmp / "this" / name)
            theirs = run(str(Path(args.src).resolve()), command, tmp / "other" / name)
            largest, bad = differences(ours, theirs)
            print(f"{name:14s} exit {ours['exit code']}  largest difference {largest:.3g}")
            for line in bad:
                print(f"  differs: {line}")
            failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
