"""Turn a per-participant trial export into the integer-coded CSV this
package analyzes.

Discretization is deliberately the user's job, not the analysis tool's, so
the cutpoints live here where they can be inspected and changed. The
output has one row per participant with complete data and five columns:

    arm   randomized assignment (0 avoidance, 1 consumption)
    spt   baseline skin-prick test (0 negative, 1 positive)
    a2    weekly protein intake above 0.2 g (0 no, 1 yes)
    a3    weekly protein intake in (-inf, 0.2], (0.2, 6], (6, inf) -> 0, 1, 2
    y     allergic at the final assessment (0 no, 1 yes)

configs/leap_f1.json reads the binary intake column, configs/leap_f2.json
the three-level one. Rows missing any required field are dropped and
counted; that complete-case handling is an analysis choice made here, in
the open, not inside the bounding code.

The input is whatever CSV the trial repository hands out, so the column
names are flags. Values are interpreted leniently: yes/no style text,
0/1 codes, or raw numbers (grams per week for intake, wheal size in mm
for the skin-prick test, where any positive size counts as positive).
"""

import argparse
import csv
import os
import sys
from collections import Counter

TRUTHY = {"1", "y", "yes", "true", "allergic", "fail", "failed", "positive", "pos"}
FALSY = {"0", "n", "no", "false", "tolerant", "pass", "passed", "negative", "neg"}


def parse_binary(raw):
    text = raw.strip().lower()
    if not text:
        return None
    if text in TRUTHY:
        return 1
    if text in FALSY:
        return 0
    try:
        value = float(text)
    except ValueError:
        return None
    return 1 if value > 0 else 0


def parse_arm(raw):
    text = raw.strip().lower()
    if not text:
        return None
    if "avoid" in text:
        return 0
    if "consum" in text or "peanut" in text:
        return 1
    if text in ("0", "1"):
        return int(text)
    return None


def parse_grams(raw):
    text = raw.strip()
    if not text:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True, help="per-participant trial CSV")
    parser.add_argument("--output", default="data/leap/leap_observed.csv")
    parser.add_argument("--arm-col", default="arm")
    parser.add_argument("--spt-col", default="spt")
    parser.add_argument("--consumption-col", default="peanut_grams_weekly",
                        help="mean weekly peanut protein intake in grams")
    parser.add_argument("--outcome-col", default="allergic")
    parser.add_argument("--low-cut", type=float, default=0.2,
                        help="grams per week separating none from some intake")
    parser.add_argument("--high-cut", type=float, default=6.0,
                        help="grams per week separating some from high intake")
    args = parser.parse_args(argv)

    with open(args.input, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        fieldnames = reader.fieldnames or []
        required = [args.arm_col, args.spt_col, args.consumption_col, args.outcome_col]
        missing = [c for c in required if c not in fieldnames]
        if missing:
            print(f"input lacks columns {missing}; found {fieldnames}", file=sys.stderr)
            return 1
        rows = list(reader)

    kept = []
    dropped = Counter()
    for row in rows:
        arm = parse_arm(row[args.arm_col])
        spt = parse_binary(row[args.spt_col])
        grams = parse_grams(row[args.consumption_col])
        outcome = parse_binary(row[args.outcome_col])
        if arm is None:
            dropped["arm"] += 1
        elif spt is None:
            dropped["skin-prick"] += 1
        elif grams is None:
            dropped["consumption"] += 1
        elif outcome is None:
            dropped["outcome"] += 1
        else:
            a3 = 0 if grams <= args.low_cut else (1 if grams <= args.high_cut else 2)
            kept.append([arm, spt, int(a3 > 0), a3, outcome])

    directory = os.path.dirname(os.path.abspath(args.output))
    os.makedirs(directory, exist_ok=True)
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # LF lines, so rulebounds reads them with its tokenizer
        writer.writerow(["arm", "spt", "a2", "a3", "y"])
        writer.writerows(kept)

    print(f"kept {len(kept)} of {len(rows)} rows -> {args.output}")
    if dropped:
        for reason, count in sorted(dropped.items()):
            print(f"  dropped {count} rows: missing or unparseable {reason}")
        print("  complete-case filtering ignores why data are missing; "
              "interpret downstream bounds accordingly")
    for label, column in (("arm", 0), ("spt", 1), ("a3", 3), ("y", 4)):
        counts = Counter(r[column] for r in kept)
        print(f"  {label}: " + ", ".join(f"{v}={counts[v]}" for v in sorted(counts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
