#!/usr/bin/env python3
"""Compare a fresh modb-bench-v1 JSON dump against a committed baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json \
        [--tolerance PCT] [--table-tolerance NAME=PCT ...] [--out DIFF.md]
    check_bench_regression.py BASELINE.json FRESH.json \
        --exact COLUMN [--exact COLUMN ...] [--out DIFF.md]

Tables are matched by name, rows by their first column (the independent
variable: N, mean_gap, ...).

Timing mode (no --exact): only time-like columns are compared — headers
containing "time", "ms", "us", "sec" or "throughput" — against a percent
tolerance. Throughput columns regress downward; everything else regresses
upward. Baseline tables and rows missing from the fresh run are listed in
the report but do not fail the check. The CI step runs this mode
non-blocking (continue-on-error) and uploads --out as an artifact: bench
timings on shared runners are weather, not verdicts, but the diff makes a
real regression visible the day it lands.

Exact mode (--exact COLUMN, repeatable): only the listed columns are
compared, and each must print identically to the baseline at full double
precision (%.17g). Event counts such as m_per_update are deterministic, so
any difference is a behaviour change, not noise. A baseline table or row
missing from the fresh run fails too. CI runs this mode as a blocking step.

Exit codes: 0 = clean, 1 = timing regression past tolerance or an exact
mismatch / missing table or row in exact mode, 2 = bad invocation or
unreadable input (including an --exact column no baseline table has).

Stdlib only; do not add dependencies.
"""

import argparse
import json
import sys

TIME_MARKERS = ("time", "_ms", "_us", "us_", "sec", "micros")
THROUGHPUT_MARKERS = ("throughput", "per_sec", "ops")


def classify(header):
    """Returns 'time', 'throughput', or None (not compared)."""
    name = header.lower()
    if any(marker in name for marker in THROUGHPUT_MARKERS):
        return "throughput"
    if any(marker in name for marker in TIME_MARKERS):
        return "time"
    return None


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "modb-bench-v1":
        print(f"error: {path} is not a modb-bench-v1 document",
              file=sys.stderr)
        sys.exit(2)
    return doc


def index_tables(doc):
    return {table["name"]: table for table in doc.get("tables", [])}


def matched_rows(baseline, fresh, missing):
    """Yields (table, headers, base_row, fresh_row) for every baseline row
    the fresh run also has; appends what it lacks to `missing`."""
    fresh_tables = index_tables(fresh)
    for name, base_table in index_tables(baseline).items():
        fresh_table = fresh_tables.get(name)
        if fresh_table is None:
            missing.append(f"table {name}")
            continue
        headers = base_table.get("headers", [])
        fresh_rows = {row[0]: row for row in fresh_table.get("rows", [])
                      if row}
        for base_row in base_table.get("rows", []):
            if not base_row:
                continue
            fresh_row = fresh_rows.get(base_row[0])
            if fresh_row is None:
                missing.append(f"table {name}, row {base_row[0]}")
                continue
            yield name, headers, base_row, fresh_row


def compare(rows, default_tol, table_tols):
    """Yields (table, row_key, column, base, new, delta_pct, regressed)."""
    for name, headers, base_row, fresh_row in rows:
        tolerance = table_tols.get(name, default_tol)
        for col in range(1, min(len(base_row), len(fresh_row),
                                len(headers))):
            kind = classify(headers[col])
            if kind is None:
                continue
            base_value = base_row[col]
            new_value = fresh_row[col]
            if not isinstance(base_value, (int, float)) or base_value == 0:
                continue
            delta = (new_value - base_value) / abs(base_value) * 100.0
            worse = -delta if kind == "throughput" else delta
            yield (name, base_row[0], headers[col], base_value,
                   new_value, delta, worse > tolerance)


def exact_text(value):
    return "%.17g" % value if isinstance(value, (int, float)) else repr(value)


def compare_exact(rows, columns):
    """Yields (table, row_key, column, base_text, new_text, matches)."""
    for name, headers, base_row, fresh_row in rows:
        for col, header in enumerate(headers):
            if header not in columns or col >= len(base_row):
                continue
            base_text = exact_text(base_row[col])
            new_text = (exact_text(fresh_row[col]) if col < len(fresh_row)
                        else "(absent)")
            yield (name, base_row[0], header, base_text, new_text,
                   base_text == new_text)


def main():
    parser = argparse.ArgumentParser(
        description="Diff a fresh bench JSON against a committed baseline.")
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=25.0,
                        help="allowed regression, percent (default 25)")
    parser.add_argument("--table-tolerance", action="append", default=[],
                        metavar="NAME=PCT",
                        help="per-table override, repeatable")
    parser.add_argument("--exact", action="append", default=[],
                        metavar="COLUMN",
                        help="compare only this column, bit for bit; "
                             "repeatable")
    parser.add_argument("--out", help="write a markdown diff report here")
    args = parser.parse_args()

    table_tols = {}
    for override in args.table_tolerance:
        name, _, pct = override.partition("=")
        if not pct:
            print(f"error: bad --table-tolerance {override!r}",
                  file=sys.stderr)
            return 2
        table_tols[name] = float(pct)

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    missing = []
    rows = matched_rows(baseline, fresh, missing)

    if args.exact:
        columns = set(args.exact)
        known = {header for table in baseline.get("tables", [])
                 for header in table.get("headers", [])}
        unknown = sorted(columns - known)
        if unknown:
            print(f"error: --exact column(s) {unknown} appear in no "
                  f"baseline table", file=sys.stderr)
            return 2
        results = list(compare_exact(rows, columns))
        failures = [row for row in results if not row[5]]
        lines = ["# Bench exact-column report", "",
                 f"baseline: `{args.baseline}`  fresh: `{args.fresh}`  "
                 f"exact: {sorted(columns)}", "",
                 "| table | row | column | baseline | fresh | |",
                 "| --- | --- | --- | --- | --- | --- |"]
        for name, key, col, base, new, matches in results:
            verdict = "same" if matches else "**MISMATCH**"
            lines.append(f"| {name} | {key} | {col} | {base} | {new} "
                         f"| {verdict} |")
    else:
        results = list(compare(rows, args.tolerance, table_tols))
        failures = [row for row in results if row[6]]
        lines = ["# Bench regression report", "",
                 f"baseline: `{args.baseline}`  fresh: `{args.fresh}`  "
                 f"tolerance: {args.tolerance:.0f}%"
                 + (f"  overrides: {table_tols}" if table_tols else ""), "",
                 "| table | row | column | baseline | fresh | delta |",
                 "| --- | --- | --- | --- | --- | --- |"]
        for name, key, col, base, new, delta, regressed in results:
            flag = " **REGRESSION**" if regressed else ""
            lines.append(f"| {name} | {key} | {col} | {base:.4g} "
                         f"| {new:.4g} | {delta:+.1f}%{flag} |")
    if not results:
        lines.append("| (no comparable rows) | | | | | |")
    if missing:
        lines += ["", "Missing from the fresh run:", ""]
        lines += [f"- {entry}" for entry in missing]
    report = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    print(report)
    if args.exact:
        if failures or missing:
            print(f"{len(failures)} exact mismatch(es), {len(missing)} "
                  f"missing table(s)/row(s)", file=sys.stderr)
            return 1
        print("all exact columns identical")
        return 0
    if failures:
        print(f"{len(failures)} timing(s) regressed past tolerance",
              file=sys.stderr)
        return 1
    print("all timings within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
