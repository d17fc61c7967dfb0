#!/usr/bin/env python3
"""Compare two leca-bench-v2 JSON reports entry by entry.

Usage:
    tools/bench_compare.py OLD.json NEW.json [--threshold 0.10]
                           [--tolerances FILE] [--history FILE]
                           [--require NAME[:TOL] ...]

A report is {"schema": "leca-bench-v2", "threads": N, "entries": [...]}
and every entry is {name, value, unit, better}, where `better` is
"lower" or "higher" (bench/json_report.hh writes them). Entries are
matched by name, and one rule judges every shared entry: it regressed
when it moved past its tolerance in its worse direction,

    better == "lower":   new > old * (1 + tol)
    better == "higher":  new < old * (1 - tol)

Entries present in only one report are listed separately and never
affect the exit status, except that every --require NAME must exist in
the NEW report; this keeps CI honest when a benchmark silently stops
emitting an entry.

A required entry may carry its own tolerance as NAME:TOL (for example
`--require serve_quant_speedup:0.05`), which overrides --threshold for
that entry only.

--tolerances FILE loads per-entry tolerances from a JSON object mapping
entry name -> fraction (bench/tolerances.json in this repo). A
"default" key, when present, replaces --threshold for every entry the
file does not name. Precedence per entry: --require NAME:TOL, then the
file entry, then the file "default", then --threshold.

--history FILE appends one JSON line per invocation (timestamp, report
paths, per-entry old and new values, regression names) so successive
CI runs build a greppable performance log without any extra tooling.

Exit status: 0 when no shared entry regressed, 1 on a regression or a
missing required entry, 2 when an input cannot be judged: a report in
another schema, an entry without a value, unit or direction, a shared
entry whose unit or direction differs between the two reports, or a
malformed tolerance.
"""

import argparse
import datetime
import json
import sys

SCHEMA = "leca-bench-v2"
DIRECTIONS = ("lower", "higher")


def refuse(message):
    """Report an input that cannot be judged and exit with status 2."""
    print(f"bench_compare: {message}", file=sys.stderr)
    sys.exit(2)


def load_entries(path):
    """Return {name: entry dict} for a leca-bench-v2 report."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        refuse(f"{path}: schema {schema!r}, expected {SCHEMA!r}")
    entries = {}
    for entry in doc.get("entries", []):
        if not (isinstance(entry, dict)
                and isinstance(entry.get("name"), str)
                and isinstance(entry.get("value"), (int, float))
                and isinstance(entry.get("unit"), str) and entry["unit"]
                and entry.get("better") in DIRECTIONS):
            refuse(f"{path}: an entry needs name, value, unit and better "
                   f"(lower or higher): {entry!r}")
        if entry["name"] in entries:
            refuse(f"{path}: duplicate entry {entry['name']!r}")
        entries[entry["name"]] = entry
    return entries


def parse_requires(specs):
    """Split --require NAME[:TOL] specs into (names, {name: tol}).

    The tolerance is a fraction like --threshold; a bare NAME keeps the
    global threshold. The split is on the LAST colon so entry names
    containing colons still parse when no tolerance is given.
    """
    names = []
    tolerances = {}
    for spec in specs:
        name, sep, tol = spec.rpartition(":")
        if sep and name:
            try:
                value = float(tol)
            except ValueError:
                # Not a number after the colon: the whole spec is a
                # name (e.g. an entry literally called "a:b").
                names.append(spec)
                continue
            if value < 0:
                refuse(f"--require {spec}: tolerance must be >= 0")
            names.append(name)
            tolerances[name] = value
        else:
            names.append(spec)
    return names, tolerances


def load_tolerances(path):
    """Return (default_or_None, {name: tol}) from a tolerance file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        refuse(f"{path}: tolerance file must be a JSON object")
    default = None
    per_entry = {}
    for name, tol in doc.items():
        if name.startswith("_"):
            continue  # comment keys
        if not isinstance(tol, (int, float)) or tol < 0:
            refuse(f"{path}: tolerance for {name!r} must be a "
                   f"non-negative number, got {tol!r}")
        if name == "default":
            default = float(tol)
        else:
            per_entry[name] = float(tol)
    return default, per_entry


def regressed(old, new, better, tol):
    """The one rule: did @p new move past @p tol in its worse direction?"""
    if better == "lower":
        return new > old * (1.0 + tol)
    return new < old * (1.0 - tol)


def main():
    parser = argparse.ArgumentParser(
        description="Diff two leca-bench-v2 JSON reports by entry name.")
    parser.add_argument("old", help="baseline report")
    parser.add_argument("new", help="candidate report")
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="allowed fraction an entry may worsen before failing "
             "(default 0.10)")
    parser.add_argument(
        "--tolerances", metavar="FILE",
        help="JSON object of per-entry tolerances; a 'default' key "
             "overrides --threshold for unnamed entries")
    parser.add_argument(
        "--history", metavar="FILE",
        help="append one JSON line (values, regressions) per run")
    parser.add_argument(
        "--require", action="append", default=[], metavar="NAME[:TOL]",
        help="fail unless NAME is an entry of the NEW report; an "
             "optional :TOL fraction overrides --threshold for that "
             "entry (repeatable)")
    args = parser.parse_args()

    required, tolerances = parse_requires(args.require)
    if args.tolerances:
        file_default, file_tols = load_tolerances(args.tolerances)
        if file_default is not None:
            args.threshold = file_default
        # --require NAME:TOL on the command line still wins.
        for name, tol in file_tols.items():
            tolerances.setdefault(name, tol)

    old = load_entries(args.old)
    new = load_entries(args.new)

    shared = [name for name in old if name in new]
    for name in shared:
        for key in ("unit", "better"):
            if old[name][key] != new[name][key]:
                refuse(f"{name}: {key} is {old[name][key]!r} in "
                       f"{args.old} but {new[name][key]!r} in {args.new}")

    missing = [name for name in required if name not in new]
    if missing:
        print(f"{args.new}: missing required entr"
              f"{'y' if len(missing) == 1 else 'ies'}:"
              f" {', '.join(missing)}")
        return 1

    regressions = []
    if shared:
        width = max(len(name) for name in shared)
        print(f"{'entry':<{width}}  {'unit':>6}  {'better':>6}  "
              f"{'old':>10}  {'new':>10}  new/old")
        for name in shared:
            o, n = old[name]["value"], new[name]["value"]
            unit, better = new[name]["unit"], new[name]["better"]
            tol = tolerances.get(name, args.threshold)
            flag = ""
            if regressed(o, n, better, tol):
                regressions.append(name)
                flag = f"  REGRESSION (tol {tol * 100:.0f}%)"
            ratio = n / o if o != 0 else float("inf")
            print(f"{name:<{width}}  {unit:>6}  {better:>6}  {o:>10.4f}  "
                  f"{n:>10.4f}  {ratio:>6.2f}x{flag}")
    else:
        print("no shared entries between the two reports")

    for name in old:
        if name not in new:
            print(f"only in {args.old}: {name}")
    for name in new:
        if name not in old:
            print(f"only in {args.new}: {name}")

    if args.history:
        record = {
            "time": datetime.datetime.now(datetime.timezone.utc)
                            .isoformat(timespec="seconds"),
            "old": args.old,
            "new": args.new,
            "entries": {name: {"old": old[name]["value"],
                               "new": new[name]["value"],
                               "unit": new[name]["unit"],
                               "better": new[name]["better"]}
                        for name in shared},
            "regressions": regressions,
        }
        with open(args.history, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    if regressions:
        print(f"{len(regressions)} entr"
              f"{'y' if len(regressions) == 1 else 'ies'}"
              f" regressed past tolerance: {', '.join(regressions)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
