#!/usr/bin/env python3
"""Validate a tm-bench experiment-result JSON document.

Usage: validate_result.py RESULT.json [--experiment NAME] [--expect-racecheck]
       [--forbid-network] [--expect-races N]

Checks the v1 schema shape of every cell, including the additive network
(`topology`/`aggregation`/`links`) and racecheck (`racecheck`/`races`)
fields.  Fails loudly: the first violation exits non-zero with a message
naming the offending field and cell.

  --experiment NAME   require doc["experiment"] == NAME
  --expect-racecheck  require every cell to carry racecheck=true and a
                      races array (the checked-and-race-free verdict is an
                      EMPTY array; a missing one means the cell never ran
                      under the detector)
  --expect-races N    require the total race count across cells to be
                      exactly N (use with the racy fixtures)
  --forbid-network    require no cell to mention the network subsystem
                      (ideal-topology documents)
"""

import argparse
import json
import sys

RACE_KINDS = ("read", "write")


def fail(msg):
    print(f"validate_result.py: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, field, where, detail):
    if not cond:
        fail(f"field '{field}' in {where}: {detail}")


def validate_race(race, where):
    for field in ("page", "word_lo", "word_hi", "first_rank", "second_rank",
                  "first_interval", "second_interval"):
        require(field in race, field, where, "missing")
        require(isinstance(race[field], (int, float)) and race[field] >= 0,
                field, where, f"not a non-negative number: {race[field]!r}")
    for field in ("first_kind", "second_kind"):
        require(race.get(field) in RACE_KINDS, field, where,
                f"must be one of {RACE_KINDS}, got {race.get(field)!r}")
    require(race["word_lo"] <= race["word_hi"], "word_lo", where,
            "word_lo must not exceed word_hi")
    require(race["first_interval"] >= 1 and race["second_interval"] >= 1,
            "first_interval", where, "interval timestamps start at 1")


def validate_cell(cell, i, args):
    where = f"cells[{i}]"
    for field in ("app", "size", "policy", "nprocs", "seed", "schedule",
                  "diff_timing", "protocol", "exec_time_ns", "checksum",
                  "breakdown", "gc"):
        require(field in cell, field, where, "missing")

    require(cell["schedule"] in ("fifo", "seeded"), "schedule", where,
            f"unknown value {cell['schedule']!r}")
    require(cell["diff_timing"] in ("lazy",), "diff_timing", where,
            f"unknown value {cell['diff_timing']!r}")
    require(cell["protocol"] in ("multi-writer", "home-based"),
            "protocol", where, f"unknown value {cell['protocol']!r}")
    try:
        int(cell["seed"], 16)
    except (TypeError, ValueError):
        fail(f"field 'seed' in {where}: not a 64-bit hex string: "
             f"{cell['seed']!r}")
    require("host_wall_ns" not in cell, "host_wall_ns", where,
            "nondeterministic display-only field must not be emitted")

    b = cell["breakdown"]
    for field in ("useful_messages", "useless_messages", "useful_data",
                  "faults", "home_updates", "page_fetches"):
        require(field in b, f"breakdown.{field}", where, "missing")
        require(b[field] >= 0, f"breakdown.{field}", where, "negative")
    gc = cell["gc"]
    require(gc["intervals_retired"] <= gc["intervals_closed"],
            "gc.intervals_retired", where,
            "cannot exceed gc.intervals_closed")

    # Network fields are additive: present only on contended cells, and
    # then shaped by the topology.
    if args.forbid_network:
        for field in ("topology", "aggregation", "links"):
            require(field not in cell, field, where,
                    "ideal-topology documents must not mention the network")
    if "topology" in cell:
        require(cell["topology"] in ("bus", "switched"), "topology", where,
                f"unknown value {cell['topology']!r}")
        links = cell.get("links")
        require(isinstance(links, list) and links, "links", where,
                "contended cell must carry a non-empty links array")
        expected = 1 if cell["topology"] == "bus" else cell["nprocs"]
        require(len(links) == expected, "links", where,
                f"expected {expected} links for {cell['topology']}, "
                f"got {len(links)}")
        for link in links:
            require(link["busy_ns"] >= 0 and link["queue_ns"] >= 0,
                    "links.busy_ns", where, "negative")
            require(0.0 <= link["utilization"] <= 1.0, "links.utilization",
                    where, "must be a fraction in [0, 1]")
            # The occupancy window (emitted since the utilization fix)
            # bounds the disjoint busy intervals.
            if "window_ns" in link:
                require(link["busy_ns"] <= link["window_ns"],
                        "links.window_ns", where,
                        "busy_ns exceeds the occupancy window")

    # Racecheck fields are additive: absent by default, both present on a
    # checked cell.  races == [] is the explicit checked-and-race-free
    # verdict, so with --expect-racecheck a MISSING array is the failure.
    if args.expect_racecheck:
        require(cell.get("racecheck") is True, "racecheck", where,
                "cell was not run under --racecheck")
        require("races" in cell, "races", where,
                "checked cell must carry a races array (possibly empty)")
    if "racecheck" in cell:
        require(cell["racecheck"] is True, "racecheck", where,
                "emitted only when true")
    if "races" in cell:
        require(cell.get("racecheck") is True, "races", where,
                "races[] requires racecheck=true")
        require(isinstance(cell["races"], list), "races", where,
                "must be an array")
        for j, race in enumerate(cell["races"]):
            validate_race(race, f"{where}.races[{j}]")
    return len(cell.get("races", []))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("result")
    ap.add_argument("--experiment")
    ap.add_argument("--expect-racecheck", action="store_true")
    ap.add_argument("--expect-races", type=int, default=None)
    ap.add_argument("--forbid-network", action="store_true")
    args = ap.parse_args()

    try:
        doc = json.load(open(args.result))
    except (OSError, json.JSONDecodeError) as e:
        fail(f"document '{args.result}': {e}")

    require(doc.get("schema") == "tm-bench/experiment-result/v1", "schema",
            "document", f"got {doc.get('schema')!r}")
    if args.experiment is not None:
        require(doc.get("experiment") == args.experiment, "experiment",
                "document", f"expected {args.experiment!r}, "
                f"got {doc.get('experiment')!r}")
    cells = doc.get("cells")
    require(isinstance(cells, list) and cells, "cells", "document",
            "must be a non-empty array")

    total_races = sum(validate_cell(c, i, args) for i, c in enumerate(cells))
    if args.expect_races is not None and total_races != args.expect_races:
        fail(f"field 'races' in document: expected {args.expect_races} race "
             f"records in total, found {total_races}")

    checked = sum(1 for c in cells if c.get("racecheck"))
    print(f"validate_result.py: OK: {len(cells)} cells "
          f"({checked} racechecked, {total_races} race records)")


if __name__ == "__main__":
    main()
