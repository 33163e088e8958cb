#!/usr/bin/env python3
"""Compare two BENCH_micro.json snapshots and flag ns/op regressions.

Usage:
    tools/bench_diff.py BASELINE.json CURRENT.json [--tolerance 0.10]
        [--max-ratio NUM_KEY DEN_KEY BOUND]...

Reads the sectioned flat-JSON format written by bench_common.hpp's
write_json_section (e.g. BENCH_micro.json), compares every ``*_ns_per_op``
key the two snapshots share, and prints a delta table followed by a one-line
geometric-mean summary (the unweighted geomean of current/baseline ratios —
the single number that says whether the build got faster or slower overall).
Exits nonzero when any shared benchmark regressed by more than
``--tolerance`` (fractional; the default 0.10 means ns/op grew >10%). Keys
present on only one side are reported but never fail the comparison, so
adding or retiring a benchmark does not break CI.

``--max-ratio NUM_KEY DEN_KEY BOUND`` (repeatable) also fails the run when
CURRENT's NUM_KEY / DEN_KEY exceeds BOUND. Two micros timed on one host in
one run share that host's speed, so the ratio holds across machines where a
bare ns/op cannot. A key is either ``section.BM_x_ns_per_op`` or a bare
``BM_x_ns_per_op`` that exactly one section holds. A key missing from
CURRENT is a usage error (exit 2).
"""

import argparse
import json
import math
import sys


def geomean_ratio(base, curr, shared):
    """exp(mean(log(curr/base))) over keys where both sides are positive;
    None when no key qualifies."""
    logs = [math.log(curr[k] / base[k]) for k in shared
            if base[k] > 0 and curr[k] > 0]
    if not logs:
        return None
    return math.exp(sum(logs) / len(logs))


def load_ns_per_op(path):
    """Flattens {"section": {"BM_x_ns_per_op": 1.0, ...}} to one dict."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        sys.exit(f"bench_diff: {path}: cannot open: {e.strerror or e}")
    except json.JSONDecodeError as e:
        sys.exit(f"bench_diff: {path}: not valid JSON: {e}")
    flat = {}
    for section, body in data.items():
        if not isinstance(body, dict):
            continue
        for key, value in body.items():
            if key.endswith("_ns_per_op") and isinstance(value, (int, float)):
                flat[f"{section}.{key}"] = float(value)
    return flat


def resolve_key(flat, key, path):
    """The flattened ``section.key`` that `key` names in `flat`: itself, or
    the one entry whose key part equals a bare `key`. Exits 2 otherwise."""
    if key in flat:
        return key
    matches = [k for k in flat if k.split(".", 1)[1] == key]
    if len(matches) == 1:
        return matches[0]
    why = "is ambiguous" if matches else "is absent"
    print(f"bench_diff: {path}: key {key} {why}", file=sys.stderr)
    sys.exit(2)


def resolve_ratios(parser, curr, ratios, path):
    """(num_key, den_key, bound) per --max-ratio, keys resolved in `curr`."""
    resolved = []
    for num_key, den_key, bound_text in ratios:
        try:
            bound = float(bound_text)
        except ValueError:
            parser.error(f"--max-ratio bound is not a number: {bound_text}")
        num = resolve_key(curr, num_key, path)
        den = resolve_key(curr, den_key, path)
        if curr[den] <= 0:
            print(f"bench_diff: {path}: {den} is not positive", file=sys.stderr)
            sys.exit(2)
        resolved.append((num, den, bound))
    return resolved


def check_ratios(base, curr, ratios):
    """Prints one line per --max-ratio check; returns the failed ones."""
    failed = []
    for num, den, bound in ratios:
        ratio = curr[num] / curr[den]
        baseline = ""
        if num in base and den in base and base[den] > 0:
            baseline = f" (baseline {base[num] / base[den]:.3f})"
        verdict = "ok" if ratio <= bound else "EXCEEDED"
        print(f"ratio {num} / {den} = {ratio:.3f}{baseline}, bound {bound:g}: {verdict}")
        if ratio > bound:
            failed.append((num, den, ratio, bound))
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_micro.json")
    parser.add_argument("current", help="current BENCH_micro.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="fractional ns/op growth allowed before failing (default 0.10)",
    )
    parser.add_argument(
        "--max-ratio",
        nargs=3,
        action="append",
        default=[],
        metavar=("NUM_KEY", "DEN_KEY", "BOUND"),
        help="fail when CURRENT's NUM_KEY / DEN_KEY exceeds BOUND (repeatable)",
    )
    args = parser.parse_args()

    base = load_ns_per_op(args.baseline)
    curr = load_ns_per_op(args.current)
    ratios = resolve_ratios(parser, curr, args.max_ratio, args.current)
    shared = sorted(set(base) & set(curr))
    if not shared:
        print("bench_diff: no shared *_ns_per_op keys between the two snapshots",
              file=sys.stderr)
        return 2

    name_w = max(len(k) for k in shared)
    print(f"{'benchmark':<{name_w}}  {'baseline':>12}  {'current':>12}  {'delta':>8}")
    regressions = []
    for key in shared:
        b, c = base[key], curr[key]
        delta = (c - b) / b if b > 0 else 0.0
        flag = ""
        if delta > args.tolerance:
            flag = "  REGRESSED"
            regressions.append((key, delta))
        elif delta < -args.tolerance:
            flag = "  improved"
        print(f"{key:<{name_w}}  {b:>12.4g}  {c:>12.4g}  {delta:>+7.1%}{flag}")

    for key in sorted(set(base) - set(curr)):
        print(f"{key:<{name_w}}  {base[key]:>12.4g}  {'(absent)':>12}")
    for key in sorted(set(curr) - set(base)):
        print(f"{key:<{name_w}}  {'(absent)':>12}  {curr[key]:>12.4g}")

    gm = geomean_ratio(base, curr, shared)
    if gm is not None:
        print(f"\ngeomean: {gm:.4f}x baseline ns/op ({gm - 1.0:+.1%}) "
              f"across {len(shared)} shared benchmark(s)")

    ratio_failures = []
    if ratios:
        print()
        ratio_failures = check_ratios(base, curr, ratios)

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond {args.tolerance:.0%}:")
        for key, delta in regressions:
            print(f"  {key}: {delta:+.1%}")
    if ratio_failures:
        print(f"\n{len(ratio_failures)} ratio bound(s) exceeded:")
        for num, den, ratio, bound in ratio_failures:
            print(f"  {num} / {den}: {ratio:.3f} > {bound:g}")
    if regressions or ratio_failures:
        return 1
    print(f"no regressions beyond {args.tolerance:.0%} "
          f"across {len(shared)} shared benchmark(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
