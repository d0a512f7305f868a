#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload small-sparse --seeds 1-10 [--seconds 25]

Each seed runs ``python3 perfbench/run.py --trace 0`` once in each
checkout, with the same seed; the side that goes first alternates from
seed to seed, so a slow or fast spell of the machine falls on both sides
alike. A run whose result is not ``correct`` or has failed operations is
reported and its pair left out of the summary.

For every end-to-end metric of CHANGE_DIR's ``BENCHMARK.json`` the summary
gives the parent's and the change's median with quartiles, the ratio of
the medians (change / parent), the number of pairs the change wins (a tie
counts for neither side) and, per pair, both values. The same table
follows for the metrics as timed, not scaled to the nominal machine speed
(read from each run's report under ``perfbench/out/``).

Exit status: 0 when every run was correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' or a mix ('1-3,7') as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its result line, the as-timed
    metrics of its report and, on failure, the tail of its stderr."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": None, "metrics": {}}
    report = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    as_timed = {}
    if proc.returncode == 0 and report.is_file():
        as_timed = json.loads(report.read_text(encoding="utf-8")).get("as_timed", {})
    return {
        "ok": bool(result.get("correct")) and result.get("failed") == 0,
        "result": result,
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        "as_timed": as_timed,
        "stderr": proc.stderr.strip().splitlines()[-5:],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(pairs: list[tuple[int, dict, dict]], metrics: list[dict], key: str) -> list[str]:
    """One line per metric over the correct pairs, then each pair's values."""
    out = []
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        seen = [(s, p[key][name], c[key][name]) for s, p, c in pairs
                if name in p[key] and name in c[key]]
        if not seen:
            continue
        parent, change = [p for _, p, _ in seen], [c for _, _, c in seen]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum((c > p) if higher else (c < p) for _, p, c in seen)
        ratio = cm / pm if pm else float("nan")
        out.append(f"{name:26s} parent {pm:12.4g} [{p1:.4g}, {p3:.4g}]  "
                   f"change {cm:12.4g} [{c1:.4g}, {c3:.4g}]  x{ratio:.3f}  "
                   f"wins {wins}/{len(seen)} ({spec['better']} is better)")
        out.append("    pairs (seed parent/change): "
                   + ", ".join(f"{s} {p:.4g}/{c:.4g}" for s, p, c in seen))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="seeds as '1-10' or '1,3,5' (default 1-10)")
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {checkout} has no perfbench/run.py")
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]

    pairs, bad = [], 0
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = run_side(sides[side], args.workload, seed, args.seconds)
            run = runs[side]
            status = "ok" if run["ok"] else (
                f"NOT CORRECT (correct={run['result'].get('correct')}, "
                f"failed={run['result'].get('failed')})")
            print(f"seed {seed} {side}: {status} {json.dumps(run['metrics'], sort_keys=True)}",
                  file=sys.stderr, flush=True)
            if not run["ok"]:
                bad += 1
                for line in run["stderr"]:
                    print(f"    {line}", file=sys.stderr)
        if runs["parent"]["ok"] and runs["change"]["ok"]:
            pairs.append((seed, runs["parent"], runs["change"]))

    print(f"workload {args.workload}, {len(pairs)} correct pairs of {len(args.seeds)}, "
          f"{args.seconds:g} s per run, {bad} runs not correct")
    print("scaled to the nominal machine speed:")
    print("\n".join(summarize(pairs, metrics, "metrics")))
    print("as timed:")
    print("\n".join(summarize(pairs, metrics, "as_timed")))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
