"""Compare two checkouts of liedual with the same benchmark code.

    python3 bench/compare.py --parent ../parent --change . [--pairs 10] [--seconds S]
                             [--workload certify ...] [--out results.jsonl]
    python3 bench/compare.py --results results.jsonl

The first form runs ``bench/run.py`` of this checkout against each side's
src/ in pairs, alternating which side goes first, with seed
``first-seed + pair`` for both sides of a pair.  Every result is appended
to --out as one JSON line.  The second form only reports saved results.

Each workload gets its own table.  For every end-to-end metric it shows
each side's median and quartiles, the change in the median, how many
pairs the change won, and a verdict against the metric's bound in
BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than the bound
  unresolved  the parent's own spread (quartile distance / median) exceeds
              the bound and not every change run beats every parent run
  better      over at least 10 pairs, the change wins 9 in 10 of them and the
              medians differ by more than the parent's quartile distance
  same        none of the above
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_pairs(args, spec: dict) -> list[dict]:
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sources = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    records = []
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                argv = [
                    sys.executable, str(HERE / "run.py"), "--source", str(sources[side]),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0",
                ]
                proc = subprocess.run(argv, capture_output=True, text=True, check=False)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"{side} {workload} seed {seed} exited {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                record = {"side": side, "workload": workload, "pair": pair, "seed": seed, "result": result}
                records.append(record)
                if args.out:
                    with open(args.out, "a", encoding="utf-8") as handle:
                        handle.write(json.dumps(record) + "\n")
                print(f"pair {pair} {workload} {side}: done", file=sys.stderr)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int, bound: float, lower: bool) -> str:
    """Verdict on one metric; ``wins`` of ``pairs`` pairs went to the change."""
    p1, pmed, p3 = quartiles(parent)
    cmed = quartiles(change)[1]
    worse_by = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if (p3 - p1) / pmed > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if pairs >= 10 and wins >= 0.9 * pairs and abs(cmed - pmed) > p3 - p1:
        return "better"
    return "same"


def report(records: list[dict], spec: dict) -> int:
    worse = 0
    for workload in dict.fromkeys(r["workload"] for r in records):
        rows = [r for r in records if r["workload"] == workload]
        by_side = {s: [r for r in rows if r["side"] == s] for s in SIDES}
        print(f"\n== {workload}")
        for side in SIDES:
            attempted = sum(r["result"]["attempted"] for r in by_side[side])
            failed = sum(r["result"]["failed"] for r in by_side[side])
            correct = all(r["result"]["correct"] for r in by_side[side])
            print(f"   {side}: {len(by_side[side])} runs, {failed}/{attempted} failed, correct={correct}")
        print(f"   {'metric':<16} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} {'change':>8} {'wins':>6}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            lower = metric["better"] == "lower"
            values = {s: [r["result"]["metrics"][name]["value"] for r in by_side[s]] for s in SIDES}
            if not values["parent"] or not values["change"]:
                continue
            by_pair = {s: {r["pair"]: r["result"]["metrics"][name]["value"] for r in by_side[s]} for s in SIDES}
            pairs = [(by_pair["parent"][k], by_pair["change"][k]) for k in by_pair["parent"] if k in by_pair["change"]]
            wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
            p = quartiles(values["parent"])
            c = quartiles(values["change"])
            delta = (c[1] - p[1]) / p[1] if p[1] else 0.0
            v = verdict(values["parent"], values["change"], wins, len(pairs), metric["bound"], lower)
            worse += v == "worse"
            unit = metric["unit"]
            print(
                f"   {name:<16} {p[1]:>9.4g} [{p[0]:.4g}, {p[2]:.4g}] {unit:<6}"
                f" {c[1]:>9.4g} [{c[0]:.4g}, {c[2]:.4g}] {unit:<6}"
                f" {delta:>+7.1%} {wins:>3}/{len(pairs):<2}  {v} (bound {metric['bound']:.0%})"
            )
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare two liedual checkouts")
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--results", type=Path, help="report saved results instead of running")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.results:
        lines = args.results.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines if line.strip()]
    elif args.parent and args.change:
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        records = run_pairs(args, spec)
    else:
        parser.error("give --parent and --change, or --results")
    return report(records, spec)


if __name__ == "__main__":
    sys.exit(main())
