"""The steadiness command: evidence for the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--sets 2]
                                [--seconds S] [--new-seeds-per-set]

Runs each workload once per seed in each of ``--sets`` sets; the sets
alternate the order of the workloads.  For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(n=4)``), the interquartile
spread as a share of the median, and the gap between the set medians, each
next to the metric's bound.  A spread at or above a third of its bound, or a
gap above the bound, is flagged; so is a failed-op share that differs
between sets.  Raw results land in ``.bench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT_DIR, ROOT  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) as ``statistics.quantiles`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--new-seeds-per-set", action="store_true",
                        help="give every set its own seeds instead of repeating them")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for set_index in range(args.sets):
        order = workloads if set_index % 2 == 0 else workloads[::-1]
        first = args.first_seed + (set_index * args.seeds if args.new_seeds_per_set else 0)
        for seed in range(first, first + args.seeds):
            for workload in order:
                result = run_once(workload, seed, args.seconds)
                results[workload][set_index].append(result)
                print(f"set {set_index} seed {seed} {workload}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "steady.json").write_text(json.dumps(results, indent=1))
    flagged = 0
    for workload in workloads:
        sets = results[workload]
        print(f"\n{workload}: {args.seeds} seeds x {args.sets} sets, {args.seconds:g} s runs")
        print(f"  {'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
              f"{'gap':>9}{'bound':>8}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            values = [v for runs in per_set for v in runs]
            median, q1, q3, _ = spread(values)
            medians = [statistics.median(v) for v in per_set]
            gap = max(abs(m - medians[0]) / medians[0] for m in medians)
            worse = [
                (m - medians[0]) / medians[0] * (1 if metric["better"] == "lower" else -1)
                for m in medians
            ]
            spreads = [spread(v)[3] for v in per_set]
            bad = max(spreads) >= bound / 3 or max(worse) > bound
            flagged += bad
            print(f"  {name:<20}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{max(spreads):>8.1%} {gap:>8.1%}{bound:>8.0%}{'  <-- ' if bad else ''}")
        shares = {(sum(r['failed'] for r in runs), sum(r['attempted'] for r in runs)) for runs in sets}
        failed_shares = {round(f / a, 12) for f, a in shares}
        if len(failed_shares) > 1:
            flagged += 1
            print(f"  failed share differs between sets: {sorted(failed_shares)}  <--")
        else:
            print(f"  failed share {failed_shares.pop():.6f} in every set")
    print(f"\n{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
