"""Alternated parent/change pairs of bench runs, and the summary that
decides whether a change gains.

Run from the repository root:

    python -m tests.bench_pairs --parent DIR --change DIR --workload W --seeds A-B [--seconds S]

For each seed from A to B it runs ``python3 bench/run.py --workload W
--seed N --seconds S --trace 0`` in both checkouts, one after the other,
and alternates which checkout goes first, so a drift of the host's speed
falls on both sides alike.  It reads each run's result line and prints,
per metric, every pair, both medians, the parent's interquartile range
and the change's wins, with "better" read from ``BENCHMARK.json``.  A
gain counts when there are at least 10 pairs, the change wins at least
nine tenths of them (ties count for neither side) and the medians are
apart, in its favour, by more than the parent's IQR; the last line of
each metric says whether it does.  A run that
fails or reports incorrect results stops the script with its message.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10


def summarize(pairs: list[tuple[float, float]], better: str) -> dict:
    """Medians, the parent's IQR (inclusive quartiles) and the change's
    wins over ``(parent, change)`` pairs; ``gain`` is the rule above."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1.0 if better == "higher" else -1.0
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    medians = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    return {
        "parent_median": medians[0], "change_median": medians[1], "parent_iqr": q3 - q1,
        "wins": wins, "pairs": len(pairs),
        "gain": (len(pairs) >= MIN_PAIRS and 10 * wins >= 9 * len(pairs)
                 and sign * (medians[1] - medians[0]) > q3 - q1),
    }


def report(name: str, seeds: list[int], pairs: list[tuple[float, float]], better: str) -> str:
    s = summarize(pairs, better)
    lines = [f"{name} ({better} is better)"]
    lines += [f"  seed {seed}  parent {p:.6g}  change {c:.6g}  {c / p:.3f}x"
              for seed, (p, c) in zip(seeds, pairs)]
    lines.append(f"  medians: parent {s['parent_median']:.6g}, change {s['change_median']:.6g} "
                 f"({s['change_median'] / s['parent_median']:.3f}x); parent IQR {s['parent_iqr']:.4g}; "
                 f"change wins {s['wins']} of {s['pairs']}")
    lines.append(f"  gain (>= {MIN_PAIRS} pairs, wins in >= 9/10 of them, medians apart by "
                 f"more than the parent's IQR): {'yes' if s['gain'] else 'no'}")
    return "\n".join(lines)


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The ``metrics`` of one bench run: metric name -> value."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: seed {seed} exited with {done.returncode}\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: seed {seed} failed its checks\n{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="python -m tests.bench_pairs")
    ap.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    ap.add_argument("--change", type=Path, required=True, help="the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, both included")
    ap.add_argument("--seconds", type=float, default=18.0)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    runs = []
    for i, seed in enumerate(args.seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {side: bench_run(getattr(args, side), args.workload, seed, args.seconds)
               for side in order}
        runs.append((got["parent"], got["change"]))
        print(f"seed {seed}, {order[0]} first: "
              + ", ".join(f"{name} {got['parent'][name]:.6g} -> {got['change'][name]:.6g}"
                          for name in got["parent"]), file=sys.stderr, flush=True)
    for name in runs[0][0]:
        print(report(name, args.seeds, [(p[name], c[name]) for p, c in runs],
                     better[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
