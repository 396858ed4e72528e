"""Compare two sets of benchmark records, for example a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``.json`` records ``run.py`` writes to
``.perfbench/results/``. For every workload and end-to-end metric this
prints each side's median and quartiles over its runs, the share of pairs
the new side won, and a verdict under the bounds in BENCHMARK.json:

- improved: at least ten pairs, the new side wins at least nine tenths of
  them (ties count for neither), and the medians differ, in the better
  direction, by more than the base runs' interquartile distance;
- unresolved: fewer than ten pairs, or the base spread (interquartile
  distance over median) is wider than the bound, unless every new run reads
  better than every base run;
- worse: the new median is worse than the base median by more than the bound;
- within bound: otherwise.

Runs pair by seed when both sides ran the same seeds, otherwise in seed
order. Records of the same seed on both sides also have their output
digests compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(directory: Path) -> dict[str, dict[int, dict]]:
    """Untraced records by workload, then seed."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, float]:
    """The verdict for one metric on one workload, and the new side's share of wins."""
    def better(x: float, y: float) -> bool:
        return x < y if lower_is_better else x > y

    wins = sum(1 for b, n in pairs if better(n, b))
    win_share = wins / len(pairs) if pairs else 0.0
    b1, b_med, b3 = quartiles(base)
    n_med = quartiles(new)[1]
    spread = b3 - b1
    worse_by = (n_med - b_med) / b_med if lower_is_better else (b_med - n_med) / b_med
    all_better = all(better(n, b) for n in new for b in base)
    if (len(pairs) >= MIN_PAIRS and win_share >= WIN_SHARE and better(n_med, b_med)
            and abs(n_med - b_med) > spread):
        return "improved", win_share
    if len(pairs) < MIN_PAIRS:
        return f"unresolved (fewer than {MIN_PAIRS} pairs)", win_share
    if spread / b_med > bound and not all_better:
        return "unresolved (base spread wider than the bound)", win_share
    if worse_by > bound:
        return "worse", win_share
    return "within bound", win_share


def compare(base_dir: Path, new_dir: Path, spec: dict) -> list[str]:
    base_all, new_all = load_records(base_dir), load_records(new_dir)
    lines = []
    for workload in sorted(set(base_all) & set(new_all)):
        base, new = base_all[workload], new_all[workload]
        shared = sorted(set(base) & set(new))
        if len(shared) >= min(len(base), len(new)):
            seed_pairs = [(s, s) for s in shared]
        else:
            seed_pairs = list(zip(sorted(base), sorted(new)))
        lines.append(f"== {workload}: {len(base)} base runs, {len(new)} new runs, "
                     f"{len(seed_pairs)} pairs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_vals = [r["metrics"][name]["value"] for r in base.values() if name in r["metrics"]]
            n_vals = [r["metrics"][name]["value"] for r in new.values() if name in r["metrics"]]
            if not b_vals or not n_vals:
                lines.append(f"{name:22s} missing on one side")
                continue
            pairs = [(base[a]["metrics"][name]["value"], new[b]["metrics"][name]["value"])
                     for a, b in seed_pairs
                     if name in base[a]["metrics"] and name in new[b]["metrics"]]
            result, win_share = verdict(b_vals, n_vals, pairs, metric["bound"],
                                        metric["better"] == "lower")
            bq, nq = quartiles(b_vals), quartiles(n_vals)
            lines.append(
                f"{name:22s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {metric['unit']}  "
                f"change {100 * (nq[1] - bq[1]) / bq[1]:+.2f}%  won {100 * win_share:.0f}%  "
                f"bound {100 * metric['bound']:.0f}%  -> {result}")
        same = [s for s in shared if base[s].get("digests") == new[s].get("digests")]
        lines.append(f"output digests identical for {len(same)} of {len(shared)} shared seeds")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark records.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    lines = compare(args.base, args.new, spec)
    if not lines:
        print("no workload has untraced records on both sides", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
