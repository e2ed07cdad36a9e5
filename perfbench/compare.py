"""Compare two sets of benchmark results, per workload and per layer.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the standard output of any number of ``run.py`` runs, one
JSON object per line: the metadata line of a run, then its result line
(``python3 perfbench/run.py ... >> BASE.jsonl``).  Runs are grouped by
workload and trace mode, and paired across the two files by seed.

For each end-to-end metric the report gives each side's median and
quartiles, the change of the median, how many seed pairs the new side wins
(ties count for neither), and a verdict using the direction and bound in
BENCHMARK.json:

* ``better``: the new side wins at least 9 in 10 pairs and the medians differ
  by more than the base side's interquartile range;
* ``worse``: the new median is worse than the base median by more than the bound;
* ``unresolved``: the base side's own spread is wider than the bound and
  neither of the above holds, unless every new run beats every base run;
* ``same`` otherwise.

Per-layer metrics (traced runs) are listed with both medians and their ratio.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> metric values, from a file of run output lines."""
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    meta = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "meta" in obj:
            meta = obj["meta"]
        elif "metrics" in obj and meta is not None:
            key = (meta["workload"], meta["trace"])
            runs.setdefault(key, {})[meta["seed"]] = {
                name: m["value"] for name, m in obj["metrics"].items()}
            meta = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], wins: int, pairs: int,
            lower_better: bool, bound: float) -> str:
    b1, bm, b3 = quartiles(base)
    nm = statistics.median(new)
    sign = 1 if lower_better else -1
    worse_by = sign * (nm - bm) / bm if bm else 0.0
    if pairs and wins >= 0.9 * pairs and abs(nm - bm) > b3 - b1 and worse_by < 0:
        return "better"
    if worse_by > bound:
        return "worse"
    spread = (b3 - b1) / bm if bm else 0.0
    if spread > bound:
        beats = (max(new) < min(base)) if lower_better else (min(new) > max(base))
        return "better" if beats else "unresolved"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        a, b = base[key], new[key]
        seeds = sorted(set(a) & set(b))
        print(f"\n== {workload} ({'per layer' if trace else 'end to end'}): "
              f"{len(a)} base runs, {len(b)} new runs, {len(seeds)} seed pairs")
        names = [n for n in next(iter(a.values())) if all(n in r for r in b.values())]
        for name in names:
            va = [r[name] for r in a.values()]
            vb = [r[name] for r in b.values()]
            ma, mb = statistics.median(va), statistics.median(vb)
            ratio = f"{mb / ma:8.3f}x" if ma else "       - "
            if trace:
                print(f"  {name:45s} {ma:14.6g} {mb:14.6g} {ratio}")
                continue
            spec_m = end_to_end.get(name)
            lower = spec_m is None or spec_m["better"] == "lower"
            wins = sum((b[s][name] < a[s][name]) if lower else (b[s][name] > a[s][name])
                       for s in seeds)
            qa, qb = quartiles(va), quartiles(vb)
            what = verdict(va, vb, wins, len(seeds), lower, spec_m["bound"] if spec_m else 0.0)
            print(f"  {name:12s} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {ratio}"
                  f"  wins {wins}/{len(seeds)}  {what}")
    for key in sorted(set(base) ^ set(new)):
        print(f"\n(only in {'base' if key in base else 'new'}: {key[0]}, trace {key[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
