"""Compare two sets of benchmark result records, per workload and metric.

A result set is a directory of the JSON records ``run.py`` writes (or one
such file).  Only untraced records are compared.  Runs of each side are
ordered by start time and paired by position, so run the two sides
alternately (parent, change, change, parent, ...) for the pairs to share
machine conditions.  For every workload and end-to-end metric the report
gives each side's median and quartiles, the fraction of pairs the change
wins (ties count for neither) and one verdict:

* ``improved``: the change wins at least 9/10 of the pairs, its median is
  better by more than the parent's interquartile distance, and no more
  checks fail than at the parent;
* ``no worse within bound``: the change's median is worse than the parent's
  by at most the metric's bound;
* ``unresolved``: a side's spread (interquartile distance over median)
  exceeds the bound, unless every change run beats every parent run;
* ``regressed``: worse by more than the bound.
"""

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path) -> dict:
    """workload -> untraced records ordered by start time."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = defaultdict(list)
    for f in files:
        rec = json.loads(f.read_text())
        if rec.get("trace") == 0:
            runs[rec["workload"]].append(rec)
    return {w: sorted(rs, key=lambda r: r["started_at"]) for w, rs in runs.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float,
            parent_failed: float, change_failed: float):
    """(verdict, win fraction) for one metric; ``better`` is 'lower' or 'higher'."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(x, y):
        return sign * (y - x) > 0

    pairs = list(zip(parent, change))
    wins = sum(beats(c, p) for p, c in pairs) / len(pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (pm - cm)
    if wins >= 0.9 and gain > p3 - p1 and change_failed <= parent_failed:
        return "improved", wins
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    if spread > bound and not all(beats(c, p) for c in change for p in parent):
        return "unresolved", wins
    if -gain > bound * abs(pm):
        return "regressed", wins
    return "no worse within bound", wins


def failed_frac(records) -> float:
    attempted = sum(r["result"]["attempted"] for r in records)
    return sum(r["result"]["failed"] for r in records) / attempted


def main(parent_path, change_path, spec: dict) -> int:
    parent, change = load(parent_path), load(change_path)
    shared = [w for w in parent if w in change]
    if not shared:
        print("no workload has untraced records on both sides")
        return 2
    worst = 0
    print(f"{'workload':<14} {'metric':<18} {'parent q1/med/q3':<28} "
          f"{'change q1/med/q3':<28} {'win':>5}  verdict")
    for w in shared:
        pa, ch = parent[w], change[w]
        fa, fc = failed_frac(pa), failed_frac(ch)
        for m in spec["end_to_end"]:
            a = [r["result"]["metrics"][m["name"]]["value"] for r in pa]
            b = [r["result"]["metrics"][m["name"]]["value"] for r in ch]
            v, wins = verdict(a, b, m["better"], m["bound"], fa, fc)
            qa = "/".join(f"{x:.4g}" for x in quartiles(a))
            qb = "/".join(f"{x:.4g}" for x in quartiles(b))
            print(f"{w:<14} {m['name']:<18} {qa:<28} {qb:<28} {wins:5.2f}  {v}"
                  f"  (n={len(a)}/{len(b)}, {m['unit']})")
            worst = max(worst, v in ("regressed", "unresolved"))
        flag = "more checks fail" if fc > fa else "no more checks fail"
        print(f"{w:<14} {'checks_failed_frac':<18} {fa:<28.4g} {fc:<28.4g} {'':>5}  {flag}")
        worst = max(worst, fc > fa)
    return int(worst)
