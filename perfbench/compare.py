"""Compare two result sets, metric by metric, against the bounds.

A result set is a JSON-lines file that ``run.py --out FILE`` appends one
record to per run.  For every workload and end-to-end metric both sides
get their median and quartiles; the delta of the medians is judged
against the metric's bound from ``BENCHMARK.json``:

- ``unresolved`` when either side's quartile spread (as a share of its
  median) exceeds the bound, unless every run of B beats every run of
  A or the reverse;
- ``worse`` / ``better`` when the medians differ by more than the bound;
- ``same`` otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the untraced runs in ``path``."""
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["context"]["trace"]:
            continue
        for name, metric in record["result"]["metrics"].items():
            out[record["context"]["workload"]][name].append(metric["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(a: list[float], b: list[float], bound: float, better: str) -> tuple[float, str]:
    """Relative change of B's median against A's (positive = worse) and
    the verdict string."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    delta = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
    a_wins = max(a) < min(b) if better == "lower" else min(a) > max(b)
    if (spread(a) > bound or spread(b) > bound) and not (a_wins or b_wins):
        return delta, "unresolved"
    if delta > bound:
        return delta, "worse"
    if delta < -bound:
        return delta, "better"
    return delta, "same"


def compare(path_a: Path, path_b: Path, spec: dict) -> list[dict]:
    """One row per workload and end-to-end metric present on both sides."""
    a, b = load(path_a), load(path_b)
    rows = []
    for workload in sorted(set(a) | set(b)):
        for metric in spec["end_to_end"]:
            va = a[workload].get(metric["name"])
            vb = b[workload].get(metric["name"])
            if not va or not vb:
                continue
            delta, word = verdict(va, vb, metric["bound"], metric["better"])
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "a": quartiles(va),
                "b": quartiles(vb),
                "n": (len(va), len(vb)),
                "delta": delta,
                "bound": metric["bound"],
                "verdict": word,
            })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    def side(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [
        f"{'workload':<18} {'metric':<16} {'A median [q1, q3]':<30} "
        f"{'B median [q1, q3]':<30} {'worse by':>8} {'bound':>6}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['workload']:<18} {r['metric']:<16} {side(r['a']):<30} "
            f"{side(r['b']):<30} {r['delta']:>+8.1%} {r['bound']:>6.0%}  "
            f"{r['verdict']} (n={r['n'][0]}/{r['n'][1]}, {r['unit']})"
        )
    return lines
