#!/usr/bin/env python3
"""Steadiness check: two sets of ten runs of every workload, compared.

    python3 perfbench/steady.py

Set A runs seeds 1..10 of every workload, then set B runs seeds 11..20,
one run after another, never in parallel (about 35 minutes in all).  For
each workload and end-to-end metric it prints each set's median and
spread (the distance between the first and third quartiles,
``statistics.quantiles(values, n=4)``, as a share of the median) beside the
metric's bound, and how much worse set B's median is than set A's.

It exits non-zero when a spread or a median change exceeds its bound or
the two sets' failed shares differ.  A spread above a third of its bound
passes but is marked ``wide``: the benchmark aims to stay below it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = {"A": range(1, 11), "B": range(11, 21)}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[tuple[str, str], list[dict]] = {}
    for label, seeds in SETS.items():
        for w in names:
            runs[label, w] = []
            for seed in seeds:
                res = run_once(w, seed, spec["run_seconds"])
                runs[label, w].append(res)
                print(f"  set {label} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)

    ok = True
    for w in names:
        shares = {}
        for label in SETS:
            rs = runs[label, w]
            shares[label] = sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
        print(f"\n{w}: failed share A {shares['A']:.6g}, B {shares['B']:.6g}")
        if shares["A"] != shares["B"]:
            ok = False
            print("  FAIL: the failed shares differ")
        print(f"  {'metric':<14}{'median A':>11}{'median B':>11}{'spread A':>10}{'spread B':>10}"
              f"{'B worse':>9}{'bound':>7}  verdict")
        for metric, bound in bounds.items():
            vals = {label: [r["metrics"][metric]["value"] for r in runs[label, w]]
                    for label in SETS}
            med = {label: statistics.median(v) for label, v in vals.items()}
            spr = {label: spread(v) for label, v in vals.items()}
            worse = med["B"] / med["A"] - 1.0
            if max(spr.values()) > bound or worse > bound:
                verdict, ok = "FAIL", False
            else:
                verdict = "wide" if max(spr.values()) > bound / 3 else "ok"
            print(f"  {metric:<14}{med['A']:>11.5g}{med['B']:>11.5g}{spr['A']:>10.4f}"
                  f"{spr['B']:>10.4f}{worse:>+9.4f}{bound:>7.2f}  {verdict}", flush=True)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
