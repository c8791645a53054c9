"""Steadiness self-check: is the benchmark steadier than its own bounds?

For each workload, runs two sets of untraced runs of the same code,
interleaved (A B, B A, A B, ...) so that slow drift of the host lands in
both sets, each run with its own seed.  Per end-to-end metric it prints
each set's median and quartiles, the gap between the two medians in the
metric's worse direction, and the spread of all runs (inter-quartile
range over median), each against the bound in ``BENCHMARK.json``:

* ``gap`` must stay within the bound (two baselines of one commit must
  not look like a regression);
* ``spread`` must stay within the bound, and should stay below a third
  of it (``setup_s`` is exempt from the spread rule).

Every run's host state is kept in ``.perfbench/selfcheck-<workload>.json``
so a noisy set can be told apart from a program change.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

from perfbench.run import OUT_DIR, ROOT, benchmark_spec, kept_workloads

SEED_BASE = {"A": 1000, "B": 2000}


def _quartiles(values: List[float]):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _one_run(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", name, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} seed {seed} failed:\n{proc.stderr}")
    doc = json.loads(lines[-1])
    host = next((json.loads(line.split("host: ", 1)[1]) for line in lines
                 if line.strip().startswith("host: ")), {})
    return {"seed": seed, "result": doc, "host": host}


def selfcheck(args) -> int:
    metrics = {m["name"]: m for m in benchmark_spec()["end_to_end"]}
    names = kept_workloads() if args.workload == "all" else [args.workload]
    seconds = args.seconds
    ok = True
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in names:
        runs: Dict[str, List[Dict[str, Any]]] = {"A": [], "B": []}
        for i in range(args.runs):
            for label in ("A", "B") if i % 2 == 0 else ("B", "A"):
                run = _one_run(name, SEED_BASE[label] + i, seconds)
                runs[label].append(run)
                ok = ok and run["result"]["correct"]
                print(f"{name} set {label} seed {run['seed']}: "
                      f"{json.dumps(run['result']['metrics'])} "
                      f"steal={run['host'].get('steal_frac', 0):.3f} "
                      f"load={run['host'].get('loadavg')}", flush=True)
        with open(os.path.join(OUT_DIR, f"selfcheck-{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
        print(f"\n{name}: {args.runs} runs per set, {seconds:g} s each")
        print(f"{'metric':<16}{'set A median [q1, q3]':>32}"
              f"{'set B median [q1, q3]':>32}{'gap':>8}{'spread':>8}"
              f"{'bound':>7}  verdict")
        for metric, spec in metrics.items():
            sets = {label: [r["result"]["metrics"][metric]["value"]
                            for r in runs[label]] for label in runs}
            cells = []
            for label in ("A", "B"):
                q1, q2, q3 = _quartiles(sets[label])
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
            med_a = statistics.median(sets["A"])
            med_b = statistics.median(sets["B"])
            gap = (med_b - med_a) / med_a
            if spec["better"] == "higher":
                gap = -gap
            q1, q2, q3 = _quartiles(sets["A"] + sets["B"])
            spread = (q3 - q1) / q2
            bound = spec["bound"]
            verdict = "ok"
            if abs(gap) > bound:
                verdict = "GAP OVER BOUND"
            elif metric != "setup_s" and spread > bound:
                verdict = "SPREAD OVER BOUND"
            elif metric != "setup_s" and spread > bound / 3:
                verdict = "spread over bound/3"
            ok = ok and verdict in ("ok", "spread over bound/3")
            print(f"{metric:<16}{cells[0]:>32}{cells[1]:>32}"
                  f"{gap:>+8.3f}{spread:>8.3f}{bound:>7.2f}  {verdict}")
        print(flush=True)
    return 0 if ok else 1
