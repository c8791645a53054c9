"""Fault-campaign benchmark: one seeded workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig4_op1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --selfcheck --workload all --runs 5
    python3 perfbench/run.py --write-expected

``--trace 0`` measures the workload untraced (``obs=False``) and prints
the end-to-end metrics; ``--trace 1`` measures half the time untraced and
half with ``Session(obs=True)`` and the layer shims installed, and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it name every metric the way a reader of the paper's workloads
would (``faults_per_s``, ``job_p50_s``, ``warm_job_p50_s`` ...) and record
the host's state.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts set-up time
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
#: operation time between two host-speed samples (see calibrate.py)
CALIBRATE_EVERY_S = 0.25
_clock = time.perf_counter


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- host state ---------------------------------------------------------
def _cpu_ticks() -> Dict[str, int]:
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()[1:]
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
             "steal")
    return {n: int(v) for n, v in zip(names, fields)}


def host_state(before: Dict[str, int]) -> Dict[str, Any]:
    """CPU ticks spent idle and stolen since ``before``, and the load
    average: a diagnostic recorded next to every run, never a gate."""
    after = _cpu_ticks()
    delta = {k: after[k] - before.get(k, 0) for k in after}
    total = sum(delta.values()) or 1
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = [float(x) for x in fh.read().split()[:3]]
    return {"steal_ticks": delta.get("steal", 0),
            "idle_ticks": delta["idle"],
            "steal_frac": delta.get("steal", 0) / total,
            "idle_frac": delta["idle"] / total,
            "loadavg": load, "ncpu": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0))}


# -- memory -------------------------------------------------------------
def _vm_hwm_kb(pid: Any) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children() -> List[int]:
    pids: List[int] = []
    task_dir = "/proc/self/task"
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "children"),
                      encoding="ascii") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return pids


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of every live child (the
    scheduler's pool workers), in MB."""
    own = _vm_hwm_kb("self") or resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_vm_hwm_kb(p) for p in _children())) / 1024.0


# -- measuring ----------------------------------------------------------
def _loop(workload, seconds: float, calibrator):
    """Closed loop: run operations until ``seconds`` have passed; the
    operation in flight at the deadline is finished and counted.  The
    host-speed kernel is sampled before the first operation, after every
    ``CALIBRATE_EVERY_S`` of operation time and after the last one; each
    operation gets the ``scale`` of the samples that bracket it.  Also
    returns the peak RSS read after ``workload.rss_ops`` operations (or
    at the end, if the run is shorter)."""
    from perfbench.workloads import Op

    ops = []
    spans = []
    rss = None
    calibrator.sample()
    since = 0.0
    t0 = _clock()
    while _clock() - t0 < seconds:
        start = _clock()
        try:
            op = workload.op()
        except Exception as exc:  # noqa: BLE001 - a raising op is a failure
            print(f"operation failed: {exc!r}", file=sys.stderr)
            ops.append(Op(_clock() - start, 0, False, "failed"))
            spans.append((start, _clock()))
            break
        ops.append(op)
        spans.append((start, _clock()))
        since += op.latency_s
        if len(ops) == workload.rss_ops:
            rss = peak_rss_mb()
        if since >= CALIBRATE_EVERY_S:
            calibrator.sample()
            since = 0.0
    t1 = _clock()
    if since:
        calibrator.sample()
    for op, (start, end) in zip(ops, spans):
        op.ref_s = op.latency_s * calibrator.scale(start, end)
    return ops, t0, t1, peak_rss_mb() if rss is None else rss


def _split(ops, attr: str = "latency_s") -> Dict[str, List[float]]:
    by_kind: Dict[str, List[float]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(getattr(op, attr))
    return by_kind


def _rate(ops, attr: str) -> float:
    """Items completed per second of operation time (calibration pauses
    between operations excluded)."""
    busy = sum(getattr(op, attr) for op in ops)
    return sum(op.items for op in ops) / busy if busy else 0.0


def _named(workload, ops) -> Dict[str, Any]:
    """The issue's workload-specific metric names in wall seconds, with
    sample counts."""
    by_kind = _split(ops)
    rate = _rate(ops, "latency_s")
    named: Dict[str, Any] = {}
    if workload.item == "device":
        named["devices_per_s"] = (rate, "1/s")
        named["device_p50_s"] = (_median(by_kind.get("device", [])), "s",
                                 len(by_kind.get("device", [])))
    else:
        named["faults_per_s"] = (rate, "1/s")
    if "job" in by_kind:
        named["job_p50_s"] = (_median(by_kind["job"]), "s",
                              len(by_kind["job"]))
    for kind in ("cold", "warm"):
        if kind in by_kind:
            lat = sorted(by_kind[kind])
            named[f"{kind}_job_p50_s"] = (_median(lat), "s", len(lat))
            # a percentile needs ten samples beyond it
            if len(lat) >= 100:
                named[f"{kind}_job_p90_s"] = (
                    statistics.quantiles(lat, n=10)[-1], "s", len(lat))
    return named


def measure(name: str, seed: int, seconds: float, work_dir: str,
            import_s: float) -> Dict[str, Any]:
    """The untraced run: set up ``SETUP_REPEATS`` times (the last set-up
    is kept), then measure for ``seconds``.  Every timing metric is in
    reference seconds (see calibrate.py); the named wall-second figures
    are printed beside them."""
    from perfbench.calibrate import REF_KERNEL_S, Calibrator
    from perfbench.workloads import WORKLOADS

    calibrator = Calibrator()
    # imports ran before the first sample could be taken
    import_ref_s = import_s * REF_KERNEL_S / calibrator.sample()
    setups, wall_setups = [], []
    for i in range(SETUP_REPEATS):
        workload = WORKLOADS[name](seed, work_dir, seconds)
        t0 = _clock()
        workload.setup(obs=False)
        t1 = _clock()
        calibrator.sample()
        wall_setups.append(t1 - t0)
        setups.append((t1 - t0) * calibrator.scale(t0, t1))
        if i < SETUP_REPEATS - 1:
            workload.close()
    ticks = _cpu_ticks()
    try:
        ops, _, _, rss = _loop(workload, seconds, calibrator)
    finally:
        workload.close()
    host = host_state(ticks)
    host["calib_s"] = calibrator.mean()
    primary = _split(ops, "ref_s").get(workload.primary, [])
    metrics = {
        "items_per_ref_s": (_rate(ops, "ref_s"), "1/ref_s"),
        "op_p50_ref_s": (_median(primary), "ref_s"),
        # in reference seconds as well, though named in seconds
        "setup_s": (import_ref_s + _median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    named = _named(workload, ops)
    named["setup_wall_s"] = (import_s + _median(wall_setups), "s")
    return {"ops": ops, "metrics": metrics, "host": host,
            "named": named}


#: program counters (from ``observe()``) reported as layer counts
PROGRAM_COUNTERS = (
    "solver.newton_iterations", "transient.steps", "transient.subdivisions",
    "mna.lu_factorizations", "batched.lockstep_steps",
    "campaign.faults_evaluated", "campaign.errors", "cache.hits",
    "cache.misses", "cache.stores",
)
#: benchmark-side counts
SHIM_COUNTERS = ("signals.waveform_calls", "faults.inject_calls",
                 "adc.integrate_cycles", "service.queue.appends")


def measure_traced(name: str, seed: int, seconds: float,
                   work_dir: str) -> Dict[str, Any]:
    """Half the time untraced, then the same workload traced: the layer
    split of the traced half and the tracing overhead between them."""
    from perfbench.calibrate import Calibrator
    from perfbench.layers import Recorder
    from perfbench.workloads import WORKLOADS, Dictionary
    from repro.obs.core import observe

    calibrator = Calibrator()

    half = seconds / 2.0
    plain = WORKLOADS[name](seed, work_dir, half)
    plain.setup(obs=False)
    try:
        plain_ops, _, _, _ = _loop(plain, half, calibrator)
    finally:
        plain.close()

    spans_dir = tempfile.mkdtemp(prefix="spans-", dir=work_dir)
    recorder = Recorder(spans_dir)
    recorder.install()
    traced = WORKLOADS[name](seed, work_dir, half)
    ticks = _cpu_ticks()
    try:
        with observe() as outer:
            traced.setup(obs=True)
            session = traced.session
            before = (session.metrics.counter_values()
                      if session is not None else {})
            fabricate_s = recorder.reset()
            ops, t0, t1, _ = _loop(traced, half, calibrator)
            split = recorder.attribute(
                t0, t1, session.tracer if session is not None
                else outer.tracer, calibrator.spans)
            counters = dict(outer.metrics.counter_values())
            if session is not None:
                for k, v in session.metrics.counter_values().items():
                    counters[k] = counters.get(k, 0) + v - before.get(k, 0)
    finally:
        traced.close()
        recorder.uninstall()
    host = host_state(ticks)

    counts = split.pop("counts")
    trace_dir = os.path.join(OUT_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    with open(os.path.join(trace_dir, f"{name}-seed{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"window": [t0, t1], "counts": counts,
                   "segments": split.pop("segments")}, fh)
    layer: Dict[str, Any] = {}
    for key, value in split.items():
        layer[key] = (value, "s")
    layer["process.fabricate_s"] = (fabricate_s, "s")
    for key in SHIM_COUNTERS:
        layer[key] = (counts.get(key, 0), "count")
    for key in PROGRAM_COUNTERS:
        layer[key] = (counters.get(key, 0) + counts.get(key, 0), "count")
    newton = layer["solver.newton_iterations"][0]
    steps = layer["transient.steps"][0]
    layer["solver.newton_per_step"] = (newton / steps if steps else 0.0,
                                       "ratio")
    simulated = (layer["campaign.faults_evaluated"][0]
                 - layer["cache.hits"][0])
    # lockstep steps / steps per march = variants marched in lockstep
    marches = layer["batched.lockstep_steps"][0] / round(Dictionary.T_STOP
                                                         / Dictionary.DT)
    layer["batched.lockstep_frac"] = (marches / simulated if simulated
                                      else 0.0, "ratio")
    lookups = layer["cache.hits"][0] + layer["cache.misses"][0]
    layer["service.cache.hit_frac"] = (layer["cache.hits"][0] / lookups
                                       if lookups else 0.0, "ratio")
    job_s = sum(op.latency_s for op in ops if op.kind in ("job", "cold"))
    layer["faults.reference_share"] = (
        layer["faults.reference_s"][0] / job_s if job_s else 0.0, "ratio")
    layer["obs.overhead_frac"] = (_rate(plain_ops, "ref_s")
                                  / _rate(ops, "ref_s") - 1.0, "ratio")
    layer["host.calib_s"] = (calibrator.mean(), "s")
    warm = _split(plain_ops).get("warm", [])
    layer["service.warm_job_p50_s"] = (_median(warm), "s")
    layer["ops"] = (len(ops), "count")
    return {"ops": plain_ops + ops, "metrics": layer, "host": host,
            "named": {}}


# -- entry points ---------------------------------------------------------
def _check_checkout() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src!r}; run from the "
              f"root of a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [src, ROOT]


def pin_cpus(n: int) -> None:
    """Pin this process, and every thread and worker it starts later, to
    its ``n`` highest CPUs.  The calibration kernel runs in this process
    and a pooled job in a worker: with one worker, on one CPU, both see
    the same host speed, and a closed loop with one client keeps only one
    of them busy at a time."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[-n:])


def run_one(args) -> int:
    from perfbench.workloads import WORKLOADS

    pin_cpus(WORKLOADS[args.workload].workers)
    # the program's modules every workload uses; set-up time counts them
    import repro.experiments.e5_batch10  # noqa: F401
    import repro.experiments.e7_fig4_detection  # noqa: F401
    import repro.faults.dictionary  # noqa: F401
    import repro.service.scheduler  # noqa: F401
    import_s = _clock() - _PROCESS_T0
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds,
                                    work_dir)
        else:
            result = measure(args.workload, args.seed, args.seconds,
                             work_dir, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = result["ops"]
    failed = sum(not op.ok for op in ops)
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: {len(ops)} operations")
    for key, (value, unit, *n) in result["named"].items():
        suffix = f" (n={n[0]})" if n else ""
        print(f"  {key} = {value:.6g} {unit}{suffix}")
    if ops:
        print(f"  failed_frac = {failed / len(ops):.6g} ratio "
              f"({failed}/{len(ops)})")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key} = {value:.6g} {unit}")
    print(f"  host: {json.dumps(result['host'])}")
    doc = {
        "correct": failed == 0 and bool(ops),
        "attempted": max(1, len(ops)),
        "failed": failed if ops else 1,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "seconds": args.seconds,
                             "host": result["host"], **doc}) + "\n")
    print(json.dumps(doc), flush=True)
    return 0


def benchmark_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: kept workloads, run length, metric bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def kept_workloads() -> List[str]:
    return [w["name"] for w in benchmark_spec()["workloads"]]


def run_all(args) -> int:
    """Every workload ``BENCHMARK.json`` keeps, each in its own process."""
    ok = True
    for name in kept_workloads():
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, check=False)
        ok = ok and proc.returncode == 0
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="two interleaved sets of runs per workload")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set in --selfcheck")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate perfbench/expected_fig4.json")
    args = parser.parse_args(argv)
    _check_checkout()
    from perfbench.workloads import WORKLOADS

    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.write_expected:
        from perfbench.workloads import write_expected_fig4
        os.makedirs(OUT_DIR, exist_ok=True)
        work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
        try:
            write_expected_fig4(work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return 0
    if args.selfcheck:
        from perfbench.selfcheck import selfcheck
        return selfcheck(args)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(WORKLOADS)} or all)")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
