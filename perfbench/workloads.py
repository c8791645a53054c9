"""The benchmark's four workloads, driven through the public API.

Each workload is a closed loop with one client: :meth:`Workload.op` runs
one operation to completion and checks its output before the next one
starts.  Inputs come only from the workload seed.  ``setup`` builds the
inputs, starts whatever the workload runs on and performs one minimal
warm-up operation (a single fault or a single device).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import shutil
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

_clock = time.perf_counter

#: the fig4 detection series per LFSR seed, committed with the benchmark
EXPECTED_FIG4 = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected_fig4.json")
#: a job that takes longer than this counts as failed (and ends the run)
OP_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One finished operation: its latency, the work items it completed
    (fault verdicts or devices), whether its output checked out, its
    class (``job``, ``device``, ``cold`` or ``warm``), and its latency in
    reference seconds (set by the measuring loop, see calibrate.py)."""

    latency_s: float
    items: int
    ok: bool
    kind: str
    ref_s: float = 0.0


def strip_elapsed(doc: Any) -> Any:
    """A ``to_dict()`` payload without its wall-clock ``elapsed_s``
    fields (the only part of a payload that may differ between runs)."""
    if isinstance(doc, dict):
        return {k: strip_elapsed(v) for k, v in doc.items()
                if k != "elapsed_s"}
    if isinstance(doc, list):
        return [strip_elapsed(v) for v in doc]
    return doc


class Workload:
    """Base class: ``setup``, repeated ``op`` calls, ``close``."""

    #: pool workers of its Session (none run on adc_bist); a run is
    #: pinned to this many CPUs
    workers = 1
    #: what ``items_per_ref_s`` counts on this workload
    item = "item"
    #: the operation class ``op_p50_ref_s`` is taken over
    primary = "job"
    #: ``peak_rss_mb`` is read after this many operations (a fixed amount
    #: of work, well inside one run): the scheduler keeps every finished
    #: job, so memory read at the end of a run would grow with speed
    rss_ops = 1

    def __init__(self, seed: int, work_dir: str, seconds: float) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.seconds = seconds
        self.rng = random.Random(seed)
        self.session: Any = None

    def setup(self, obs: bool) -> None:
        raise NotImplementedError

    def op(self) -> Op:
        raise NotImplementedError

    def close(self) -> None:
        if self.session is not None:
            self.session.shutdown()
            self.session = None

    def _run_job(self, *args: Any, **options: Any):
        job = self.session.submit(*args, **options)
        result, = self.session.gather(job, timeout=OP_TIMEOUT_S)
        return result


class Fig4(Workload):
    """A stream of the paper's Figure 4 circuit-1 campaigns: the 16
    ``paper_circuit1_faults`` on the transistor-level OP1 under the PRBS
    correlation technique, each job with an LFSR seed (1-15) drawn from
    the workload seed.  No cache, no journal.

    Job cost depends on the LFSR seed, from 2.1 to 3.9 reference
    seconds, and a run holds only about ten jobs.  So the seeds are
    drawn in rounds of five, one from each of the ``COST_STRATA`` in a
    seeded order: every run then sees the same mix of cheap and dear
    jobs, and every seed comes up once in three rounds."""

    #: the 15 LFSR seeds by job cost, in strata of three: the median of
    #: three runs of each, in reference seconds, was 2.10-2.89 for the
    #: first stratum and 3.44-3.93 for the last
    COST_STRATA = ((15, 7, 3), (5, 11, 2), (9, 6, 10), (1, 4, 13),
                   (12, 14, 8))

    item = "fault"
    primary = "job"
    rss_ops = 4

    def __init__(self, seed: int, work_dir: str, seconds: float) -> None:
        super().__init__(seed, work_dir, seconds)
        self.lfsr_seeds: List[int] = []
        self.rounds = 0
        self.strata = [self.rng.sample(st, len(st))
                       for st in self.COST_STRATA]

    def setup(self, obs: bool) -> None:
        with open(EXPECTED_FIG4, encoding="utf-8") as fh:
            self.expected = {int(k): v for k, v in json.load(fh).items()}
        self.start(obs)
        self._run_job(self.technique(1), self.detector, self.target,
                      self.faults[:1], threshold=0.05)

    def start(self, obs: bool) -> None:
        from repro import Session
        from repro.circuits.op1 import op1_follower
        from repro.core.detection import detection_instances
        from repro.experiments.e7_fig4_detection import CIRCUIT1_REL_THRESHOLD
        from repro.faults.universe import paper_circuit1_faults

        self.target = op1_follower(input_value=2.5)
        self.faults = paper_circuit1_faults()
        # a partial (not E7's lambda) so pool workers can unpickle it
        self.detector = functools.partial(
            detection_instances, rel_threshold=CIRCUIT1_REL_THRESHOLD)
        self.session = Session(obs=obs, workers=self.workers)

    @staticmethod
    def technique(lfsr_seed: int):
        from repro.core.transient_test import TransientResponseTester
        from repro.experiments.e7_fig4_detection import CIRCUIT1_CONFIG

        config = dataclasses.replace(CIRCUIT1_CONFIG, seed=lfsr_seed)
        return TransientResponseTester(config).technique()

    def series(self, lfsr_seed: int) -> List[float]:
        """Run one campaign and return its detection fractions."""
        result = self._run_job(self.technique(lfsr_seed), self.detector,
                               self.target, self.faults, threshold=0.05)
        return [o.detection for o in result.outcomes]

    def op(self) -> Op:
        if not self.lfsr_seeds:
            self.lfsr_seeds = [st[self.rounds % len(st)]
                               for st in self.strata]
            self.rng.shuffle(self.lfsr_seeds)
            self.rounds += 1
        lfsr_seed = self.lfsr_seeds.pop()
        t0 = _clock()
        result = self._run_job(self.technique(lfsr_seed), self.detector,
                               self.target, self.faults, threshold=0.05)
        latency = _clock() - t0
        expected = self.expected[lfsr_seed]
        got = [o.detection for o in result.outcomes]
        ok = (result.n_errors == 0
              and result.n_detected == len(self.faults)
              and len(got) == len(expected)
              and all(abs(a - b) <= 1e-9 for a, b in zip(got, expected)))
        return Op(latency, result.n_faults, ok, "job")


class AdcBist(Workload):
    """Monte Carlo dual-slope ADC devices from ``Batch.fabricate`` in a
    fixed 4:1 mix of in-spec devices and E5's gross-defect devices, each
    screened with ``BISTController.run_all``.  Good devices must pass
    and defective ones fail (E5's invariant)."""

    item = "device"
    primary = "device"
    rss_ops = 10

    def setup(self, obs: bool) -> None:
        from repro.adc.dual_slope import DualSlopeADC
        from repro.core.bist import BISTController
        from repro.experiments.e5_batch10 import (
            GOOD_VARIATION,
            _defective_factory,
        )
        from repro.process.batch import Batch
        from repro.process.variation import VariationModel

        # more devices than a run can screen (about one per second)
        blocks = int(self.seconds) + 2
        good = Batch(DualSlopeADC, VariationModel(
            GOOD_VARIATION, seed=self.seed)).fabricate(4 * blocks)
        bad = Batch(_defective_factory, VariationModel(
            GOOD_VARIATION, seed=self.seed + 1)).fabricate(blocks)
        self.devices: List[Tuple[Any, bool]] = []
        for b in range(blocks):
            block = [(d.model, True) for d in good[4 * b:4 * b + 4]]
            block.insert(self.rng.randrange(5), (bad[b].model, False))
            self.devices.extend(block)
        self.next = 0
        self.controller = BISTController()
        self.controller.run_all(DualSlopeADC())

    def op(self) -> Op:
        model, good = self.devices[self.next % len(self.devices)]
        self.next += 1
        t0 = _clock()
        report = self.controller.run_all(model)
        latency = _clock() - t0
        return Op(latency, 1, report.passed == good, "device")


class Dictionary(Workload):
    """64-fault ``dictionary_ladder(10)`` dictionary campaigns through a
    journalled, disk-cached Session (``batch_size=64``, one worker).
    Cold and warm jobs strictly alternate: a cold job uses a fresh
    seeded ladder resistance (a field the cache key covers), a warm job
    exactly repeats a seeded earlier cold spec."""

    item = "fault"
    primary = "cold"
    rss_ops = 40
    T_STOP = 3.1e-3
    DT = 1e-6

    def setup(self, obs: bool) -> None:
        from repro import Session
        from repro.faults.dictionary import (
            SignatureDetector,
            TransientSignatureTechnique,
            dictionary_faults,
        )
        from repro.service.cache import ResultCache

        self.dir = os.path.join(self.work_dir, f"dictionary-{id(self)}")
        os.makedirs(self.dir)
        self.session = Session(
            obs=obs, workers=self.workers,
            cache=ResultCache(path=os.path.join(self.dir, "cache")),
            queue_path=os.path.join(self.dir, "queue.jsonl"))
        self.technique = TransientSignatureTechnique(
            t_stop=self.T_STOP, dt=self.DT, node="n9")
        self.detector = SignatureDetector(abs_v=0.05)
        self.faults = dictionary_faults(n_sections=10, n_faults=64)
        #: cold resistance -> its payload without elapsed_s
        self.cold: Dict[int, Dict[str, Any]] = {}
        self.cold_order: List[int] = []
        self.next_warm = False
        # warm-up: one fault, on a resistance the stream never draws
        self._job(100, self.faults[:1])

    def _job(self, r_ohm: int, faults):
        from repro.faults.dictionary import dictionary_ladder

        return self._run_job(self.technique, self.detector,
                             dictionary_ladder(10, r_ohm=float(r_ohm)),
                             faults, batch_size=64)

    def op(self) -> Op:
        warm, self.next_warm = self.next_warm, not self.next_warm
        if warm:
            r_ohm = self.rng.choice(self.cold_order)
        else:
            r_ohm = self.rng.randrange(500, 100_000)
            while r_ohm in self.cold:
                r_ohm = self.rng.randrange(500, 100_000)
        t0 = _clock()
        result = self._job(r_ohm, self.faults)
        latency = _clock() - t0
        stats = result.cache_stats
        payload = strip_elapsed(result.to_dict())
        if warm:
            ok = stats.hits == len(self.faults) and payload == self.cold[r_ohm]
        else:
            ok = (stats.hits == 0 and stats.misses == len(self.faults)
                  and result.n_errors == 0)
            self.cold[r_ohm] = payload
            self.cold_order.append(r_ohm)
        return Op(latency, result.n_faults, ok, "warm" if warm else "cold")

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.dir, ignore_errors=True)


class Fig4Pooled(Fig4):
    """The fig4_op1 job stream on two workers."""

    workers = 2


#: workload name -> class, called as ``(seed, work_dir, seconds)``
WORKLOADS = {
    "fig4_op1": Fig4,
    "adc_bist": AdcBist,
    "dictionary_service": Dictionary,
    "fig4_pooled": Fig4Pooled,
}


def write_expected_fig4(work_dir: str) -> Dict[int, List[float]]:
    """Regenerate the committed fig4 detection series (LFSR seeds 1-15)
    from a serial run of the current program."""
    bench = Fig4(0, work_dir, 0.0)
    bench.start(obs=False)
    try:
        series = {seed: bench.series(seed) for seed in range(1, 16)}
    finally:
        bench.close()
    with open(EXPECTED_FIG4, "w", encoding="utf-8") as fh:
        json.dump({str(k): v for k, v in series.items()}, fh, indent=1)
        fh.write("\n")
    return series
