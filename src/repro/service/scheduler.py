"""Campaign-as-a-service: the asyncio job scheduler.

One process, many concurrent campaigns: :class:`CampaignScheduler`
accepts :class:`~repro.service.spec.CampaignSpec` jobs, shards each
job's fault universe, and dispatches shards onto a shared worker pool
with **priority** (higher first) and **fair share** (among equal
priorities, the job with the smallest dispatched fraction of its
universe goes next — a small campaign is never starved behind a huge
one).  The dispatcher is a single asyncio task on a dedicated
background thread, so ``submit()`` returns immediately and the calling
thread blocks only where it chooses to (``job.result()`` /
``gather()``).

This is the package's only pooled executor: ``FaultCampaign.run`` with
``workers > 1`` is one job on a private scheduler (:func:`run_hosted`).
Staging and outcome bookkeeping are the campaign's own
(:class:`repro.faults.campaign._CampaignRun`) and the workers run the
very same per-fault evaluation functions, so:

* outcomes are recorded **in fault order** per job, so progress
  callbacks, heartbeats and checkpoints see the serial sequence;
* per-fault deadlines cancel cooperatively inside workers, and a shard
  that blows past its budget is hard-killed with the pool, its faults
  re-dispatched individually and the unresponsive one recorded as a
  structured timeout;
* after a worker crash the struck faults are re-run one at a time with
  nothing else on the pool; only a fault that kills its worker twice is
  quarantined as a poison pill (innocents are exonerated, and other
  jobs' in-flight shards are re-queued intact);
* an expired campaign deadline kills the job's in-flight shards with
  the pool; outcomes already computed are kept, the rest are skipped;
* ``spec.checkpoint``/``resume`` and a shared
  :class:`~repro.service.cache.ResultCache` short-circuit any fault
  ever computed — across jobs, runs and processes.

Results are ordinary :class:`~repro.faults.campaign.CampaignResult`
objects, ``to_dict()``-identical (timing aside) to a standalone serial
run of the same spec.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import enum
import functools
import itertools
import os
import re
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import CampaignError
from repro.faults.campaign import (
    CampaignResult,
    FaultOutcome,
    _CampaignRun,
    _QUARANTINE_AFTER,
    _evaluate_fault,
    _evaluate_fault_batch,
    _graft_outcomes,
    _merge_obs,
    _picklable,
    _quarantine_outcome,
    _record_ledger,
    _timeout_outcome,
)
from repro.obs.core import OBS, event
from repro.obs.core import span as obs_span
from repro.obs.health import ServiceProgress
from repro.obs.trace import Span, TraceContext
from repro.service.cache import ResultCache
from repro.service.queue import JobRecord, PersistentJobQueue
from repro.service.spec import CampaignSpec

#: default shard size for techniques without a batched path: big enough
#: to amortise dispatch, small enough that fair-share interleaving is
#: visible between concurrent jobs.
DEFAULT_SHARD_SIZE = 4


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class CampaignJob:
    """Handle for one submitted campaign.

    ``result()`` blocks until the scheduler finishes the job and
    returns its :class:`~repro.faults.campaign.CampaignResult` (or
    raises the job's error); ``done()``/``state`` never block.
    """

    def __init__(self, job_id: str, spec: CampaignSpec,
                 priority: int) -> None:
        self.id = job_id
        self.spec = spec
        self.priority = priority
        self.state = JobState.PENDING
        self.cancel_requested = False
        #: trace context captured at submit time on the *submitting*
        #: thread, so the job's spans join the submitter's trace even
        #: though dispatch happens on the scheduler thread (where the
        #: submitter's observe() scope may not be ambient).
        self.trace_ctx: Optional[TraceContext] = None
        #: run ledger captured at submit time (same scope race).
        self.ledger: Any = None
        #: original scheduler admission seq when this job was rebuilt
        #: from the persistent queue (None for fresh submissions).
        self.recovered_seq: Optional[int] = None
        #: ``(result, job_span)`` parked by the dispatcher when the job
        #: finalised while no observation scope was ambient (the
        #: submitter may be inside ``Session.watch()``); the first
        #: ``result()`` call that runs under an enabled scope drains it
        #: so the job span still joins the gatherer's trace.
        self._pending_obs: Optional[tuple] = None
        self._obs_lock = threading.Lock()
        self._future: "concurrent.futures.Future[CampaignResult]" = \
            concurrent.futures.Future()

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> CampaignResult:
        result = self._future.result(timeout)
        self._drain_obs()
        return result

    def _drain_obs(self) -> None:
        if self._pending_obs is None or not OBS.enabled:
            return
        with self._obs_lock:
            pending, self._pending_obs = self._pending_obs, None
        if pending is None:
            return
        result, job_span = pending
        _merge_obs(result)
        if job_span is not None:
            OBS.tracer.spans.append(job_span)

    def exception(self, timeout: Optional[float] = None):
        return self._future.exception(timeout)

    def cancel(self) -> None:
        """Ask the scheduler to abandon the job at the next shard
        boundary (best effort; a completed job is unaffected)."""
        self.cancel_requested = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CampaignJob({self.id!r}, {self.state.value}, "
                f"priority={self.priority})")


@dataclass
class _Shard:
    """One dispatchable unit: a reference computation or a fault chunk."""

    kind: str                    # "ref" | "faults"
    indices: List[int] = field(default_factory=list)
    #: a single fault struck by a worker crash, awaiting its blame run
    #: (dispatched alone on the pool; see ``_fill_slots``)
    suspect: bool = False
    #: open dispatch span while the shard is in flight (None when the
    #: job is untraced); detached from any tracer until grafted.
    span: Any = field(default=None, compare=False)


class _JobRun(_CampaignRun):
    """Dispatcher-side state for one admitted job: the campaign's shared
    staging and bookkeeping plus the job's dispatch state."""

    def __init__(self, job: CampaignJob, seq: int,
                 cache: Optional[ResultCache], hosted: bool) -> None:
        self.job = job
        self.last_progress: Any = None
        super().__init__(job.spec, cache, progress=self._progress,
                         label="" if hosted else job.id)
        self.seq = seq
        self.buffered: Dict[int, FaultOutcome] = {}
        self.emit_queue: Deque[int] = deque()
        self.ready: Deque[_Shard] = deque()
        #: crash suspects awaiting their blame run
        self.suspects: Deque[_Shard] = deque()
        self.inflight = 0
        self.dispatched = 0
        self.crash_counts: Dict[int, int] = {}
        #: worker crashes this job shared with other jobs' shards, so
        #: not yet charged to it (see ``_handle_crash``)
        self.shared_crashes = 0
        self.reference: Any = job.spec.reference
        self.have_reference = job.spec.reference is not None
        self.evaluate = None
        self.evaluate_batch = None
        self.pooled = True
        self.collect_obs = False
        #: detached "service.job" span covering admission -> finalize;
        #: outcome span forests are grafted under it at finalize, when
        #: it joins the ambient tracer's forest.  Touched only on the
        #: dispatcher thread until then.
        self.job_span: Optional[Span] = None
        self.trace_ctx: Optional[TraceContext] = None
        self.deadline_hit = False
        #: what the user's progress callback raised; it fails the job
        #: (as it would a serial run), never the dispatcher
        self.error: Optional[Exception] = None

    @property
    def share(self) -> float:
        """Fraction of the universe already dispatched (fair-share
        ordering key; cached/restored faults count as dispatched)."""
        return self.dispatched / self.total if self.total else 1.0

    def shard_budget(self, shard: _Shard,
                     grace: float) -> Optional[float]:
        timeout = self.spec.fault_timeout_s
        if timeout is None or shard.kind != "faults":
            return None
        return (len(shard.indices) + 1) * timeout + grace

    def _progress(self, progress: Any) -> None:
        self.last_progress = progress
        if self.spec.progress is None or self.error is not None:
            return
        try:
            self.spec.progress(progress)
        except Exception as exc:  # noqa: BLE001 - see ``error``
            self.error = exc

    def prescreen(self, pending: List[int]) -> List[int]:
        t_pre = time.perf_counter()
        escalated = super().prescreen(pending)
        if self.job_span is not None:
            node = Span("service.prescreen",
                        attrs={"job": self.job.id,
                               "n_faults": len(pending),
                               "decided": len(pending) - len(escalated),
                               "escalated": len(escalated)},
                        t_start=t_pre)
            node.close()
            node.pid = os.getpid()
            self.job_span.children.append(node)
        return escalated

    def save_checkpoint(self, force: bool = False) -> None:
        """Checkpoint writes are best-effort inside the service: a full
        disk or failed rename costs recomputation after a crash, not
        the dispatcher."""
        try:
            super().save_checkpoint(force)
        except OSError:
            if OBS.enabled:
                OBS.metrics.counter("service.checkpoint_errors").inc()
                event("service.checkpoint_error", level="warning",
                      job=self.job.id, path=self.ckpt.path)


def _evaluate_shard(evaluate, faults: List[Any]) -> List[FaultOutcome]:
    """Worker-side driver for a per-fault shard: the same
    :func:`_evaluate_fault` partial a standalone campaign uses, applied
    in order — which is what makes scheduled results fault-for-fault
    identical to serial runs.  Module-level so the pool can pickle it."""
    return [evaluate(f) for f in faults]


def _call_reference(technique, target) -> Any:
    return technique(target)


class CampaignScheduler:
    """Async front end turning :class:`FaultCampaign` into a service.

    Parameters
    ----------
    workers:
        Worker processes shared by all jobs (default: CPU count - 1,
        at least 1, at most 8).  Jobs whose technique/detector/target
        cannot pickle run on a thread pool of the same width instead.
    cache:
        Default :class:`~repro.service.cache.ResultCache` consulted for
        every job that does not bring its own (``spec.cache`` wins).
        Sharing one cache across jobs is what makes overlapping fault
        universes free.
    shard_size:
        Faults per dispatched shard for techniques without a batched
        path (batched techniques shard at ``spec.batch_size``).
    name:
        Label used in health gauges and reports.
    queue:
        A :class:`~repro.service.queue.PersistentJobQueue` (or a path
        to create one at) making accepted jobs durable: every
        ``submit()`` is journaled *before* it is enqueued, state
        transitions are journaled as the job moves, and
        :meth:`recover` re-submits whatever a previous (killed)
        process left undone.  ``None`` (default) keeps the historical
        in-memory-only behaviour.
    """

    _ids = itertools.count(1)

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 timeout_grace_s: float = 1.0,
                 name: str = "scheduler",
                 status_path: Optional[str] = None,
                 queue: Optional[Any] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.workers = (workers if workers is not None
                        else max(1, min(8, (os.cpu_count() or 2) - 1)))
        self.cache = cache
        if queue is not None and not isinstance(queue, PersistentJobQueue):
            queue = PersistentJobQueue(os.fspath(queue))
        self.queue: Optional[PersistentJobQueue] = queue
        self.shard_size = shard_size
        self.timeout_grace_s = timeout_grace_s
        self.name = name
        # live-dashboard status file (``python -m repro.obs top`` reads
        # it); independent of OBS.enabled because watching progress
        # should not require paying for span recording
        self.status_path = (status_path if status_path is not None
                            else os.environ.get("REPRO_OBS_STATUS") or None)
        self._status_last = 0.0
        self._seq = itertools.count(1)
        self._intake: Deque[CampaignJob] = deque()
        self._intake_lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._wake: Optional[asyncio.Event] = None
        self._closing = False
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._threads: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._active: List[_JobRun] = []
        self._jobs: List[CampaignJob] = []
        #: set by :func:`run_hosted`: the scheduler serves one
        #: ``FaultCampaign.run`` call, which owns the trace, obs merge
        #: and ledger row
        self._hosted = False

    # -- public API ----------------------------------------------------
    def submit(self, spec: CampaignSpec,
               priority: Optional[int] = None) -> CampaignJob:
        """Enqueue a campaign; returns immediately with its job handle.

        ``priority`` overrides ``spec.priority`` (higher runs first).
        With a persistent queue attached the job is journaled *before*
        it is enqueued — the write-ahead contract — and a failure to
        journal raises :class:`~repro.service.queue.QueueError` rather
        than accepting work the queue would forget after a crash.
        """
        if self._closing:
            raise CampaignError("scheduler is closed")
        if not isinstance(spec, CampaignSpec):
            raise TypeError("submit() takes a CampaignSpec")
        spec.require_workload()
        resolved = spec.resolved()
        job = CampaignJob(f"{self.name}-job{next(self._ids)}", resolved,
                          spec.priority if priority is None else priority)
        if self.queue is not None:
            self.queue.submit(job.id, resolved, job.priority)
        return self._enqueue(job)

    def _enqueue(self, job: CampaignJob) -> CampaignJob:
        # trace context and ledger are captured here, on the submitting
        # thread, while the submitter's observe() scope is ambient — the
        # dispatcher thread sees a different (possibly disabled) scope
        if self._hosted:
            job.trace_ctx = TraceContext.capture()
        else:
            with obs_span("service.submit", job=job.id,
                          spec=job.spec.describe()):
                job.trace_ctx = TraceContext.capture()
        job.ledger = OBS.ledger
        self._jobs.append(job)
        self._ensure_thread()
        with self._intake_lock:
            self._intake.append(job)
        self._loop.call_soon_threadsafe(self._wake.set)
        return job

    def recover(self) -> List[CampaignJob]:
        """Re-submit every job a previous process journaled but never
        settled; returns their fresh handles, dispatch order.

        Recovered jobs keep their original id, priority and — when they
        had been admitted before the crash — their original fair-share
        seq, so the restarted schedule interleaves exactly as the
        uninterrupted one would have.  Specs carrying a checkpoint are
        resumed from it, and the shared :class:`ResultCache` replays
        every fault any earlier run already computed, which together
        make the recovered results ``to_dict()``-identical to an
        uninterrupted run.  Jobs journaled without a picklable workload
        cannot be rebuilt; they stay live in the journal (for ``queue
        requeue``/``drop``) and are counted, not raised.
        """
        if self.queue is None:
            return []
        jobs: List[CampaignJob] = []
        unrecoverable = 0
        with obs_span("service.recover", queue=self.queue.path) as sp:
            self.queue.replay()
            pending = self.queue.pending()
            self._advance_counters()
            for record in pending:
                job = self._rebuild_job(record)
                if job is None:
                    unrecoverable += 1
                    continue
                self._enqueue(job)
                jobs.append(job)
            sp.set(recovered=len(jobs), unrecoverable=unrecoverable,
                   settled=len(self.queue) - len(pending))
        if OBS.enabled:
            OBS.metrics.gauge("service.recovered_jobs").set(len(jobs))
            event("service.recover", queue=self.queue.path,
                  recovered=len(jobs), unrecoverable=unrecoverable)
        return jobs

    def _rebuild_job(self, record: JobRecord) -> Optional[CampaignJob]:
        try:
            spec = record.spec()
        except Exception as exc:  # noqa: BLE001 - journal outlived code
            warnings.warn(
                f"job {record.job_id!r} could not be rebuilt from the "
                f"queue journal ({exc}); leaving it live for operator "
                f"requeue/drop", RuntimeWarning, stacklevel=3)
            return None
        if spec.checkpoint is not None and not spec.resume:
            # the dead process may have checkpointed partial work; a
            # recovered job must harvest it rather than recompute
            spec = spec.replace(resume=True)
        job = CampaignJob(record.job_id, spec.resolved(), record.priority)
        job.recovered_seq = record.seq
        return job

    def _advance_counters(self) -> None:
        """Start the id and seq counters above everything journaled so
        recovered and fresh jobs never collide."""
        max_id = 0
        for record in self.queue.records.values():
            m = re.fullmatch(re.escape(self.name) + r"-job(\d+)",
                             record.job_id)
            if m:
                max_id = max(max_id, int(m.group(1)))
        if max_id:
            # _ids is class-level (unique across schedulers); consume
            # up to the journaled maximum, never rewind
            for i in CampaignScheduler._ids:
                if i >= max_id:
                    break
        max_seq = self.queue.max_seq()
        if max_seq >= 0:
            self._seq = itertools.count(max_seq + 1)

    def gather(self, *jobs: CampaignJob,
               timeout: Optional[float] = None) -> List[CampaignResult]:
        """Block until every job finishes; results in argument order."""
        if not jobs:
            jobs = tuple(self._jobs)
        return [job.result(timeout) for job in jobs]

    def progress(self) -> ServiceProgress:
        """Latest per-job progress snapshot (thread-safe reads of
        immutable records)."""
        snap = ServiceProgress()
        for jr in list(self._active):
            if jr.last_progress is not None:
                snap.update(jr.last_progress)
        return snap

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs; with ``wait`` (default) block until
        everything already submitted has finished, then tear down the
        loop and the pools."""
        if wait:
            for job in self._jobs:
                if not job.done():
                    try:
                        job.result()
                    except Exception:  # noqa: BLE001 - job errors are
                        pass           # surfaced via job.result(), not close
        self._closing = True
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._wake.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        for job in self._jobs:
            if not job.done():
                job._future.set_exception(
                    CampaignError("scheduler closed before job finished"))

    def __enter__(self) -> "CampaignScheduler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close(wait=exc == (None, None, None))

    # -- loop-thread plumbing ------------------------------------------
    def _ensure_thread(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._loop_ready.clear()
        self._thread = threading.Thread(target=self._thread_main,
                                        name=f"{self.name}-dispatch",
                                        daemon=True)
        self._thread.start()
        self._loop_ready.wait()

    def _thread_main(self) -> None:
        asyncio.run(self._dispatch())

    def _executor(self, jr: _JobRun):
        if jr.pooled:
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers)
            return self._pool
        if self._threads is None:
            self._threads = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix=f"{self.name}-local")
        return self._threads

    def _kill_pool(self) -> None:
        pool = self._pool
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:  # noqa: BLE001 - already dead is fine
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    # -- job admission -------------------------------------------------
    def _mark_queue(self, job: CampaignJob, transition: str,
                    seq: Optional[int] = None,
                    error: Optional[BaseException] = None) -> None:
        """Journal a state transition, best-effort (see
        :meth:`PersistentJobQueue.mark`: a lost mark only costs a
        replay-from-cache after a crash)."""
        if self.queue is None:
            return
        self.queue.mark(job.id, transition, seq=seq,
                        error=None if error is None else repr(error))

    def _admit(self, job: CampaignJob) -> None:
        seq = (next(self._seq) if job.recovered_seq is None
               else job.recovered_seq)
        cache = job.spec.cache if job.spec.cache is not None else self.cache
        try:
            jr = _JobRun(job, seq, cache, self._hosted)
            self._prepare(jr)
        except (Exception, KeyboardInterrupt, SystemExit) as exc:
            # a bad spec (or, hosted, a raising reference) fails its job
            job.state = JobState.FAILED
            self._mark_queue(job, "failed", error=exc)
            if not job.done():
                job._future.set_exception(exc)
            return
        job.state = JobState.RUNNING
        self._mark_queue(job, "dispatched", seq=jr.seq)
        self._active.append(jr)
        if not jr.emit_queue and not jr.ready and not jr.inflight:
            self._finalize(jr)

    def _prepare(self, jr: _JobRun) -> None:
        spec = jr.spec
        # collect when the dispatcher's ambient scope is enabled OR the
        # submitter's was (the submit-time context proves it); the
        # shipped snapshots are merged/grafted at finalize only if a
        # scope is still enabled there
        jr.collect_obs = OBS.enabled or jr.job.trace_ctx is not None
        if self._hosted:
            # the hosting campaign's span is the parent of every span
            # this job's workers record
            jr.trace_ctx = jr.job.trace_ctx
        elif jr.collect_obs:
            jr.job_span = Span("service.job",
                               attrs={"job": jr.job.id,
                                      "spec": spec.describe()})
            jr.job_span.pid = os.getpid()
            if jr.job.trace_ctx is not None:
                jr.job_span.attrs.update(jr.job.trace_ctx.attrs())
                jr.trace_ctx = TraceContext(
                    trace_id=jr.job.trace_ctx.trace_id,
                    parent="service.job")

        pending = jr.stage()
        jr.dispatched = len(jr.outcomes)
        jr.emit_queue = deque(pending)
        if not pending:
            return
        jr.pooled = _picklable(spec.technique, spec.detector, spec.target,
                               spec.reference, jr.fault_list)
        if not jr.have_reference and self._hosted:
            # the host waits on this job inside its campaign span, so the
            # reference runs here, in that span and obs scope, exactly
            # where a serial run computes it
            jr.reference = spec.technique(spec.target)
            jr.have_reference = True
        if jr.have_reference:
            self._build_shards(jr)
        else:
            # the fault-free reference is itself one dispatched unit,
            # so a slow reference never stalls other jobs' shards
            jr.ready.append(_Shard("ref"))

    def _build_shards(self, jr: _JobRun) -> None:
        spec = jr.spec
        args = (spec.technique, spec.detector, spec.threshold,
                spec.on_error, jr.collect_obs, spec.fault_timeout_s,
                spec.target, jr.reference, jr.trace_ctx)
        jr.evaluate = functools.partial(_evaluate_fault, *args)
        use_batch = (spec.batch_size > 1
                     and hasattr(spec.technique, "evaluate_batch"))
        if use_batch:
            jr.evaluate_batch = functools.partial(_evaluate_fault_batch,
                                                  *args)
        width = spec.batch_size if use_batch else self.shard_size
        pending = list(jr.emit_queue)
        for start in range(0, len(pending), width):
            jr.ready.append(_Shard("faults", pending[start:start + width]))

    def _emit_ready(self, jr: _JobRun) -> None:
        while jr.emit_queue and jr.emit_queue[0] in jr.buffered:
            idx = jr.emit_queue.popleft()
            jr.record(idx, jr.buffered.pop(idx))

    # -- dispatch loop -------------------------------------------------
    async def _dispatch(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._loop_ready.set()
        inflight: Dict[asyncio.Future, Tuple[_JobRun, _Shard, float]] = {}

        try:
            while True:
                if self._closing:
                    break
                self._drain_intake()
                self._sweep_deadlines(inflight)
                self._fill_slots(inflight)
                self._report_health(inflight)
                for jr in list(self._active):
                    self._maybe_finalize(jr)

                if not inflight:
                    await self._wait_for_wake()
                    continue

                await self._wait_inflight(inflight)
                self._handle_hangs(inflight)
                for jr in list(self._active):
                    self._maybe_finalize(jr)
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
            if self._threads is not None:
                self._threads.shutdown(wait=False, cancel_futures=True)

    async def _wait_for_wake(self) -> None:
        try:
            await asyncio.wait_for(self._wake.wait(), timeout=0.5)
        except asyncio.TimeoutError:
            return
        self._wake.clear()

    def _drain_intake(self) -> None:
        while True:
            with self._intake_lock:
                if not self._intake:
                    return
                job = self._intake.popleft()
            if job.cancel_requested:
                self._cancel_job(job)
            else:
                self._admit(job)

    def _cancel_job(self, job: CampaignJob,
                    jr: Optional[_JobRun] = None) -> None:
        job.state = JobState.CANCELLED
        # cancellation is an explicit decision: retire the journal
        # record so no future recovery resurrects the job
        self._mark_queue(job, "dropped")
        if jr is not None and jr in self._active:
            self._active.remove(jr)
        if not job.done():
            job._future.set_exception(CampaignError("job cancelled"))

    def _sweep_deadlines(self, inflight) -> None:
        for jr in list(self._active):
            if jr.job.cancel_requested:
                jr.ready.clear()
                self._cancel_job(jr.job, jr)
                continue
            if (jr.deadline is not None and not jr.deadline_hit
                    and jr.deadline.expired()):
                jr.deadline_hit = True
                jr.failures.deadline_hit = True
                if jr.pooled and jr.inflight:
                    # the job's shards die with the pool (a kill is
                    # pool-wide); other jobs' shards are rescued
                    self._handle_pool_break(inflight)
                jr.ready.clear()
                jr.suspects.clear()

    def _next_shard(self) -> Optional[Tuple[_JobRun, _Shard]]:
        candidates = [jr for jr in self._active if jr.ready]
        if not candidates:
            return None
        jr = min(candidates,
                 key=lambda j: (-j.job.priority, j.share, j.seq))
        return jr, jr.ready.popleft()

    def _next_suspect(self, inflight) -> Optional[Tuple[_JobRun, _Shard]]:
        """The blame pass after a worker crash: while any crash suspect
        is queued or running, suspects run one at a time with no other
        shard on the pool, so a crash can only be the running suspect's
        doing.  Returns ``None`` while the pass must wait."""
        if any(jr.pooled for jr, _, _ in inflight.values()):
            return None
        for jr in self._active:
            if jr.suspects:
                return jr, jr.suspects.popleft()
        return None

    def _fill_slots(self, inflight) -> None:
        while len(inflight) < self.workers:
            if (any(jr.suspects for jr in self._active)
                    or any(s.suspect for _, s, _ in inflight.values())):
                pick = self._next_suspect(inflight)
            else:
                pick = self._next_shard()
            if pick is None:
                return
            jr, shard = pick
            if shard.kind == "faults" and jr.cache is not None:
                # dispatch-time recheck: a concurrent job may have
                # computed some of these faults since admission
                shard = self._strip_cached(jr, shard)
                if shard is None:
                    continue
            if shard.kind == "ref":
                fn = functools.partial(_call_reference, jr.spec.technique,
                                       jr.spec.target)
            elif jr.evaluate_batch is not None and len(shard.indices) > 1:
                fn = functools.partial(
                    jr.evaluate_batch,
                    [jr.fault_list[i] for i in shard.indices])
            else:
                fn = functools.partial(
                    _evaluate_shard, jr.evaluate,
                    [jr.fault_list[i] for i in shard.indices])
            try:
                fut = self._loop.run_in_executor(self._executor(jr), fn)
            except concurrent.futures.BrokenExecutor:
                _requeue(jr, shard)
                self._handle_pool_break(inflight)
                continue
            jr.inflight += 1
            if shard.kind == "faults":
                jr.dispatched += len(shard.indices)
            if jr.job_span is not None:
                shard.span = Span("service.shard",
                                  attrs={"job": jr.job.id,
                                         "kind": shard.kind,
                                         "n_faults": len(shard.indices)})
                shard.span.pid = os.getpid()
            inflight[fut] = (jr, shard, time.monotonic())

    def _strip_cached(self, jr: _JobRun,
                      shard: _Shard) -> Optional[_Shard]:
        """Drop shard members another job already computed; returns the
        remaining shard, or ``None`` when the whole shard was served
        from the cache (hits are buffered for in-order emission)."""
        fresh: List[int] = []
        for idx in shard.indices:
            hit = jr.cached(idx, count_miss=False)
            if hit is not None:
                jr.buffered[idx] = hit
                jr.dispatched += 1
            else:
                fresh.append(idx)
        if len(fresh) == len(shard.indices):
            return shard
        self._emit_ready(jr)
        return _Shard("faults", fresh) if fresh else None

    async def _wait_inflight(self, inflight) -> None:
        now = time.monotonic()
        waits: List[float] = []
        for _, (jr, shard, t0) in inflight.items():
            budget = jr.shard_budget(shard, self.timeout_grace_s)
            if budget is not None:
                waits.append(t0 + budget - now)
        for jr in self._active:
            if jr.deadline is not None and not jr.deadline_hit:
                waits.append(jr.deadline.remaining())
        wait_s = max(0.0, min(waits)) + 0.02 if waits else 0.5

        wake_task = asyncio.ensure_future(self._wake.wait())
        done, _ = await asyncio.wait({wake_task, *inflight},
                                     timeout=wait_s,
                                     return_when=asyncio.FIRST_COMPLETED)
        if wake_task in done:
            self._wake.clear()
            done.discard(wake_task)
        else:
            wake_task.cancel()

        crashed: List[Tuple[_JobRun, _Shard]] = []
        for fut in done:
            jr, shard, t0 = inflight.pop(fut)
            jr.inflight -= 1
            try:
                payload = fut.result()
            except concurrent.futures.BrokenExecutor:
                crashed.append((jr, shard))
                continue
            except (Exception, KeyboardInterrupt, SystemExit) as exc:
                # a worker-side error fails this job only; an interrupt
                # raised in a worker rides back on its future too
                self._close_shard_span(jr, shard, failed="exception")
                self._fail_job(jr, exc)
                continue
            self._land(jr, shard, payload)
        if crashed:
            self._handle_crash(inflight, crashed)

    def _close_shard_span(self, jr: _JobRun, shard: _Shard,
                          **attrs: Any) -> None:
        """Close a shard's dispatch span and graft it under the job
        span (shards are re-dispatched with a fresh span, so requeue
        paths close the old one with a failure attribute)."""
        span, shard.span = shard.span, None
        if span is None:
            return
        if attrs:
            span.set(**attrs)
        span.close()
        if jr.job_span is not None:
            jr.job_span.children.append(span)

    def _land(self, jr: _JobRun, shard: _Shard, payload: Any) -> None:
        self._close_shard_span(jr, shard)
        if jr.job.state is not JobState.RUNNING:
            return
        if shard.kind == "ref":
            jr.reference = payload
            jr.have_reference = True
            self._build_shards(jr)
            return
        if jr.deadline_hit:
            return  # past the campaign deadline: result discarded
        for idx, outcome in zip(shard.indices, payload):
            jr.crash_counts.pop(idx, None)  # exonerated
            jr.buffered[idx] = outcome
        self._emit_ready(jr)

    # -- failure handling ----------------------------------------------
    def _fail_job(self, jr: _JobRun, exc: BaseException) -> None:
        if jr in self._active:
            self._active.remove(jr)
        jr.job.state = JobState.FAILED
        self._mark_queue(jr.job, "failed", error=exc)
        if not jr.job.done():
            jr.job._future.set_exception(exc)

    def _handle_crash(self, inflight, crashed) -> None:
        """A worker died, failing the pooled futures in flight.  Each
        crashed shard's faults take a strike and come back as
        single-fault suspects for the blame pass (:meth:`_next_suspect`);
        a fault reaching ``_QUARANTINE_AFTER`` strikes — in practice,
        crashing again while running alone — is quarantined as a poison
        pill, and innocents complete and are exonerated.  The crash is
        charged to the job when only its shards were struck; a crash
        struck across jobs is charged once blame is clear, to the job
        whose suspect then crashes alone."""
        struck = list({id(jr): jr for jr, _ in crashed}.values())
        for jr, shard in crashed:
            self._close_shard_span(jr, shard, failed="worker_crash")
            self._strike(jr, shard)
        for jr in struck:
            if len(struck) > 1:
                jr.shared_crashes += 1
                continue
            n, jr.shared_crashes = 1 + jr.shared_crashes, 0
            jr.failures.worker_crashes += n
            jr.failures.pools_killed += n
            if OBS.enabled:
                OBS.metrics.counter("campaign.worker_crashes").inc(n)
                OBS.metrics.counter("campaign.pools_killed").inc(n)
                event("campaign.worker_crash", level="error",
                      suspects=[jr.fault_list[s.indices[0]].describe()
                                for s in jr.suspects],
                      **jr.job_fields())
        self._handle_pool_break(inflight)

    def _strike(self, jr: _JobRun, shard: _Shard) -> None:
        if shard.kind == "ref":
            jr.ready.appendleft(shard)
            return
        jr.dispatched -= len(shard.indices)
        for idx in reversed(shard.indices):
            jr.crash_counts[idx] = jr.crash_counts.get(idx, 0) + 1
            if jr.crash_counts[idx] >= _QUARANTINE_AFTER:
                jr.buffered[idx] = _quarantine_outcome(
                    jr.fault_list[idx], jr.crash_counts[idx])
                jr.dispatched += 1
            else:
                jr.suspects.appendleft(_Shard("faults", [idx],
                                              suspect=True))
        self._emit_ready(jr)

    def _handle_pool_break(self, inflight) -> None:
        """Kill + rebuild the shared pool, rescuing innocent in-flight
        shards (re-queued intact, no strike)."""
        self._kill_pool()
        for fut, (jr, shard, _) in list(inflight.items()):
            if not jr.pooled:
                continue
            del inflight[fut]
            jr.inflight -= 1
            jr.failures.pools_killed += 1
            if OBS.enabled:
                OBS.metrics.counter("campaign.pools_killed").inc()
            if shard.kind == "faults":
                jr.dispatched -= len(shard.indices)
            self._close_shard_span(jr, shard, failed="pool_killed")
            _requeue(jr, shard)
            fut.add_done_callback(_swallow)

    def _handle_hangs(self, inflight) -> None:
        """A shard past its wall-clock budget missed every cooperative
        check: kill the pool, time out single-fault shards (a hung crash
        suspect too: a hang is timed out, never struck), split
        multi-fault shards for individual blame."""
        now = time.monotonic()
        hung = [(fut, jr, shard, t0)
                for fut, (jr, shard, t0) in inflight.items()
                if jr.pooled
                and (budget := jr.shard_budget(shard,
                                               self.timeout_grace_s))
                is not None and now - t0 > budget]
        if not hung:
            return
        for fut, jr, shard, t0 in hung:
            del inflight[fut]
            jr.inflight -= 1
            fut.add_done_callback(_swallow)
            self._close_shard_span(jr, shard, failed="hang")
            jr.failures.pools_killed += 1
            if OBS.enabled:
                OBS.metrics.counter("campaign.pools_killed").inc()
            if len(shard.indices) == 1:
                idx = shard.indices[0]
                jr.buffered[idx] = _timeout_outcome(
                    jr.fault_list[idx], jr.spec.fault_timeout_s,
                    now - t0, killed=True)
                self._emit_ready(jr)
            else:
                jr.dispatched -= len(shard.indices)
                for idx in reversed(shard.indices):
                    jr.ready.appendleft(_Shard("faults", [idx]))
        self._handle_pool_break(inflight)

    # -- completion ----------------------------------------------------
    def _maybe_finalize(self, jr: _JobRun) -> None:
        if jr.job.state is not JobState.RUNNING:
            return
        if jr.error is not None:
            self._fail_job(jr, jr.error)
            return
        if jr.deadline_hit:
            if jr.inflight:
                return  # thread-pool shards cannot be killed
        elif jr.ready or jr.suspects or jr.inflight or jr.emit_queue:
            return
        self._finalize(jr)

    def _finalize(self, jr: _JobRun) -> None:
        if jr in self._active:
            self._active.remove(jr)
        # outcomes that landed out of order before the campaign deadline
        # cut the job short are kept, recorded in fault order
        for idx in sorted(jr.buffered):
            jr.record(idx, jr.buffered.pop(idx))
        if jr.error is not None:
            self._fail_job(jr, jr.error)
            return
        result = jr.finish(jr.emit_queue, jr.reference, self.workers)
        if jr.job_span is not None:
            _graft_outcomes(jr.job_span, result)
            jr.job_span.close()
        if jr.collect_obs and not self._hosted:
            if OBS.enabled:
                _merge_obs(result)
                if jr.job_span is not None:
                    # the finished job span joins the ambient forest as
                    # a root: Session.report()/exports see one
                    # connected trace
                    OBS.tracer.spans.append(jr.job_span)
            else:
                # no scope is ambient on the dispatcher right now (the
                # submitter is between scopes, e.g. in watch()); park
                # the payload so the gathering thread joins it instead
                jr.job._pending_obs = (result, jr.job_span)
        jr.job.state = JobState.DONE
        if not jr.job.done():
            jr.job._future.set_result(result)
        self._mark_queue(jr.job, "done")
        if not self._hosted:
            _record_ledger(jr.job.ledger if jr.job.ledger is not None
                           else OBS.ledger, result, jr.spec, job=jr.job.id)
        self._publish_status(force=True)

    def _report_health(self, inflight) -> None:
        self._publish_status()
        if not OBS.enabled or self._hosted:
            return
        OBS.metrics.gauge("service.jobs_active").set(len(self._active))
        OBS.metrics.gauge("service.shards_inflight").set(len(inflight))
        OBS.metrics.gauge("service.queue_depth").set(
            sum(len(jr.ready) for jr in self._active))
        if self.queue is not None:
            # live (unsettled) jobs in the persistent journal — distinct
            # from queue_depth above, which counts ready shards
            OBS.metrics.gauge("service.journal_depth").set(
                self.queue.depth())
        for jr in list(self._active):
            if jr.last_progress is not None:
                # job ids flow into the metric name: the Prometheus
                # exporter sanitises them to the 0.0.4 charset
                OBS.metrics.gauge(f"service.job.{jr.job.id}.progress").set(
                    jr.last_progress.fraction)

    def _publish_status(self, force: bool = False) -> None:
        """Atomically refresh the dashboard status file (throttled;
        no-op unless a status path is configured)."""
        if self.status_path is None or self._hosted:
            return
        now = time.monotonic()
        if not force and now - self._status_last < 0.5:
            return
        self._status_last = now
        from repro.obs.dashboard import status_snapshot, write_status
        try:
            write_status(status_snapshot(self), self.status_path)
        except OSError:  # pragma: no cover - status is best-effort
            pass


def run_hosted(spec: CampaignSpec, workers: int) -> CampaignResult:
    """Run one resolved spec as the single job of a private scheduler:
    the pooled path of ``FaultCampaign.run(workers>1)``.

    The calling campaign owns the trace span, the obs merge and the
    ledger row, so the job opens no service spans, stamps no job id on
    its events, publishes no service gauges or status file, and leaves
    its outcomes' shipped obs payloads for the caller.  Each shard holds
    one fault (or one ``batch_size`` chunk), so workers pick up work
    fault by fault.
    """
    sched = CampaignScheduler(workers=workers, shard_size=1,
                              timeout_grace_s=spec.timeout_grace_s,
                              name="campaign")
    sched._hosted = True
    with sched:
        return sched.submit(spec).result()


def _requeue(jr: _JobRun, shard: _Shard) -> None:
    """Put an undelivered shard back at the head of its queue."""
    (jr.suspects if shard.suspect else jr.ready).appendleft(shard)


def _swallow(fut) -> None:
    """Consume an abandoned future's exception so asyncio never logs
    'exception was never retrieved' for shards we deliberately killed."""
    if not fut.cancelled():
        fut.exception()


__all__ = ["CampaignScheduler", "CampaignJob", "JobState",
           "DEFAULT_SHARD_SIZE"]
