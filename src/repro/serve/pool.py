"""The warm worker pool: dispatch, liveness, kill-and-requeue.

:class:`WorkerPool` owns N long-lived ``spawn`` worker processes (see
:mod:`repro.serve.worker`) and a monitor thread. The contract it gives
the job layer is *graceful degradation with unchanged results* — the
same guarantee campaign resume gives across process kills, carried
into a live service:

* every submitted task eventually gets exactly one terminal callback
  (``done`` or ``error``), even if the worker running it is SIGKILLed;
* a killed worker is detected by the monitor's liveness sweep, its
  in-flight task is re-queued at the *front* of the backlog (it was
  next in line before the kill), and a replacement worker is spawned;
* because tasks are pure functions of their payloads (see
  :func:`repro.serve.worker.execute_task`), the re-run produces a
  record byte-identical to what the killed run would have produced.

Design notes:

* ``spawn`` start method, always — workers are forked from a process
  that is already running server threads, and ``fork`` + threads is a
  deadlock lottery. Spawn also makes the "warm imports" claim honest:
  the worker pays its import cost at startup, visibly, once.
* **per-worker queues in both directions.** A shared result queue
  would serialize writers through one lock; a worker SIGKILLed while
  holding it (mid-``put`` of a large record) would wedge every other
  worker — exactly the failure ``concurrent.futures`` resolves by
  declaring the whole pool broken. Private queues confine the damage:
  a kill can only corrupt the dead worker's own channel, which is
  drained best-effort and dropped.
* the monitor thread is the only place pool state changes after
  construction; callbacks fire *outside* the pool lock so the job
  layer can take its own locks freely.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing
import queue as queue_module
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.errors import ServeError
from repro.obs.prometheus import MetricsRegistry
from repro.serve.worker import worker_main

__all__ = ["WorkerPool", "PoolTask"]


@dataclass
class PoolTask:
    """Bookkeeping for one submitted task."""

    task_id: int
    kind: str
    payload: dict
    callback: Callable[[str, Optional[dict]], None]
    state: str = "queued"  # queued | dispatched | running | done | error
    worker: Optional[int] = None
    requeues: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "error")


@dataclass
class _Worker:
    """One live worker process and its private channels."""

    worker_id: int
    process: multiprocessing.process.BaseProcess
    tasks: object  # mp.Queue of (task_id, kind, payload)
    results: object  # mp.Queue of (tag, worker_id, task_id, info)
    busy: Optional[int] = None  # task_id dispatched to it, if any
    warm: bool = False  # has it reported "ready" (imports done)?
    stats: dict = field(default_factory=lambda: {"done": 0, "errors": 0})


class WorkerPool:
    """A fixed-size pool of warm worker processes.

    Parameters
    ----------
    workers:
        Pool size (≥ 1). Each worker is one OS process kept alive for
        the lifetime of the pool.
    poll_interval:
        Monitor cadence in seconds: how often result queues are drained
        and worker liveness is checked. The ceiling on kill-detection
        latency.
    metrics:
        Optional :class:`~repro.obs.prometheus.MetricsRegistry`. When
        given, the pool publishes lifecycle counters
        (``repro_pool_workers_spawned_total`` / ``_died_total``,
        ``repro_pool_tasks_done_total`` / ``_error_total`` /
        ``_requeued_total``, ``repro_pool_broken_total``), a
        ``repro_pool_task_seconds`` histogram, and render-time gauges
        for the :meth:`describe` fields (alive/warm/busy/backlog).
    """

    #: A task killed this many times stops being requeued and errors
    #: out instead — some payloads deterministically crash the worker
    #: (OOM kills), and requeueing those forever would wedge the job.
    MAX_REQUEUES = 3

    #: Consecutive dead-before-warm workers tolerated before the pool
    #: declares itself broken (the environment cannot start workers at
    #: all — e.g. a spawn context with no importable ``__main__``).
    MAX_CRASH_STREAK = 8

    def __init__(
        self,
        workers: int = 2,
        *,
        poll_interval: float = 0.05,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ServeError(f"worker pool needs at least one worker, got {workers}")
        self.size = workers
        self.poll_interval = poll_interval
        self.metrics = metrics
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._tasks: dict[int, PoolTask] = {}
        self._backlog: collections.deque[int] = collections.deque()
        self._workers: dict[int, _Worker] = {}
        self._task_ids = itertools.count(1)
        self._worker_ids = itertools.count(1)
        self._closed = threading.Event()
        self._crash_streak = 0
        self._broken = False
        if metrics is not None:
            self._register_metrics(metrics)
        with self._lock:
            for _ in range(workers):
                self._spawn_worker()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-serve-pool", daemon=True
        )
        self._monitor.start()

    def _register_metrics(self, metrics: MetricsRegistry) -> None:
        """Describe the counter families and hook up describe() gauges."""
        for name, help_text in (
            ("repro_pool_workers_spawned_total", "Worker processes started"),
            ("repro_pool_workers_died_total", "Worker processes found dead"),
            ("repro_pool_tasks_done_total", "Tasks finished successfully"),
            ("repro_pool_tasks_error_total", "Tasks finished in error"),
            ("repro_pool_tasks_requeued_total", "Tasks requeued after a worker death"),
            ("repro_pool_broken_total", "Times the pool declared itself broken"),
            ("repro_pool_task_seconds", "Wall seconds per completed pool task"),
        ):
            metrics.describe(name, help_text)
            if not name.endswith("_seconds"):
                metrics.inc(name, 0)  # surface the family before first event
        for field_name in ("alive", "warm", "busy", "backlog"):
            gauge = f"repro_pool_workers_{field_name}"
            if field_name == "backlog":
                gauge = "repro_pool_backlog"
            metrics.describe(gauge, f"Pool describe() field: {field_name}")
            metrics.gauge(
                gauge, lambda field_name=field_name: self.describe()[field_name]
            )

    def _metric_inc(self, name: str, value: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        payload: dict,
        callback: Callable[[str, Optional[dict]], None],
    ) -> int:
        """Queue one task; returns its pool-level task id.

        ``callback(event, info)`` fires from the monitor thread with
        ``event`` in ``"started"`` / ``"requeued"`` / ``"done"`` /
        ``"error"``; ``info`` carries ``record``/``seconds`` for
        ``done`` and ``message`` for ``error``. Exactly one terminal
        event is delivered per task.
        """
        if self._closed.is_set():
            raise ServeError("worker pool is shut down")
        if self._broken:
            raise ServeError(
                "worker pool is broken: workers crash before becoming ready"
            )
        with self._lock:
            task_id = next(self._task_ids)
            self._tasks[task_id] = PoolTask(
                task_id=task_id, kind=kind, payload=payload, callback=callback
            )
            self._backlog.append(task_id)
            self._dispatch_locked()
        return task_id

    def busy_pids(self) -> list[int]:
        """PIDs of workers with a dispatched task (kill these mid-job)."""
        with self._lock:
            return [
                w.process.pid
                for w in self._workers.values()
                if w.busy is not None and w.process.pid is not None
            ]

    def describe(self) -> dict:
        """Pool health snapshot for the ``/v1/health`` endpoint."""
        with self._lock:
            return {
                "size": self.size,
                "alive": sum(
                    1 for w in self._workers.values() if w.process.is_alive()
                ),
                "warm": sum(1 for w in self._workers.values() if w.warm),
                "busy": sum(
                    1 for w in self._workers.values() if w.busy is not None
                ),
                "backlog": len(self._backlog),
                "completed": sum(
                    w.stats["done"] for w in self._workers.values()
                ),
            }

    def shutdown(self) -> None:
        """Terminate workers and stop the monitor (idempotent)."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._monitor.join(timeout=5.0)
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        for worker in workers:
            try:
                worker.tasks.put_nowait(None)
            except Exception:
                pass
        for worker in workers:
            worker.process.terminate()
        for worker in workers:
            worker.process.join(timeout=2.0)
            for channel in (worker.tasks, worker.results):
                try:
                    channel.cancel_join_thread()
                    channel.close()
                except Exception:
                    pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Internals (monitor thread)
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> None:
        """Start one worker (caller holds the lock)."""
        worker_id = next(self._worker_ids)
        tasks = self._ctx.Queue()
        results = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, tasks, results),
            name=f"repro-serve-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = _Worker(
            worker_id=worker_id, process=process, tasks=tasks, results=results
        )
        self._metric_inc("repro_pool_workers_spawned_total")

    def _dispatch_locked(self) -> None:
        """Hand backlog tasks to idle workers (caller holds the lock)."""
        if not self._backlog:
            return
        for worker in self._workers.values():
            if not self._backlog:
                return
            if worker.busy is not None or not worker.process.is_alive():
                continue
            task_id = self._backlog.popleft()
            task = self._tasks[task_id]
            task.state = "dispatched"
            task.worker = worker.worker_id
            worker.busy = task_id
            worker.tasks.put((task_id, task.kind, task.payload))

    def _monitor_loop(self) -> None:
        while not self._closed.is_set():
            fired = self._drain_results()
            fired += self._reap_dead()
            for callback, event, info in fired:
                try:
                    callback(event, info)
                except Exception:  # a job-layer bug must not kill the pool
                    pass
            if not fired:
                self._closed.wait(self.poll_interval)

    def _drain_results(self) -> list[tuple]:
        """Pull every pending message off every worker's result queue."""
        fired: list[tuple] = []
        with self._lock:
            for worker in list(self._workers.values()):
                while True:
                    try:
                        message = worker.results.get_nowait()
                    except (queue_module.Empty, OSError, EOFError):
                        break
                    fired.extend(self._handle_locked(worker, message))
            self._dispatch_locked()
        return fired

    def _handle_locked(self, worker: _Worker, message: tuple) -> list[tuple]:
        """Apply one worker message; returns callbacks to fire."""
        tag, _worker_id, task_id, info = message
        if tag == "ready":
            worker.warm = True
            self._crash_streak = 0
            return []
        task = self._tasks.get(task_id)
        if task is None:
            worker.busy = None
            return []
        if tag == "started":
            # A late "started" from a pre-requeue run must not resurrect
            # a task another worker already finished.
            if not task.terminal and task.worker == worker.worker_id:
                task.state = "running"
                return [(task.callback, "started", None)]
            return []
        # Terminal message: the worker is idle again either way.
        worker.busy = None
        worker.stats["done" if tag == "done" else "errors"] += 1
        self._metric_inc(
            "repro_pool_tasks_done_total"
            if tag == "done"
            else "repro_pool_tasks_error_total"
        )
        if tag == "done" and self.metrics is not None and info:
            self.metrics.observe_seconds(
                "repro_pool_task_seconds", float(info.get("seconds", 0.0))
            )
        if task.terminal:
            # Duplicate terminal (a requeued task's first run finished
            # right before its worker died): results are deterministic,
            # so dropping the duplicate is lossless.
            return []
        task.state = "done" if tag == "done" else "error"
        return [(task.callback, tag, info)]

    def _reap_dead(self) -> list[tuple]:
        """Detect killed workers: requeue their task, spawn replacements."""
        fired: list[tuple] = []
        with self._lock:
            dead = [
                w for w in self._workers.values() if not w.process.is_alive()
            ]
            for worker in dead:
                # A final message may have beaten the kill; honor it so a
                # completed task is not pointlessly re-run.
                while True:
                    try:
                        message = worker.results.get_nowait()
                    except (queue_module.Empty, OSError, EOFError):
                        break
                    fired.extend(self._handle_locked(worker, message))
                lost_id = worker.busy
                self._metric_inc("repro_pool_workers_died_total")
                if not worker.warm:
                    self._crash_streak += 1
                del self._workers[worker.worker_id]
                for channel in (worker.tasks, worker.results):
                    try:
                        channel.cancel_join_thread()
                        channel.close()
                    except Exception:
                        pass
                if lost_id is not None:
                    task = self._tasks.get(lost_id)
                    if task is not None and not task.terminal:
                        task.worker = None
                        if task.requeues >= self.MAX_REQUEUES:
                            # This payload keeps killing workers; stop
                            # feeding it to fresh ones.
                            task.state = "error"
                            self._metric_inc("repro_pool_tasks_error_total")
                            fired.append(
                                (
                                    task.callback,
                                    "error",
                                    {
                                        "message": (
                                            "task killed its worker "
                                            f"{task.requeues + 1} times; giving up"
                                        )
                                    },
                                )
                            )
                        else:
                            task.state = "queued"
                            task.requeues += 1
                            self._backlog.appendleft(lost_id)
                            self._metric_inc("repro_pool_tasks_requeued_total")
                            fired.append((task.callback, "requeued", None))
                if self._crash_streak >= self.MAX_CRASH_STREAK:
                    fired.extend(self._break_locked())
                else:
                    self._spawn_worker()
            if dead:
                self._dispatch_locked()
        return fired

    def _break_locked(self) -> list[tuple]:
        """Give up on a crash-looping environment: fail everything queued."""
        self._broken = True
        self._metric_inc("repro_pool_broken_total")
        fired: list[tuple] = []
        message = (
            "worker pool is broken: workers crash before becoming ready "
            f"({self._crash_streak} consecutive startup failures)"
        )
        while self._backlog:
            task = self._tasks[self._backlog.popleft()]
            if not task.terminal:
                task.state = "error"
                self._metric_inc("repro_pool_tasks_error_total")
                fired.append((task.callback, "error", {"message": message}))
        return fired
