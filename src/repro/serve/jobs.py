"""Resumable study jobs: asynchronous sweep execution with checkpointing.

A :class:`JobManager` turns a typed :class:`~repro.api.types.StudySpec`
into a *study job*: the spec decomposes into ``len(models) * len(sigmas)``
independent **cells** — one seeded
:class:`~repro.api.types.EnsembleRequest` each — executed concurrently
against any backend that speaks the typed protocol (an in-process
:class:`~repro.serve.service.InferenceService`, a
:class:`~repro.serve.cluster.PlanCluster`, or a ``repro.api`` client over
HTTP).  Because a seeded ensemble is a pure function of its request, every
cell is idempotent: re-running one after a worker death, a timeout, or a
whole manager restart produces the exact same bits.

That idempotence is what the durability story leans on:

* after every completed cell the job's partial results are checkpointed to
  ``{checkpoint_dir}/{job_id}.json`` via atomic write-rename, so a crash
  can never leave a torn checkpoint — readers see the previous complete
  snapshot or the new one;
* a self-healing cluster rides out a SIGKILLed replica inside the
  request (replica failover, then a wait for the respawn), so a worker
  death costs a cell latency, never the cell; what still surfaces as a
  transient failure — :class:`~repro.api.errors.ApiConnectionError` and
  :class:`~repro.api.errors.ApiTimeout` from a remote backend, or
  :class:`~repro.api.errors.WorkerDied` from a cluster without
  ``auto_restart`` or past its timeout — retries the *cell* with capped
  exponential backoff;
* :meth:`JobManager.resume` re-indexes the checkpoint directory on
  startup and re-enqueues only the missing cells of interrupted jobs, so
  a manager restart re-executes nothing that already completed.

The final :class:`~repro.api.types.StudyResult` orders cells model-major /
sigma-minor — the spec's decomposition order — regardless of completion
or resume order, so an interrupted-and-resumed study is bit-identical to
an uninterrupted one.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type

import numpy as np

from repro.api.codec import (
    decode_study_cell,
    decode_study_spec,
    encode_study_cell,
    encode_study_spec,
)
from repro.api.errors import (
    ApiConnectionError,
    ApiError,
    ApiTimeout,
    ModelNotFound,
    WorkerDied,
    error_for,
    map_exception,
)
from repro.api.types import (
    EnsembleRequest,
    EnsembleResult,
    StudyCellResult,
    StudyResult,
    StudySpec,
    StudyStatus,
)
from repro.obs import MetricsRegistry, log_event

_LOG = logging.getLogger("repro.serve.jobs")

#: Error classes worth retrying a cell over: the backend (or the network
#: path to it) hiccuped, but the request itself is fine.  Everything else
#: — InvalidRequest, ModelNotFound, auth, and a ``WorkerDied`` whose
#: circuit breaker is open — fails the job immediately.
RETRYABLE_ERRORS: Tuple[Type[ApiError], ...] = (
    WorkerDied, ApiConnectionError, ApiTimeout,
)

#: Checkpoint document schema version.
CHECKPOINT_FORMAT = 1

#: Job ids must be filesystem- and request-id-grammar-safe.
_JOB_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._\-]{0,63}$")


def _cell_from_ensemble(
    result: EnsembleResult,
    sigma_fraction: float,
    labels: Optional[np.ndarray],
) -> StudyCellResult:
    """Fold one ensemble response into its study cell (scored if labelled)."""
    predictions = np.asarray(result.predictions)
    accuracy: Optional[float] = None
    if labels is not None:
        accuracy = float((predictions == labels).mean())
    return StudyCellResult(
        model=result.model,
        bits=result.bits,
        mapping=result.mapping,
        sigma_fraction=float(sigma_fraction),
        mean_logits=np.asarray(result.mean_logits),
        predictions=predictions,
        confidence=np.asarray(result.confidence, dtype=np.float64),
        accuracy=accuracy,
    )


class _Job:
    """Mutable in-memory state of one study job (guarded by ``lock``)."""

    def __init__(self, job_id: str, spec: StudySpec) -> None:
        self.job_id = job_id
        self.spec = spec
        self.state = "running"
        self.cells: Dict[int, StudyCellResult] = {}
        self.retries = 0
        self.error: Optional[ApiError] = None
        self.lock = threading.Lock()
        self.done_event = threading.Event()
        #: Cells restored from a checkpoint rather than executed here —
        #: the resume tests assert zero re-executions through these.
        self.resumed_cells = 0
        self.executed_cells = 0

    @property
    def total(self) -> int:
        return self.spec.cell_count


class JobManager:
    """Asynchronous study-job executor over one typed backend.

    Parameters
    ----------
    backend:
        Anything with an ``ensemble_request(request)`` method (service,
        cluster, or another client); falls back to ``ensemble(request)``
        for ``repro.api`` clients.
    checkpoint_dir:
        Directory for per-job checkpoint files (atomic write-rename after
        every completed cell).  ``None`` disables persistence — jobs then
        live only as long as the manager.
    max_workers:
        Concurrent cells in flight (per manager).
    cell_retries:
        Transient-failure retries per cell before the job fails.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to export job counters into
        (instruments are get-or-create, so sharing a server's registry is
        safe); a private registry is created when omitted.
    """

    def __init__(
        self,
        backend: Any,
        checkpoint_dir: Optional[object] = None,
        max_workers: int = 2,
        cell_retries: int = 10,
        retry_backoff: float = 0.05,
        retry_backoff_cap: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if cell_retries < 0:
            raise ValueError("cell_retries must be non-negative")
        if retry_backoff < 0 or retry_backoff_cap < 0:
            raise ValueError("retry backoffs must be non-negative")
        self.backend = backend
        call = getattr(backend, "ensemble_request", None)
        if not callable(call):
            call = getattr(backend, "ensemble")
        self._ensemble: Callable[[EnsembleRequest], EnsembleResult] = call
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(str(checkpoint_dir))
        )
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.cell_retries = cell_retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        self._jobs: Dict[str, _Job] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="study-cell"
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._build_instruments()

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def _build_instruments(self) -> None:
        self._m_cells = self.metrics.counter(
            "repro_study_cells_total",
            "Study cells finished, by outcome (ok/error/resumed).",
            labels=("outcome",),
        )
        self._m_retries = self.metrics.counter(
            "repro_study_cell_retries_total",
            "Transient-failure retries of study cells (worker death, "
            "connection loss, timeout).",
        )
        self._m_checkpoints = self.metrics.counter(
            "repro_study_checkpoint_writes_total",
            "Atomic checkpoint writes (one per completed cell plus one per "
            "submit/terminal transition).",
        )
        try:
            self.metrics.register_callback(
                "repro_study_jobs",
                "gauge",
                "Study jobs known to this manager, by state.",
                self._collect_job_states,
            )
        except ValueError:
            pass  # registry shared with another manager; one exporter wins

    def _collect_job_states(self) -> List[Tuple[Mapping[str, str], float]]:
        with self._lock:
            jobs = list(self._jobs.values())
        counts = {"running": 0, "done": 0, "failed": 0, "cancelled": 0}
        for job in jobs:
            with job.lock:
                counts[job.state] = counts.get(job.state, 0) + 1
        return [({"state": state}, float(count))
                for state, count in sorted(counts.items())]

    # ------------------------------------------------------------------ #
    # Submission and execution
    # ------------------------------------------------------------------ #
    def submit(self, spec: StudySpec, job_id: Optional[str] = None) -> str:
        """Start a study job; returns its id immediately.

        Cells execute on the manager's worker pool; poll :meth:`status`
        or block on :meth:`wait` for the result.
        """
        if self._closed:
            raise RuntimeError("job manager is closed")
        if not isinstance(spec, StudySpec):
            raise map_exception(
                TypeError(f"submit takes a StudySpec, not {type(spec).__name__}")
            )
        if job_id is None:
            job_id = uuid.uuid4().hex[:16]
        elif not _JOB_ID.match(job_id):
            raise map_exception(ValueError(f"invalid job id {job_id!r}"))
        job = _Job(job_id, spec)
        with self._lock:
            if job_id in self._jobs:
                raise map_exception(
                    ValueError(f"job id {job_id!r} already exists")
                )
            self._jobs[job_id] = job
        self._checkpoint(job)
        log_event(_LOG, "study_submitted", job_id=job_id,
                  cells=job.total, models=len(spec.models),
                  sigmas=len(spec.sigmas), num_samples=spec.num_samples)
        self._enqueue_missing(job)
        return job_id

    def _enqueue_missing(self, job: _Job) -> None:
        with job.lock:
            if job.state != "running":
                return
            missing = [index for index in range(job.total)
                       if index not in job.cells]
        if not missing:
            self._finish_if_complete(job)
            return
        for index in missing:
            self._executor.submit(self._run_cell, job, index)

    def _cell_request(self, job: _Job, index: int) -> EnsembleRequest:
        selector, sigma = job.spec.cell(index)
        return EnsembleRequest(
            images=job.spec.images,
            model=selector.model,
            mapping=selector.mapping,
            bits=selector.bits,
            sigma_fraction=sigma,
            num_samples=job.spec.num_samples,
            seed=job.spec.seed,
            request_id=f"{job.job_id}-c{index}",
        )

    def _run_cell(self, job: _Job, index: int) -> None:
        with job.lock:
            if job.state != "running" or index in job.cells:
                return
        if self._closed:
            return
        request = self._cell_request(job, index)
        attempt = 0
        while True:
            try:
                result = self._ensemble(request)
                break
            except RETRYABLE_ERRORS as error:
                if isinstance(error, WorkerDied) and error.breaker_open:
                    # Every owner crash-looped: no retry can succeed until
                    # an operator re-admits a replica.
                    self._fail(job, error)
                    return
                with job.lock:
                    if job.state != "running":
                        return
                    job.retries += 1
                self._m_retries.inc()
                attempt += 1
                if attempt > self.cell_retries or self._closed:
                    self._fail(job, map_exception(error))
                    return
                log_event(_LOG, "study_cell_retry", level=logging.WARNING,
                          job_id=job.job_id, cell=index, attempt=attempt,
                          error=type(error).__name__)
                time.sleep(min(
                    self.retry_backoff * (2 ** (attempt - 1)),
                    self.retry_backoff_cap,
                ))
            except ApiError as error:
                self._fail(job, error)
                return
            except Exception as error:  # noqa: BLE001 - fold to typed
                self._fail(job, map_exception(error))
                return
        _, sigma = job.spec.cell(index)
        cell = _cell_from_ensemble(result, sigma, job.spec.labels)
        with job.lock:
            if job.state != "running" or index in job.cells:
                return
            job.cells[index] = cell
            job.executed_cells += 1
        self._m_cells.inc(outcome="ok")
        self._checkpoint(job)
        self._finish_if_complete(job)

    def _finish_if_complete(self, job: _Job) -> None:
        with job.lock:
            if job.state != "running" or len(job.cells) < job.total:
                return
            job.state = "done"
        self._checkpoint(job)
        job.done_event.set()
        log_event(_LOG, "study_done", job_id=job.job_id, cells=job.total,
                  retries=job.retries, executed=job.executed_cells,
                  resumed=job.resumed_cells)

    def _fail(self, job: _Job, error: ApiError) -> None:
        with job.lock:
            if job.state != "running":
                return
            job.state = "failed"
            job.error = error
        self._m_cells.inc(outcome="error")
        self._checkpoint(job)
        job.done_event.set()
        log_event(_LOG, "study_failed", level=logging.WARNING,
                  job_id=job.job_id, code=error.code, error=error.message)

    # ------------------------------------------------------------------ #
    # Checkpointing and resume
    # ------------------------------------------------------------------ #
    def _checkpoint(self, job: _Job) -> None:
        """Atomically persist the job's current state (write-rename).

        The snapshot *and* the rename happen under the job lock, so a
        later snapshot can never be overwritten by an earlier one racing
        it — checkpoints only ever move forward.
        """
        directory = self.checkpoint_dir
        if directory is None:
            return
        with job.lock:
            document: Dict[str, Any] = {
                "format": CHECKPOINT_FORMAT,
                "job_id": job.job_id,
                "state": job.state,
                "retries": job.retries,
                "spec": encode_study_spec(job.spec),
                "cells": {
                    str(index): encode_study_cell(cell)
                    for index, cell in sorted(job.cells.items())
                },
            }
            if job.error is not None:
                document["error"] = {
                    "code": job.error.code,
                    "message": job.error.message,
                }
            payload = json.dumps(document)
            path = directory / f"{job.job_id}.json"
            tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, path)
        self._m_checkpoints.inc()

    def resume(self) -> List[str]:
        """Re-index the checkpoint directory and restart unfinished jobs.

        Completed and failed jobs load back queryable; interrupted jobs
        re-enqueue **only** their missing cells (completed cells are
        restored verbatim, counted under the ``resumed`` outcome).
        Returns the ids of jobs that resumed execution.
        """
        directory = self.checkpoint_dir
        if directory is None:
            return []
        resumed: List[str] = []
        for path in sorted(directory.glob("*.json")):
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                log_event(_LOG, "study_checkpoint_unreadable",
                          level=logging.WARNING, path=str(path))
                continue
            job = self._load_checkpoint(document)
            if job is None:
                continue
            with self._lock:
                if job.job_id in self._jobs:
                    continue
                self._jobs[job.job_id] = job
            if job.state == "running":
                resumed.append(job.job_id)
                log_event(_LOG, "study_resumed", job_id=job.job_id,
                          done=len(job.cells), total=job.total)
                self._enqueue_missing(job)
            else:
                job.done_event.set()
        return resumed

    def _load_checkpoint(self, document: Any) -> Optional[_Job]:
        try:
            if not isinstance(document, dict):
                raise ValueError("checkpoint must be an object")
            if int(document.get("format", 0)) != CHECKPOINT_FORMAT:
                raise ValueError(
                    f"unsupported checkpoint format {document.get('format')!r}"
                )
            job_id = str(document["job_id"])
            spec = decode_study_spec(document["spec"])
            job = _Job(job_id, spec)
            job.retries = int(document.get("retries", 0))
            cells = document.get("cells", {})
            if not isinstance(cells, dict):
                raise ValueError("cells must be an object")
            for index_text, cell_body in cells.items():
                index = int(index_text)
                if not 0 <= index < job.total:
                    raise ValueError(f"cell index {index} out of range")
                job.cells[index] = decode_study_cell(cell_body)
            job.resumed_cells = len(job.cells)
            if job.resumed_cells:
                self._m_cells.inc(float(job.resumed_cells), outcome="resumed")
            state = str(document.get("state", "running"))
            if state == "done" and len(job.cells) == job.total:
                job.state = "done"
            elif state == "failed":
                job.state = "failed"
                error = document.get("error") or {}
                job.error = error_for(
                    str(error.get("code", "internal")), 500,
                    str(error.get("message", "study failed")),
                )
            elif state == "cancelled":
                # Terminal: a cancelled job never resumes execution, but
                # its status (and partial cell count) stays queryable.
                job.state = "cancelled"
            return job
        except Exception as error:  # noqa: BLE001 - skip, don't crash startup
            log_event(_LOG, "study_checkpoint_invalid",
                      level=logging.WARNING, error=str(error))
            return None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _get(self, job_id: str) -> _Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ModelNotFound(f"no study job {job_id!r}")
        return job

    def status(self, job_id: str) -> StudyStatus:
        """Progress snapshot; carries the result once the job is done."""
        job = self._get(job_id)
        with job.lock:
            result: Optional[StudyResult] = None
            if job.state == "done":
                result = StudyResult(
                    job_id=job.job_id,
                    cells=tuple(job.cells[index] for index in range(job.total)),
                    num_samples=job.spec.num_samples,
                    seed=job.spec.seed,
                )
            return StudyStatus(
                job_id=job.job_id,
                state=job.state,
                cells_total=job.total,
                cells_done=len(job.cells),
                retries=job.retries,
                error_code=None if job.error is None else job.error.code,
                error_message=None if job.error is None else job.error.message,
                result=result,
            )

    def cancel(self, job_id: str) -> StudyStatus:
        """Cancel a running job; idempotent; returns the resulting status.

        A running job flips to the terminal ``"cancelled"`` state: queued
        and in-flight cells drop out at their next state check (their
        results are discarded, never recorded), the checkpoint records the
        terminal state so a restart cannot revive the job, and waiters
        unblock.  Cancelling a job that is already done, failed, or
        cancelled changes nothing and answers the current status; an
        unknown id raises the typed 404
        (:class:`~repro.api.errors.ModelNotFound`), exactly like
        :meth:`status`.
        """
        job = self._get(job_id)
        with job.lock:
            flipped = job.state == "running"
            if flipped:
                job.state = "cancelled"
            done_cells = len(job.cells)
        if flipped:
            self._checkpoint(job)
            job.done_event.set()
            log_event(_LOG, "study_cancelled", job_id=job.job_id,
                      done=done_cells, total=job.total)
        return self.status(job_id)

    def job_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._jobs)

    def execution_counts(self, job_id: str) -> Dict[str, int]:
        """How the job's cells were obtained (resume accounting for tests)."""
        job = self._get(job_id)
        with job.lock:
            return {
                "executed": job.executed_cells,
                "resumed": job.resumed_cells,
                "retries": job.retries,
            }

    def wait(self, job_id: str, timeout: Optional[float] = None) -> StudyStatus:
        """Block until the job reaches a terminal state."""
        job = self._get(job_id)
        if not job.done_event.wait(timeout):
            raise ApiTimeout(
                f"study job {job_id!r} still running after {timeout}s"
            )
        return self.status(job_id)

    def close(self) -> None:
        """Stop executing; unfinished jobs stay resumable on disk."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
