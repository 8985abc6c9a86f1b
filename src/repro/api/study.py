"""The Fig. 6 variation study, driven through the ``repro.api`` facade.

:func:`variation_sweep_via_client` sweeps accuracy versus device-variation
sigma against *any* :class:`~repro.api.client.Client`.  Each point scores
the *majority-vote* prediction of one seeded Monte-Carlo ensemble (as
:class:`~repro.api.types.StudyCellResult` says), not the paper's mean of
per-draw accuracies; :func:`repro.train.evaluate.variation_sweep` is the
path that reports that mean.  It is a thin wrapper
over the asynchronous study-job subsystem (:mod:`repro.serve.jobs`): the
sweep is submitted as one :class:`~repro.api.types.StudySpec`, executed as
checkpointed, resumable cells, and folded back into the same
:class:`ClientSweepResult` rows as before.  Because every cell is a pure
function of the seeded request, the sweep result is bit-identical whether
it ran in-process, over HTTP, or against a cluster — and whether the job
ran straight through or was killed and resumed half-way.

:func:`wait_study` is the blocking half of the async pair: poll a
submitted job until it finishes and return its typed
:class:`~repro.api.types.StudyResult` (or resurrect the job's typed error).

(The training side of Fig. 6 still lives in
:func:`repro.experiments.fig6.run_variation_study`; this module covers the
inference sweep over *published* plans, the part a deployment actually
re-runs.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.client import Client
from repro.api.errors import ApiTimeout, error_for
from repro.api.types import StudyResult, StudySpec, study_spec


@dataclass(frozen=True)
class SigmaPoint:
    """One operating point of a sweep: accuracy and vote stability at a sigma."""

    sigma_fraction: float
    accuracy: float
    mean_confidence: float
    stable_fraction: float


@dataclass(frozen=True)
class ClientSweepResult:
    """Accuracy versus device-variation sigma for one served plan."""

    model: str
    bits: Optional[int]
    mapping: str
    num_samples: int
    seed: int
    points: Tuple[SigmaPoint, ...]

    @property
    def sigmas(self) -> List[float]:
        return [point.sigma_fraction for point in self.points]

    @property
    def accuracies(self) -> List[float]:
        return [point.accuracy for point in self.points]

    def as_rows(self) -> List[str]:
        """Formatted rows, one per sigma point (same shape as Fig. 6 rows)."""
        name = f"{self.model}/{self.mapping}"
        return [
            f"{name:16s} sigma={point.sigma_fraction * 100.0:5.1f}%  "
            f"accuracy={point.accuracy * 100.0:6.2f}%  "
            f"stable={point.stable_fraction * 100.0:5.1f}%"
            for point in self.points
        ]


def wait_study(
    client: Client,
    job_id: str,
    timeout: Optional[float] = 120.0,
    poll_interval: float = 0.05,
) -> StudyResult:
    """Poll ``job_id`` on ``client`` until it finishes; typed result out.

    A failed job resurrects its typed error (the same
    :class:`~repro.api.errors.ApiError` subclass the failing cell raised);
    a job cancelled server-side (``client.cancel_study`` /
    ``DELETE /v1/studies/{id}``) raises
    :class:`~repro.api.errors.BackendClosed` — cancelled is terminal, the
    result will never arrive; a job still running at ``timeout`` raises
    :class:`~repro.api.errors.ApiTimeout` — the job itself keeps running
    (and checkpointing), so a later :meth:`Client.get_study` can still
    collect it.
    """
    deadline = (
        None if timeout is None else time.monotonic() + float(timeout)
    )
    while True:
        status = client.get_study(job_id)
        if status.failed:
            raise error_for(
                status.error_code or "server_error", 500,
                status.error_message or f"study job {job_id!r} failed",
            )
        if status.cancelled:
            raise error_for(
                "backend_closed", 503,
                f"study job {job_id!r} was cancelled",
            )
        if status.done and status.result is not None:
            return status.result
        if deadline is not None and time.monotonic() >= deadline:
            raise ApiTimeout(
                f"study job {job_id!r} still running after {timeout}s "
                f"({status.cells_done}/{status.cells_total} cells done)"
            )
        time.sleep(poll_interval)


def variation_sweep_via_client(
    client: Client,
    images: Any,
    labels: Any,
    *,
    model: str,
    mapping: str,
    bits: Optional[int] = None,
    sigmas: Sequence[float] = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25),
    num_samples: int = 25,
    seed: int = 0,
    timeout: Optional[float] = 600.0,
) -> ClientSweepResult:
    """Sweep ensemble accuracy over ``sigmas`` for one published plan.

    The sweep is one single-model :class:`StudySpec` submitted through
    :meth:`Client.submit_study`: each sigma becomes one checkpointed cell,
    accuracy scores the majority-vote predictions against ``labels``, and
    the confidence statistics summarise how stable the votes are under
    that much device variation.  Cells are seeded and idempotent, so the
    rows are bit-identical to issuing the ensembles synchronously — and
    survive a worker or manager death mid-sweep.
    """
    image_array = np.asarray(images)
    label_array = np.asarray(labels)
    if label_array.ndim != 1 or image_array.shape[0] != label_array.shape[0]:
        raise ValueError(
            f"labels must be one per image; got images {image_array.shape} "
            f"and labels {label_array.shape}"
        )
    spec: StudySpec = study_spec(
        images=image_array,
        models=[(model, mapping, bits)],
        sigmas=[float(sigma) for sigma in sigmas],
        num_samples=num_samples,
        seed=seed,
        labels=label_array,
    )
    job_id = client.submit_study(spec)
    result = wait_study(client, job_id, timeout=timeout)
    points: List[SigmaPoint] = []
    for cell in result.cells:
        confidence = np.asarray(cell.confidence, dtype=np.float64)
        accuracy = (
            cell.accuracy
            if cell.accuracy is not None
            else float(
                (np.asarray(cell.predictions) == label_array).mean()
            )
        )
        points.append(SigmaPoint(
            sigma_fraction=float(cell.sigma_fraction),
            accuracy=float(accuracy),
            mean_confidence=float(confidence.mean()),
            stable_fraction=float((confidence == 1.0).mean()),
        ))
    return ClientSweepResult(
        model=model,
        bits=bits,
        mapping=mapping,
        num_samples=num_samples,
        seed=seed,
        points=tuple(points),
    )
