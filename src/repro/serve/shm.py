"""Shared-memory array transport for the plan cluster's pipe protocol.

Large request/response arrays crossing the :class:`~repro.serve.cluster.
PlanCluster` process boundary do not need to ride the pickle stream: a
pickled ndarray is copied at least twice per hop (serialise into the pipe,
deserialise out of it) and squeezed through the kernel's pipe buffer in
64 KiB chunks.  Instead, arrays at or above a size threshold are *offloaded*
into a named ``multiprocessing.shared_memory`` segment and replaced in the
message by a tiny :class:`ShmRef` descriptor ``(name, dtype, shape)``; the
receiver attaches the segment, copies the bytes out once, and unlinks it.
Bytes move exactly once per direction and the payload is bit-identical by
construction — the descriptor carries the full dtype string (including
byte order), and the copy is a straight ``memcpy``.

Segment lifecycle is explicit, not left to the interpreter:

* every segment this module creates is immediately *unregistered* from the
  stdlib ``resource_tracker`` — the tracker's automatic cleanup fires at
  unpredictable times (e.g. when a SIGKILL'd worker's tracker reaps its
  registry) and would race the receiving process's attach;
* the **receiver** unlinks a segment right after copying it out (consuming
  a descriptor is destructive);
* senders keep a per-endpoint :class:`SegmentStats` ledger and name every
  segment under a per-endpoint prefix, so when a process dies without
  consuming (or without its replies being consumed), the surviving side
  unlinks the in-flight segments it tracked *and* sweeps ``/dev/shm`` for
  the dead endpoint's prefix (:func:`cleanup_prefix`).  This is what keeps
  a SIGKILL'd worker from leaking segments.

The helpers are deliberately transport-shaped rather than cluster-shaped:
:func:`offload_payload` / :func:`restore_payload` walk the small set of
message shapes the cluster protocol actually sends — bare ndarrays and the
array-carrying frozen request/result dataclasses of :mod:`repro.api.types`
— leaving everything else to pickle untouched.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Default offload threshold (bytes).  Below it, pickling through the pipe
#: is cheaper than two segment syscalls; above it the extra copies dominate.
DEFAULT_SHM_THRESHOLD = 1 << 16

#: Where POSIX shared memory is visible as files on Linux; the leak
#: regression tests (and :func:`cleanup_prefix`) scan it directly.
SHM_DIR = "/dev/shm"


@dataclasses.dataclass(frozen=True)
class ShmRef:
    """Descriptor of one offloaded array: segment name, dtype string, shape.

    The dtype string is ``ndarray.dtype.str`` (it includes byte order), so
    reconstruction is bit-exact on any endianness-matched host — and the
    cluster's workers are forks/spawns of the same interpreter on the same
    machine by construction.
    """

    name: str
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        size = np.dtype(self.dtype).itemsize
        for extent in self.shape:
            size *= extent
        return size


class SegmentStats:
    """Thread-safe counters for one endpoint's shared-memory traffic."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.segments_created = 0
        self.segments_consumed = 0
        self.segments_cleaned = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def created(self, nbytes: int) -> None:
        with self._lock:
            self.segments_created += 1
            self.bytes_sent += nbytes

    def consumed(self, nbytes: int) -> None:
        with self._lock:
            self.segments_consumed += 1
            self.bytes_received += nbytes

    def cleaned(self, count: int) -> None:
        with self._lock:
            self.segments_cleaned += count

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "segments_created": self.segments_created,
                "segments_consumed": self.segments_consumed,
                "segments_cleaned": self.segments_cleaned,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
            }


def _untrack(name: str) -> None:
    """Remove one segment from the stdlib resource tracker's registry.

    Cleanup here is explicit and accounted; the tracker's end-of-process
    sweep would otherwise unlink segments still awaiting their receiver
    (and spam warnings for the ones we already unlinked ourselves).
    """
    try:
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def offload_array(
    array: np.ndarray, name: str, stats: Optional[SegmentStats] = None
) -> ShmRef:
    """Copy ``array`` into a named segment; returns its descriptor.

    The creating side closes its mapping immediately — the segment lives in
    the kernel until the receiver (or a cleanup sweep) unlinks it.
    """
    contiguous = np.ascontiguousarray(array)
    nbytes = max(1, contiguous.nbytes)  # shm segments cannot be 0-sized
    segment = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
    _untrack(segment.name)
    try:
        view = np.ndarray(contiguous.shape, dtype=contiguous.dtype,
                          buffer=segment.buf)
        view[...] = contiguous
        del view
    finally:
        segment.close()
    if stats is not None:
        stats.created(contiguous.nbytes)
    return ShmRef(name=name, dtype=contiguous.dtype.str,
                  shape=tuple(contiguous.shape))


def restore_array(ref: ShmRef, stats: Optional[SegmentStats] = None) -> np.ndarray:
    """Copy a descriptor's bytes back out and unlink the segment.

    Consuming is destructive: the segment is gone afterwards, so a
    descriptor can be restored exactly once.  Raises ``FileNotFoundError``
    when the segment no longer exists (its creator died and was swept).
    """
    segment = shared_memory.SharedMemory(name=ref.name, create=False)
    _untrack(segment.name)
    try:
        view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                          buffer=segment.buf)
        array = np.array(view, copy=True)
        del view
    finally:
        segment.close()
        unlink_segment(ref.name)
    if stats is not None:
        stats.consumed(array.nbytes)
    return array


def unlink_segment(name: str) -> bool:
    """Best-effort unlink of one segment; True if it existed."""
    try:
        shared_memory.SharedMemory(name=name, create=False).unlink()
        return True
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - vanished mid-unlink
        return False


def list_segments(prefix: str) -> List[str]:
    """Names of the live segments under ``prefix`` (empty off-Linux)."""
    try:
        entries = os.listdir(SHM_DIR)
    except OSError:  # pragma: no cover - non-Linux or masked /dev/shm
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))


def cleanup_prefix(prefix: str, stats: Optional[SegmentStats] = None) -> int:
    """Unlink every segment whose name starts with ``prefix``.

    The survivor's sweep after an endpoint died: any segment the dead
    process created but nobody consumed matches its prefix and is removed
    here.  Returns the number of segments actually unlinked.
    """
    removed = sum(1 for name in list_segments(prefix) if unlink_segment(name))
    if removed and stats is not None:
        stats.cleaned(removed)
    return removed


def _offload_candidate(value: Any, threshold: int) -> bool:
    return (
        isinstance(value, np.ndarray)
        and not value.dtype.hasobject
        and value.nbytes >= threshold
    )


def offload_payload(
    payload: Any,
    threshold: Optional[int],
    allocate_name,
    stats: Optional[SegmentStats] = None,
) -> Tuple[Any, List[str]]:
    """Replace large arrays inside one protocol message by descriptors.

    Walks the cluster protocol's message shapes — a bare ndarray or an
    array-carrying (frozen) dataclass such as ``PredictRequest`` or
    ``EnsembleResult`` — offloading each qualifying array
    via ``allocate_name()`` (a callable yielding a fresh segment name).
    Returns the rewritten message plus the created segment names, so the
    sender can sweep them if the message never reaches its receiver.
    """
    if threshold is None or threshold < 0:
        return payload, []
    names: List[str] = []

    def lift(value: Any) -> Any:
        if _offload_candidate(value, threshold):
            try:
                ref = offload_array(value, allocate_name(), stats)
            except OSError:
                # /dev/shm full or unavailable: the pipe path is slower but
                # always works, so degrade per-array instead of failing.
                return value
            names.append(ref.name)
            return ref
        return value

    if isinstance(payload, np.ndarray):
        return lift(payload), names
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        changes = {
            field.name: lift(getattr(payload, field.name))
            for field in dataclasses.fields(payload)
            if _offload_candidate(getattr(payload, field.name), threshold)
        }
        if changes:
            return dataclasses.replace(payload, **changes), names
    return payload, names


def restore_payload(payload: Any, stats: Optional[SegmentStats] = None) -> Any:
    """Inverse of :func:`offload_payload`: resolve descriptors back to arrays."""
    if isinstance(payload, ShmRef):
        return restore_array(payload, stats)
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        changes = {
            field.name: restore_array(getattr(payload, field.name), stats)
            for field in dataclasses.fields(payload)
            if isinstance(getattr(payload, field.name), ShmRef)
        }
        if changes:
            return dataclasses.replace(payload, **changes)
    return payload
