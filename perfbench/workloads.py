"""Seeded workloads, the correctness oracle, and the closed-loop driver.

Every workload is a fixed set of connections, each a closed loop (the next
request leaves only after the previous one is decoded).  At two
connections no server-side queue can build, so an arrival schedule would
measure the generator rather than the program.

* ``solo_predict`` -- one connection of sequential 8x1x16x16 predicts.
  Per-request fixed cost dominates: client, socket, edge, coalescing wait
  and the pipe hop.  ``plan.run`` is well under a millisecond of it.
* ``batch_large`` -- two connections of 256x1x16x16 predicts: a 512 KiB
  float64 array per request, ~700 KB of base64 JSON, crossing the cluster
  over shared memory.  Each request exceeds ``max_batch`` and runs alone
  with no coalescing wait, so plan execution, the array codec and the shm
  hop do the work.
* ``ensemble_mixed`` -- connection A sends 8-image ensembles
  (``num_samples=32``, sigma from the Fig. 6 grid) in the round-robin
  pattern hot, hot, cold: two of three reuse one of four hot draw
  identities (cached weight stacks), the third a cold seed (Monte-Carlo
  sampling).  The median measures the cached path, the p90 the sampling
  path.  Connection B sends ``solo_predict`` requests beside them, so a
  change that speeds ensembles by monopolising a worker shows as a worse
  predict p90.

The seed generates the images, the request order and the draw identities;
the server receives only the generated inputs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import (
    EnsembleRequest,
    EnsembleResult,
    PredictRequest,
    PredictResult,
)
from repro.runtime.plan import InferencePlan
from repro.serve.registry import PlanRegistry
from repro.serve.service import InferenceService

from server import MODEL

WORKLOADS = ("solo_predict", "batch_large", "ensemble_mixed")

#: The Fig. 6 variation grid ensembles draw their sigma from.
SIGMA_GRID = (0.05, 0.10, 0.15, 0.20)
NUM_SAMPLES = 32
HOT_DRAWS = 4
#: Cold identities are reused only after every other one, long after the
#: server's 8-entry ensemble cache evicted them, so each is a cache miss.
COLD_DRAWS = 24
SOLO_ROWS, BATCH_ROWS, ENSEMBLE_ROWS = 8, 256, 8
SOLO_POOL, BATCH_POOL, ENSEMBLE_POOL = 16, 8, 8
#: Request-order length per connection and phase; far more than any run
#: of the allowed length can issue.
ORDER_LENGTH = 50_000

Key = Tuple[Any, ...]


@dataclass(frozen=True)
class Draw:
    """One Monte-Carlo draw identity (what the server's stack cache keys on)."""

    sigma: float
    seed: int


@dataclass
class Connection:
    """One closed-loop connection: its lane and its per-phase request orders."""

    lane: str  # "predict" or "ensemble"
    orders: Dict[str, np.ndarray]  # phase name -> pool indices

    def key(self, phase: str, k: int, workload: "Workload") -> Key:
        index = int(self.orders[phase][k % ORDER_LENGTH])
        if self.lane == "predict":
            return ("predict", index)
        # hot, hot, cold: two of every three requests reuse a hot identity.
        position, cycle = k % 3, k // 3
        if position < 2:
            return ("hot", (2 * cycle + position) % HOT_DRAWS, index)
        cold = cycle % COLD_DRAWS
        return ("cold", cold, workload.cold_images[cold])


@dataclass
class Workload:
    name: str
    seed: int
    predict_pool: List[np.ndarray]
    ensemble_pool: List[np.ndarray] = field(default_factory=list)
    hot: List[Draw] = field(default_factory=list)
    cold: List[Draw] = field(default_factory=list)
    cold_images: List[int] = field(default_factory=list)
    connections: List[Connection] = field(default_factory=list)

    @property
    def headline(self) -> str:
        """The lane the workload exists to measure."""
        return "ensemble" if self.hot else "predict"

    def draw(self, key: Key) -> Draw:
        return (self.hot if key[0] == "hot" else self.cold)[key[1]]

    def request(self, key: Key, request_id: Optional[str] = None):
        if key[0] == "predict":
            return PredictRequest(images=self.predict_pool[key[1]],
                                  request_id=request_id, **MODEL)
        draw = self.draw(key)
        return EnsembleRequest(
            images=self.ensemble_pool[key[2]], sigma_fraction=draw.sigma,
            num_samples=NUM_SAMPLES, seed=draw.seed, request_id=request_id,
            **MODEL,
        )

    def oracle_keys(self) -> List[Key]:
        keys: List[Key] = [("predict", i) for i in range(len(self.predict_pool))]
        keys += [("hot", h, i) for h in range(len(self.hot))
                 for i in range(len(self.ensemble_pool))]
        keys += [("cold", c, self.cold_images[c]) for c in range(len(self.cold))]
        return keys


PHASES = ("warmup", "untraced", "traced", "timed")


def build(name: str, seed: int) -> Workload:
    """Generate workload ``name`` deterministically from ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng(seed)

    def images(count: int, rows: int) -> List[np.ndarray]:
        return [rng.random((rows, 1, 16, 16)) for _ in range(count)]

    def orders(pool: int) -> Dict[str, np.ndarray]:
        return {phase: rng.integers(pool, size=ORDER_LENGTH) for phase in PHASES}

    if name == "batch_large":
        pool = images(BATCH_POOL, BATCH_ROWS)
        return Workload(name, seed, pool, connections=[
            Connection("predict", orders(BATCH_POOL)) for _ in range(2)
        ])
    pool = images(SOLO_POOL, SOLO_ROWS)
    if name == "solo_predict":
        return Workload(name, seed, pool, connections=[
            Connection("predict", orders(SOLO_POOL))
        ])

    def draw(sigma: float) -> Draw:
        return Draw(float(sigma), int(rng.integers(2 ** 31)))

    return Workload(
        name, seed, pool,
        ensemble_pool=images(ENSEMBLE_POOL, ENSEMBLE_ROWS),
        hot=[draw(SIGMA_GRID[i % len(SIGMA_GRID)]) for i in range(HOT_DRAWS)],
        cold=[draw(SIGMA_GRID[i % len(SIGMA_GRID)]) for i in range(COLD_DRAWS)],
        cold_images=[int(i) for i in rng.integers(ENSEMBLE_POOL, size=COLD_DRAWS)],
        connections=[Connection("ensemble", orders(ENSEMBLE_POOL)),
                     Connection("predict", orders(SOLO_POOL))],
    )


# ---------------------------------------------------------------------- #
# Oracle
# ---------------------------------------------------------------------- #
class Oracle:
    """Expected responses, computed in-process during set-up (untimed).

    Predicts must be bit-equal to ``InferencePlan.load(artifact).run``;
    ensembles to an in-process ``InferenceService.ensemble_request`` on the
    same draw identity.
    """

    def __init__(self, workload: Workload, artifact, plan_dir) -> None:
        plan = InferencePlan.load(artifact)
        self.expected: Dict[Key, Any] = {}
        service = InferenceService(PlanRegistry(plan_dir)) if workload.hot else None
        try:
            for key in workload.oracle_keys():
                if key[0] == "predict":
                    self.expected[key] = plan.run(workload.predict_pool[key[1]])
                else:
                    self.expected[key] = service.ensemble_request(workload.request(key))
        finally:
            if service is not None:
                service.close()

    def matches(self, key: Key, result: Any) -> bool:
        expected = self.expected[key]
        if isinstance(expected, np.ndarray):
            return isinstance(result, PredictResult) and _same(result.logits, expected)
        return isinstance(result, EnsembleResult) and all(
            _same(getattr(result, name), getattr(expected, name))
            for name in ("mean_logits", "predictions", "confidence", "vote_counts")
        )


def _same(got: Any, want: np.ndarray) -> bool:
    got = np.asarray(got)
    return got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------- #
# Closed-loop driver
# ---------------------------------------------------------------------- #
@dataclass
class Record:
    """One request as the client saw it."""

    lane: str
    key: Key
    request_id: str
    start: float
    seconds: float
    result: Any  # the typed result, or the exception raised


@dataclass
class Phase:
    name: str
    records: List[Record]
    elapsed: float
    mismatches: int = 0

    def lane(self, lane: str) -> List[Record]:
        return [r for r in self.records if r.lane == lane]

    @property
    def failed(self) -> int:
        """Requests that raised (refusals included) or answered wrongly."""
        errors = sum(1 for r in self.records if isinstance(r.result, Exception))
        return errors + self.mismatches

    def check(self, oracle: Oracle) -> None:
        self.mismatches = sum(
            1 for r in self.records
            if not isinstance(r.result, Exception) and not oracle.matches(r.key, r.result)
        )

    def latencies_ms(self, lane: str) -> np.ndarray:
        """Latencies of the lane's successful requests."""
        return np.array([r.seconds * 1e3 for r in self.lane(lane)
                         if not isinstance(r.result, Exception)])

    def rate(self, lane: str) -> float:
        """Successful requests of ``lane`` completed per second."""
        return len(self.latencies_ms(lane)) / self.elapsed if self.elapsed else 0.0


def _call(client, request):
    if isinstance(request, PredictRequest):
        return client.predict(request)
    return client.ensemble(request)


def run_phase(
    client,
    workload: Workload,
    phase: str,
    seconds: float,
    call: Callable = _call,
) -> Phase:
    """Drive every connection of ``workload`` for ``seconds``, closed-loop.

    Each connection is one thread sharing ``client``'s keep-alive pool, so
    the phase uses exactly as many connections as the workload has.
    Responses are kept and checked against the oracle after the phase.
    """
    per_connection: List[List[Record]] = [[] for _ in workload.connections]
    start = time.perf_counter()
    deadline = start + seconds
    prefix = f"{workload.name[:4]}-{workload.seed}-{phase}"

    def drive(index: int) -> None:
        connection = workload.connections[index]
        records = per_connection[index]
        k = 0
        while time.perf_counter() < deadline:
            key = connection.key(phase, k, workload)
            request_id = f"{prefix}-{index}-{k}"
            request = workload.request(key, request_id)
            began = time.perf_counter()
            try:
                result = call(client, request)
            except Exception as error:  # noqa: BLE001 - a failure is a result
                result = error
            records.append(Record(connection.lane, key, request_id, began,
                                  time.perf_counter() - began, result))
            k += 1

    threads = [threading.Thread(target=drive, args=(i,), daemon=True)
               for i in range(len(workload.connections))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records = [r for group in per_connection for r in group]
    end = max((r.start + r.seconds for r in records), default=deadline)
    return Phase(phase, records, end - start)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def first_responses(client, workload: Workload, oracle: Oracle) -> None:
    """One correct response per request kind the workload uses (set-up)."""
    lanes = {c.lane: c for c in workload.connections}
    for lane, connection in sorted(lanes.items()):
        key = connection.key("warmup", 0, workload)
        result = _call(client, workload.request(key))
        if not oracle.matches(key, result):
            raise RuntimeError(f"first {lane} response is wrong")
