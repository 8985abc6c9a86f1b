"""The system under test: the default CLI deployment as a subprocess.

``python -m repro.serve --workers 2 --quiet`` with every other flag at its
default (threaded edge, ``max_batch=64``, ``max_wait_ms=2``, ``replicas=2``,
64 KiB shm threshold).  The only additions are deployment settings: the
plan directory and ``--port 0`` so parallel checkouts never collide.

Also owns what the benchmark reads from outside the server: its
``/metrics`` page and the peak resident set of its process tree.
"""

from __future__ import annotations

import compileall
import ctypes
import hashlib
import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The served model: the paper's proposed mapping at 4-bit conductances.
MODEL = {"model": "lenet", "bits": 4, "mapping": "acm"}

#: One BLAS thread everywhere: two cores are shared by the load process,
#: the edge and two workers, and oversubscribed BLAS pools only add noise.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_BANNER = re.compile(r"^serving \d+ plan\(s\) at (\S+) ")

#: Bound on each wait for the server tree: its banner, its drain, its exit.
_TIMEOUT = 30.0

#: prctl option from <linux/prctl.h>.
_PR_SET_CHILD_SUBREAPER = 36


def compile_sources() -> None:
    """Byte-compile the program, as an installed package ships it.

    The server then imports from bytecode caches whatever the caller's
    ``PYTHONDONTWRITEBYTECODE``, so ``setup_s`` never includes compiling
    the source.
    """
    if not compileall.compile_dir(str(SRC), quiet=1):
        raise RuntimeError(f"byte-compiling {SRC} failed")


def publish_plan(plan_dir: Path) -> Path:
    """Compile ``make_lenet(mapping="acm", quantizer_bits=4, seed=0)`` into
    ``plan_dir`` under its canonical name; returns the artifact path.

    Untrained weights time the same as trained ones, so no dataset is
    needed.
    """
    from repro.models.lenet import make_lenet
    from repro.runtime.engine import compile_model
    from repro.serve.registry import PlanRegistry

    model = make_lenet(mapping="acm", quantizer_bits=4, seed=0)
    entry = PlanRegistry(plan_dir).publish(
        compile_model(model), MODEL["model"], MODEL["bits"], MODEL["mapping"]
    )
    return Path(entry.path)


def _children(pid: int) -> List[int]:
    """Direct children of ``pid``, from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def process_tree(pid: int) -> List[int]:
    """``pid`` and every live descendant of it."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(_children(current))
    return tree


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``python -m repro.serve`` process tree, started and stopped."""

    def __init__(self, plan_dir: Path, extra_args: Sequence[str] = ()) -> None:
        # Unbuffered so the serving banner reaches the pipe when printed.
        env = dict(os.environ, PYTHONUNBUFFERED="1", **THREAD_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--plan-dir", str(plan_dir),
             "--workers", "2", "--quiet", "--port", "0", *extra_args],
            env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self._url: Optional[str] = None
        self._banner = threading.Event()
        # Drains stdout for the life of the process so the banner can be
        # awaited with a timeout and the pipe never fills.
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        if not self._banner.wait(_TIMEOUT) or self._url is None:
            self.stop()
            raise RuntimeError("server did not print its serving banner")

    def _read_stdout(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            match = _BANNER.match(line)
            if match and self._url is None:
                self._url = match.group(1)
                self._banner.set()
        self._banner.set()

    @property
    def url(self) -> str:
        assert self._url is not None
        return self._url

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server process and its descendants
        (two workers and the multiprocessing resource tracker)."""
        return sum(_vm_hwm_kb(pid) for pid in process_tree(self.process.pid)) / 1024.0

    def scrape(self) -> "Scrape":
        with urllib.request.urlopen(self.url + "/metrics", timeout=_TIMEOUT) as response:
            return Scrape.parse(response.read().decode("utf-8"))

    def stop(self) -> None:
        """SIGTERM (the CLI's graceful drain), then wait for the whole tree."""
        if self.process.poll() is None:
            tree = process_tree(self.process.pid)
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait(_TIMEOUT)
        else:
            tree = []
        # Workers and the resource tracker are grandchildren: poll until
        # each pid is gone, and reap those orphaned to this process (see
        # become_subreaper).
        deadline = time.monotonic() + _TIMEOUT
        for pid in tree[1:]:
            _finish(pid, deadline)
        self._reader.join(_TIMEOUT)
        if self.process.stdout is not None:
            self.process.stdout.close()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _finish(pid: int, deadline: float) -> None:
    """Wait until ``pid`` has exited (SIGKILL past ``deadline``), then reap
    it if it is a child of this process."""
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    if _alive(pid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def become_subreaper() -> None:
    """Make this process the reaper of its orphaned descendants.

    The server's multiprocessing resource tracker outlives the server by
    design; as a subreaper this process inherits and reaps it (and any
    other straggler) instead of leaving it to init.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def stop_children() -> None:
    """Stop every process this one still has: its own resource tracker
    (started by the traced run's in-process cluster, and left running by
    the standard library until exit) and any orphan it inherited."""
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except OSError:
        pass
    deadline = time.monotonic() + _TIMEOUT
    for pid in _children(os.getpid()):
        _finish(pid, deadline)


_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


class Scrape:
    """One parsed Prometheus text exposition: ``(name, labels) -> value``."""

    def __init__(self, samples: Dict[Tuple[str, FrozenSet[Tuple[str, str]]], float]):
        self.samples = samples

    @classmethod
    def parse(cls, text: str) -> "Scrape":
        samples = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            match = _SAMPLE.match(line)
            if match is None:
                continue
            name, labels, value = match.groups()
            key = frozenset(_LABEL.findall(labels or ""))
            samples[(name, key)] = float(value)
        return cls(samples)

    def total(self, name: str, **match: str) -> float:
        """Sum of ``name`` over every series whose labels include ``match``."""
        wanted = set(match.items())
        return sum(value for (sample, labels), value in self.samples.items()
                   if sample == name and wanted <= labels)

    def non_2xx(self) -> float:
        """HTTP exchanges answered with anything but a 2xx status."""
        return sum(value for (sample, labels), value in self.samples.items()
                   if sample == "repro_http_requests_total"
                   and not dict(labels).get("status", "").startswith("2"))

    def delta(self, before: "Scrape", name: str, **match: str) -> float:
        return self.total(name, **match) - before.total(name, **match)


def host_metadata() -> Dict[str, object]:
    """What a result must carry so numbers from different hosts are never
    compared: cores, NumPy and its BLAS, Python, and the source revision."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - metadata must never fail a run
        blas_build = "unknown"
    revision: Optional[str] = None  # a plain checkout: the digest stands in
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cores": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas_build,
        "python": platform.python_version(),
        "git_revision": revision,
        "source_sha256": digest.hexdigest()[:16],
        "machine": platform.machine(),
    }
