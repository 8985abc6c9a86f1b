"""Multi-model plan registry: on-disk artifacts and their loader.

A :class:`PlanRegistry` manages a directory of ``InferencePlan.save``
artifacts as the deployment catalogue of a serving process.  Artifacts are
named canonically — ``{model}__{bits}__{mapping}.npz``, e.g.
``lenet__4b__acm.npz`` or ``vgg9__fp32__de.npz`` — so the registry can index
a directory without opening a single file.  The registry keeps no plan in
memory: :meth:`PlanRegistry.get` deserialises the artifact on every call,
and the serving process pins what it serves
(:class:`~repro.serve.service.InferenceService` loads each key once).

Every artifact also has a SHA-256 *content digest*, computed lazily and
cached against the file's stat signature.  Digests give deployments an
integrity/version handle: a client can pin ``get_by_digest(digest)`` and be
served exactly the artifact it validated, independent of what key it is
published under.

Keys additionally carry a *plan version* for staged rollout: publishing
``version=2`` writes ``{model}__{bits}__{mapping}__v2.npz`` alongside the
original artifact, and a per-directory rollout table (``_rollout.json``,
written atomically) decides which version serves live traffic.  A canary
fraction routes a deterministic, request-id-keyed slice of requests to the
candidate version; ``promote``/``rollback`` flip the active version
atomically, without restarting anything that reads the directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api.errors import InvalidRequest
from repro.api.types import canonical_name, parse_bits_token
from repro.runtime.plan import InferencePlan


class PlanArtifactError(RuntimeError):
    """An indexed artifact exists but cannot be deserialised.

    Raised (with the offending path) when a plan file is truncated,
    corrupted, or not a plan at all; the registry itself stays consistent —
    other keys keep serving and a repaired artifact loads on the next get.
    """


def parse_bits(token: str) -> Optional[int]:
    """Parse a canonical bits token (``"4b"`` → 4, ``"fp32"`` → None).

    Delegates to the API layer's parser so the token grammar has exactly
    one owner; the typed error is translated back to the ``ValueError``
    this legacy surface has always raised.
    """
    try:
        return parse_bits_token(token)
    except InvalidRequest as error:
        raise ValueError(str(error)) from None


#: Rollout-state file kept next to the artifacts (never matches ``*.npz``).
ROLLOUT_FILENAME = "_rollout.json"

#: Canonical version suffix token: ``v2``, ``v3``, ... (``v1`` is implicit —
#: a version-1 key canonicalises to the bare 3-part stem, so an explicit
#: ``__v1`` suffix would alias it and is rejected by :meth:`PlanKey.parse`).
_VERSION_TOKEN = re.compile(r"^v([1-9][0-9]*)$")


def canary_bucket(request_id: str) -> float:
    """Deterministic position of a request id in ``[0, 1)``.

    SHA-256 of the id, first 8 bytes as an unsigned big-endian integer,
    scaled to the unit interval — stable across processes and runs, so a
    canary split is exactly reproducible: the same request id always lands
    on the same side of the fraction.
    """
    digest = hashlib.sha256(request_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RolloutEntry:
    """Rollout state for one base key: active version + optional canary."""

    active: int = 1
    canary_version: Optional[int] = None
    canary_fraction: float = 0.0
    previous: Optional[int] = None

    def resolve(self, request_id: Optional[str]) -> int:
        """The version this request serves from (deterministic per id)."""
        if (
            self.canary_version is None
            or self.canary_fraction <= 0.0
            or request_id is None
        ):
            return self.active
        if canary_bucket(request_id) < self.canary_fraction:
            return self.canary_version
        return self.active

    def to_wire(self) -> Dict[str, object]:
        return {
            "active": self.active,
            "canary_version": self.canary_version,
            "canary_fraction": self.canary_fraction,
            "previous": self.previous,
        }


@dataclass(frozen=True)
class PlanKey:
    """Identity of one served model: (model name, device bits, mapping)
    plus a rollout ``version`` (1 = the original, unsuffixed artifact)."""

    model: str
    bits: Optional[int]
    mapping: str
    version: int = 1

    def __post_init__(self) -> None:
        # Names must survive the canonical round trip: a model called
        # "a__b" (or "a_", whose trailing underscore merges with the "__"
        # separator) would serialise to a stem that parses back as a
        # different (or no) key, leaving the published artifact unreachable.
        for label, token in (("model", self.model), ("mapping", self.mapping)):
            if not isinstance(token, str) or not token:
                raise ValueError(f"{label} must be a non-empty string")
            if (
                "__" in token
                or token.startswith("_")
                or token.endswith("_")
                or "/" in token
                or "\x00" in token
            ):
                raise ValueError(
                    f"{label} {token!r} may not contain '__', start or end "
                    f"with '_', or contain '/' or NUL (it must round-trip "
                    f"through the canonical file name)"
                )
        if self.bits is not None and (
            isinstance(self.bits, bool)
            or not isinstance(self.bits, int)
            or self.bits < 1
        ):
            raise ValueError(f"bits must be a positive int or None, got {self.bits!r}")
        if (
            isinstance(self.version, bool)
            or not isinstance(self.version, int)
            or self.version < 1
        ):
            raise ValueError(
                f"version must be a positive int, got {self.version!r}"
            )

    def base_canonical(self) -> str:
        """The version-blind stem — rollout state and ring routing key."""
        return canonical_name(self.model, self.bits, self.mapping)

    def canonical(self) -> str:
        """Filesystem-safe canonical stem, e.g. ``lenet__4b__acm`` (version
        1) or ``lenet__4b__acm__v2`` (later rollout versions)."""
        base = self.base_canonical()
        return base if self.version == 1 else f"{base}__v{self.version}"

    def base_key(self) -> "PlanKey":
        """This key at version 1 (identity for unversioned keys)."""
        if self.version == 1:
            return self
        return PlanKey(model=self.model, bits=self.bits, mapping=self.mapping)

    @classmethod
    def parse(cls, stem: str) -> Optional["PlanKey"]:
        """Inverse of :meth:`canonical`; None for foreign file names.

        A 4-part stem must end in a ``v{N}`` token with ``N >= 2`` and no
        leading zeros — ``__v1`` (which would alias the bare 3-part stem)
        and malformed tokens like ``v02`` are foreign, so every accepted
        stem round-trips exactly: ``parse(stem).canonical() == stem``.
        """
        parts = stem.split("__")
        version = 1
        if len(parts) == 4:
            match = _VERSION_TOKEN.match(parts[3])
            if match is None:
                return None
            version = int(match.group(1))
            if version < 2:
                return None
        elif len(parts) != 3:
            return None
        try:
            return cls(
                model=parts[0],
                bits=parse_bits(parts[1]),
                mapping=parts[2],
                version=version,
            )
        except ValueError:
            return None


@dataclass
class PlanEntry:
    """One indexed artifact: its key, path, and memoised content digest."""

    key: PlanKey
    path: Path
    _digest: Optional[str] = field(default=None, repr=False)
    _stat: Optional[Tuple[int, int]] = field(default=None, repr=False)

    def digest(self) -> str:
        """SHA-256 hex digest of the artifact bytes (cached until the file
        changes, detected via its size/mtime signature)."""
        stat = self.path.stat()
        signature = (stat.st_size, stat.st_mtime_ns)
        if self._digest is None or self._stat != signature:
            self._digest = hashlib.sha256(self.path.read_bytes()).hexdigest()
            self._stat = signature
        return self._digest


class PlanRegistry:
    """Directory-backed catalogue and loader of compiled inference plans.

    The catalogue indexes artifacts by key; :meth:`get` loads one.  All
    methods are thread-safe, so one registry can back every scheduler
    thread of a serving process.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._entries: Dict[PlanKey, PlanEntry] = {}
        self._lock = threading.RLock()
        # Rollout table cache: (stat signature of _rollout.json, entries).
        self._rollout_cache: Tuple[
            Optional[Tuple[int, int]], Dict[str, RolloutEntry]
        ] = (None, {})
        self.refresh()

    # ------------------------------------------------------------------ #
    # Catalogue
    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Re-scan the directory for canonically named ``.npz`` artifacts.

        Entries whose path is unchanged are kept (not rebuilt) so their
        memoised content digests survive the re-scan — a polling caller
        (the HTTP ``/v1/models`` and ``/healthz`` handlers refresh on every
        request) must not re-hash every artifact per poll.  A replaced file
        is still detected: :meth:`PlanEntry.digest` self-invalidates on the
        file's size/mtime signature.
        """
        with self._lock:
            fresh: Dict[PlanKey, PlanEntry] = {}
            for path in sorted(self.directory.glob("*.npz")):
                key = PlanKey.parse(path.name[: -len(".npz")])
                if key is None:
                    continue
                existing = self._entries.get(key)
                if existing is not None and existing.path == path:
                    fresh[key] = existing
                else:
                    fresh[key] = PlanEntry(key=key, path=path)
            self._entries = fresh

    def keys(self) -> List[PlanKey]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def publish(
        self,
        plan: InferencePlan,
        model: str,
        bits: Optional[int],
        mapping: str,
        version: int = 1,
    ) -> PlanEntry:
        """Save ``plan`` under its canonical name and index it."""
        key = PlanKey(model=model, bits=bits, mapping=mapping, version=version)
        path = self.directory / f"{key.canonical()}.npz"
        plan.save(path)
        with self._lock:
            entry = PlanEntry(key=key, path=path)
            self._entries[key] = entry
            return entry

    def publish_model(
        self,
        model_module,
        model: str,
        bits: Optional[int],
        mapping: str,
        optimize: bool = False,
    ) -> PlanEntry:
        """Compile an eager model and publish the resulting plan.

        Uses :func:`repro.train.evaluate.plan_for` — the same plan builder
        the evaluation helpers use — so a model with per-layer variation
        enabled is rejected instead of silently freezing ideal weights.
        ``optimize=True`` applies the plan-level optimiser before saving.
        """
        from repro.train.evaluate import plan_for

        plan = plan_for(model_module, use_runtime=True)
        if optimize:
            from repro.runtime.optimize import optimize_plan

            plan = optimize_plan(plan)
        return self.publish(plan, model=model, bits=bits, mapping=mapping)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(
        self,
        model: str,
        bits: Optional[int],
        mapping: str,
        version: int = 1,
    ) -> InferencePlan:
        """A freshly deserialised plan for ``(model, bits, mapping)``.

        Every call reads the artifact; callers that serve a key keep the
        plan they got.  A key missing from the index re-scans the directory
        once before raising, so a plan another process published since the
        last scan serves on its first request.
        """
        key = PlanKey(model=model, bits=bits, mapping=mapping, version=version)
        with self._lock:
            if key not in self._entries:
                self.refresh()
            entry = self._entries.get(key)
            if entry is None:
                known = ", ".join(k.canonical() for k in self._entries) or "<none>"
                raise KeyError(
                    f"no plan published for {key.canonical()!r}; available: {known}"
                )
        # Deserialising reads the whole artifact; do it outside the lock so a
        # load of one model cannot stall catalogue reads for every other.
        try:
            return InferencePlan.load(entry.path)
        except Exception as error:
            # Truncated download, partial write, or a foreign file under a
            # canonical name: surface one typed error naming the artifact
            # instead of whatever zipfile/numpy internals happened to throw.
            raise PlanArtifactError(
                f"cannot load plan artifact {entry.path}: "
                f"{type(error).__name__}: {error}"
            ) from error

    def describe(self) -> List[dict]:
        """The catalogue as JSON-ready dicts (one per artifact, with digest).

        This is the payload behind the HTTP ``GET /v1/models`` listing:
        key fields, the canonical name, the content digest, and the artifact
        size.  Digests hash each file once and are then cached, so repeated
        listings are cheap.
        """
        with self._lock:
            entries = sorted(
                self._entries.values(), key=lambda entry: entry.key.canonical()
            )
        described = []
        for entry in entries:
            try:
                stat_size = entry.path.stat().st_size
                digest = entry.digest()
            except OSError:
                # Deleted out from under the index; skip rather than fail
                # the whole listing.
                continue
            described.append({
                "model": entry.key.model,
                "bits": entry.key.bits,
                "mapping": entry.key.mapping,
                "version": entry.key.version,
                "name": entry.key.canonical(),
                "digest": digest,
                "size_bytes": stat_size,
            })
        return described

    def entry(
        self,
        model: str,
        bits: Optional[int],
        mapping: str,
        version: int = 1,
    ) -> PlanEntry:
        key = PlanKey(model=model, bits=bits, mapping=mapping, version=version)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                raise KeyError(f"no plan published for {key.canonical()!r}")
            return entry

    def digest(
        self,
        model: str,
        bits: Optional[int],
        mapping: str,
        version: int = 1,
    ) -> str:
        """Content digest of the artifact behind one key."""
        return self.entry(model, bits, mapping, version=version).digest()

    def get_by_digest(self, digest: str) -> InferencePlan:
        """Resolve a plan by (a prefix of) its content digest.

        A digest names immutable content, so this lookup cannot be satisfied
        by a same-key artifact that was republished with different weights.
        """
        if len(digest) < 8:
            raise ValueError("digest prefix must be at least 8 hex characters")
        with self._lock:
            entries = list(self._entries.values())
        # Hashing reads every candidate artifact; do it outside the lock so
        # a cold digest lookup cannot stall concurrent get()/publish() calls.
        matches = [entry for entry in entries if entry.digest().startswith(digest)]
        if not matches:
            raise KeyError(f"no artifact with digest {digest!r}")
        if len(matches) > 1:
            raise KeyError(f"digest prefix {digest!r} is ambiguous")
        key = matches[0].key
        # The full key (version included) — a digest naming a __v2 artifact
        # must load that artifact, never its version-1 sibling.
        return self.get(key.model, key.bits, key.mapping, version=key.version)

    # ------------------------------------------------------------------ #
    # Versioned rollout
    # ------------------------------------------------------------------ #
    @property
    def rollout_path(self) -> Path:
        return self.directory / ROLLOUT_FILENAME

    def rollout_entries(self) -> Dict[str, RolloutEntry]:
        """The directory's rollout table, keyed by base-canonical stem.

        Re-read only when ``_rollout.json``'s stat signature changes, so
        per-request resolution costs one ``stat()``.  Because writers
        replace the file atomically (tmp + ``os.replace``), every reader —
        including cluster workers sharing the directory — sees either the
        old table or the new one, never a torn state.
        """
        path = self.rollout_path
        try:
            stat = path.stat()
        except OSError:
            with self._lock:
                self._rollout_cache = (None, {})
            return {}
        signature = (stat.st_size, stat.st_mtime_ns)
        with self._lock:
            cached_signature, cached = self._rollout_cache
            if cached_signature == signature:
                return cached
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            # Mid-replace on a non-atomic filesystem or a hand-edited file;
            # keep serving the last good table rather than dropping state.
            return self._rollout_cache[1]
        entries: Dict[str, RolloutEntry] = {}
        if isinstance(raw, dict):
            for base, state in raw.items():
                if not isinstance(state, dict):
                    continue
                try:
                    entries[base] = RolloutEntry(
                        active=int(state.get("active", 1)),
                        canary_version=(
                            None if state.get("canary_version") is None
                            else int(state["canary_version"])
                        ),
                        canary_fraction=float(state.get("canary_fraction", 0.0)),
                        previous=(
                            None if state.get("previous") is None
                            else int(state["previous"])
                        ),
                    )
                except (TypeError, ValueError):
                    continue
        with self._lock:
            self._rollout_cache = (signature, entries)
        return entries

    def rollout_status(self) -> Dict[str, Dict[str, object]]:
        """The rollout table as JSON-ready dicts (``GET /admin/rollout``)."""
        return {
            base: entry.to_wire()
            for base, entry in sorted(self.rollout_entries().items())
        }

    def resolve_key(
        self, key: PlanKey, request_id: Optional[str] = None
    ) -> PlanKey:
        """Apply the rollout table to an unversioned key (see :meth:`route`)."""
        return self.route(key, request_id)[0]

    def route(
        self, key: PlanKey, request_id: Optional[str] = None
    ) -> Tuple[PlanKey, bool]:
        """The served key, and whether the rollout table governed it.

        Explicitly versioned keys pass through untouched (a pinned version
        is a pinned version); version-1 keys with a rollout entry route to
        the active version, or to the canary version for the deterministic
        ``canary_fraction`` slice of request ids.
        """
        if key.version != 1:
            return key, False
        entry = self.rollout_entries().get(key.canonical())
        if entry is None:
            return key, False
        version = entry.resolve(request_id)
        if version == key.version:
            return key, True
        return PlanKey(
            model=key.model, bits=key.bits, mapping=key.mapping, version=version
        ), True

    def _write_rollout(self, entries: Dict[str, RolloutEntry]) -> None:
        """Atomically replace the rollout table (write-rename)."""
        payload = json.dumps(
            {base: entry.to_wire() for base, entry in sorted(entries.items())},
            indent=2,
            sort_keys=True,
        )
        path = self.rollout_path
        tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)
        stat = path.stat()
        with self._lock:
            self._rollout_cache = ((stat.st_size, stat.st_mtime_ns), dict(entries))

    def _require_version(
        self, model: str, bits: Optional[int], mapping: str, version: int
    ) -> PlanKey:
        key = PlanKey(model=model, bits=bits, mapping=mapping, version=version)
        self.refresh()
        with self._lock:
            if key not in self._entries:
                raise KeyError(
                    f"no plan published for {key.canonical()!r}; "
                    f"publish the artifact before rolling it out"
                )
        return key

    def set_canary(
        self,
        model: str,
        bits: Optional[int],
        mapping: str,
        version: int,
        fraction: float,
    ) -> Dict[str, object]:
        """Route ``fraction`` of request-id-bearing traffic to ``version``.

        ``fraction`` must be in ``[0, 1]``; the candidate artifact must
        already be published.  Returns the updated rollout entry.
        """
        fraction = float(fraction)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(
                f"canary fraction must be within [0, 1], got {fraction!r}"
            )
        key = self._require_version(model, bits, mapping, version)
        base = key.base_canonical()
        with self._lock:
            entries = dict(self.rollout_entries())
            current = entries.get(base, RolloutEntry())
            entries[base] = RolloutEntry(
                active=current.active,
                canary_version=key.version,
                canary_fraction=fraction,
                previous=current.previous,
            )
            self._write_rollout(entries)
            return entries[base].to_wire()

    def promote(
        self,
        model: str,
        bits: Optional[int],
        mapping: str,
        version: Optional[int] = None,
    ) -> Dict[str, object]:
        """Make ``version`` (default: the canary) the active version.

        One atomic table write: the old active version is retained as
        ``previous`` (the rollback target) and any canary split is cleared.
        """
        base_key = PlanKey(model=model, bits=bits, mapping=mapping)
        base = base_key.canonical()
        with self._lock:
            entries = dict(self.rollout_entries())
            current = entries.get(base, RolloutEntry())
            if version is None:
                if current.canary_version is None:
                    raise ValueError(
                        f"no canary in flight for {base!r}; "
                        f"pass an explicit version to promote"
                    )
                version = current.canary_version
            key = self._require_version(model, bits, mapping, version)
            entries[base] = RolloutEntry(
                active=key.version,
                canary_version=None,
                canary_fraction=0.0,
                previous=current.active,
            )
            self._write_rollout(entries)
            return entries[base].to_wire()

    def rollback(
        self, model: str, bits: Optional[int], mapping: str
    ) -> Dict[str, object]:
        """Revert to the version the last promote replaced (atomic flip)."""
        base = PlanKey(model=model, bits=bits, mapping=mapping).canonical()
        with self._lock:
            entries = dict(self.rollout_entries())
            current = entries.get(base)
            if current is None or current.previous is None:
                raise ValueError(f"nothing to roll back for {base!r}")
            entries[base] = RolloutEntry(
                active=current.previous,
                canary_version=None,
                canary_fraction=0.0,
                previous=current.active,
            )
            self._write_rollout(entries)
            return entries[base].to_wire()
