"""Persistent, cross-process artifact store.

An :class:`ArtifactStore` is a content-addressed JSON cache on disk: every
artifact is filed under ``<root>/v<schema>/<kind>/<sha256(key)>.json`` with
its schema version and full key embedded, so a new process — or a fresh
``python -m repro sweep`` — resumes a workload batch with zero re-synthesis.
An artifact file is two lines: a JSON header (``schema``, ``kind``, ``key``
and the ``sha256`` of the payload bytes), then the JSON payload.
Two artifact kinds are stored:

``characterization``
    One explorer depth-family: the :class:`ConeCharacterization` of every
    window plus the Equation-1 calibration points and validation — the unit
    the in-memory family cache already shares (see
    :class:`CharacterizationStoreAdapter`).
``result``
    A complete :class:`~repro.api.results.FlowResult`, keyed by the full
    workload description.

Robustness contract: a corrupted, truncated, or schema-incompatible artifact
is *never* an error — :meth:`get` returns ``None`` and the caller recomputes
(the bad file is removed so it cannot poison later runs).  The payload hash
catches an edit that still parses, before the payload is decoded.  Writes
go through a per-process temp file and an atomic ``os.replace``, so
concurrent writers (threads sharing one session, or separate processes
sharing one cache dir) can only ever land complete artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dse.explorer import ConeCharacterization
from repro.estimation.area_model import AreaModelValidation

#: Bumped whenever an artifact payload changes incompatibly; artifacts of
#: other versions are ignored (recomputed), never migrated in place.
SCHEMA_VERSION = 2

#: The artifact kinds the store files separately.
ARTIFACT_KINDS: Tuple[str, ...] = ("characterization", "result")

#: Environment override for the default cache location.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"


def default_store_path() -> str:
    """The default cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


class ArtifactStore:
    """Disk-backed, content-addressed JSON artifacts (thread/process safe)."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = os.path.abspath(str(root) if root is not None
                                    else default_store_path())
        # Runtime counters of THIS store object (a Session additionally
        # keeps per-session counters in SessionStats).
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # addressing

    @staticmethod
    def digest(key: str) -> str:
        """Content address of a key string."""
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]

    def _kind_dir(self, kind: str) -> str:
        if kind not in ARTIFACT_KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}; kinds are "
                             f"{', '.join(ARTIFACT_KINDS)}")
        return os.path.join(self.root, f"v{SCHEMA_VERSION}", kind)

    def path_for(self, kind: str, key: str) -> str:
        """The file an artifact for ``(kind, key)`` lives at."""
        return os.path.join(self._kind_dir(kind), self.digest(key) + ".json")

    # ------------------------------------------------------------------ #
    # get / put

    def get(self, kind: str, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``(kind, key)``, or ``None``.

        ``None`` covers missing, truncated/corrupted, schema-mismatched, and
        digest-colliding artifacts alike: the caller's only obligation is to
        recompute.  Unreadable files are deleted so the slot heals itself.
        """
        path = self.path_for(kind, key)
        try:
            envelope = self._read_artifact(path)
            if envelope["kind"] != kind or envelope["key"] != key:
                raise ValueError("artifact envelope mismatch")
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self._count("corrupt")
            self._remove_quietly(path)
            return None
        self._count("hits")
        return envelope["payload"]

    @staticmethod
    def _read_artifact(path: str) -> Dict[str, Any]:
        """The ``{schema, kind, key, payload}`` envelope stored at ``path``.

        Raises ``ValueError`` unless the header is of this schema and the
        payload bytes hash to its ``sha256``; the payload is decoded only
        after that check.
        """
        with open(path, "rb") as handle:
            header_line, _, body = handle.read().partition(b"\n")
        header = json.loads(header_line)
        if (not isinstance(header, dict)
                or header.get("schema") != SCHEMA_VERSION
                or header.get("sha256") != hashlib.sha256(body).hexdigest()):
            raise ValueError("artifact header or payload hash mismatch")
        return {"schema": SCHEMA_VERSION, "kind": header.get("kind"),
                "key": header.get("key"), "payload": json.loads(body)}

    def put(self, kind: str, key: str,
            payload: Dict[str, Any]) -> Optional[str]:
        """Atomically write an artifact; returns its path, or ``None``.

        A failed write (full/read-only disk) degrades to a ``None``-returning
        no-op: the store is a cache, and the in-memory result is still good —
        but callers must not account a write that never landed.
        """
        path = self.path_for(kind, key)
        try:
            # one C-encoder pass, then one write: json.dump would stream
            # through the pure-Python encoder
            body = json.dumps(payload).encode("utf-8")
            header = {"schema": SCHEMA_VERSION, "kind": kind, "key": key,
                      "sha256": hashlib.sha256(body).hexdigest()}
            data = json.dumps(header).encode("utf-8") + b"\n" + body
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp_path, path)
            except BaseException:
                self._remove_quietly(tmp_path)
                raise
        except (OSError, TypeError, ValueError):
            # full/read-only disk, or a payload json can't encode (non-JSON
            # scalars): the computed result is still good, only the cache
            # write is lost
            return None
        self._count("writes")
        return path

    def has(self, kind: str, key: str) -> bool:
        """Whether an artifact exists for ``(kind, key)``.

        A bare existence probe — no read, no deserialization, no counter
        traffic — for callers deciding whether a write is still needed.
        """
        return os.path.exists(self.path_for(kind, key))

    # ------------------------------------------------------------------ #
    # maintenance (CLI `cache` subcommands)

    def artifact_paths(self, kind: Optional[str] = None) -> List[str]:
        """Every current-schema artifact file (optionally one kind)."""
        kinds = (kind,) if kind is not None else ARTIFACT_KINDS
        paths: List[str] = []
        for each in kinds:
            directory = self._kind_dir(each)
            try:
                names = sorted(os.listdir(directory))
            except OSError:
                continue
            paths.extend(os.path.join(directory, name) for name in names
                         if name.endswith(".json"))
        return paths

    def _stale_version_paths(self) -> List[str]:
        """Artifact files left behind by other schema versions.

        Schema bumps never migrate artifacts in place, so without this the
        maintenance commands could neither see nor reclaim ``v<old>/``
        trees and the cache directory would grow monotonically.
        """
        current = f"v{SCHEMA_VERSION}"
        paths: List[str] = []
        try:
            entries = sorted(os.listdir(self.root))
        except OSError:
            return paths
        for entry in entries:
            if (entry == current or not entry.startswith("v")
                    or not entry[1:].isdigit()):
                continue
            for directory, _subdirs, names in os.walk(
                    os.path.join(self.root, entry)):
                paths.extend(os.path.join(directory, name)
                             for name in sorted(names)
                             if name.endswith(".json"))
        return paths

    def _orphaned_tmp_paths(self) -> List[str]:
        """Temp files left behind by writers killed mid-``put``.

        ``os.replace`` normally consumes them; a SIGKILL/power-loss between
        ``mkstemp`` and the replace leaks one, and nothing else ever touches
        it — so the maintenance sweep must.
        """
        paths: List[str] = []
        for directory, _subdirs, names in os.walk(self.root):
            paths.extend(os.path.join(directory, name)
                         for name in sorted(names) if name.endswith(".tmp"))
        return paths

    def describe(self) -> Dict[str, Any]:
        """Size/count summary of the on-disk contents (for ``cache stats``)."""
        kinds: Dict[str, Dict[str, int]] = {}
        total_files = 0
        total_bytes = 0
        for kind in ARTIFACT_KINDS:
            paths = self.artifact_paths(kind)
            size = 0
            for path in paths:
                try:
                    size += os.path.getsize(path)
                except OSError:
                    pass
            kinds[kind] = {"artifacts": len(paths), "bytes": size}
            total_files += len(paths)
            total_bytes += size
        stale = self._stale_version_paths() + self._orphaned_tmp_paths()
        stale_bytes = 0
        for path in stale:
            try:
                stale_bytes += os.path.getsize(path)
            except OSError:
                pass
        return {"root": self.root, "schema": SCHEMA_VERSION, "kinds": kinds,
                "artifacts": total_files, "bytes": total_bytes,
                "stale_artifacts": len(stale),
                "stale_bytes": stale_bytes}

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete stored artifacts (optionally only one kind); returns the
        number removed.  A full clear also reclaims artifacts left behind
        by other schema versions and temp files of interrupted writes."""
        removed = 0
        paths = list(self.artifact_paths(kind))
        if kind is None:
            paths.extend(self._stale_version_paths())
            paths.extend(self._orphaned_tmp_paths())
        for path in paths:
            if self._remove_quietly(path):
                removed += 1
        return removed

    def export_payload(self) -> Dict[str, Any]:
        """Every readable artifact as one JSON document (``cache export``)."""
        artifacts = []
        for path in self.artifact_paths():
            try:
                artifacts.append(self._read_artifact(path))
            except (OSError, ValueError):
                continue
        return {"schema": SCHEMA_VERSION, "root": self.root,
                "artifacts": artifacts}

    # ------------------------------------------------------------------ #

    def counters(self) -> Dict[str, int]:
        """Atomic snapshot of the runtime counters.

        Reading the attributes one by one from another thread can tear
        (a ``get`` between two reads skews hit/miss ratios); service
        ``stats()`` and tests read through this instead.
        """
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "writes": self.writes, "corrupt": self.corrupt}

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    @staticmethod
    def _remove_quietly(path: str) -> bool:
        try:
            os.remove(path)
            return True
        except OSError:
            return False


# ---------------------------------------------------------------------- #
# explorer binding


#: Observer signature for store traffic: called with ``"hit"``, ``"miss"``,
#: or ``"write"`` (a Session maps these onto SessionStats counters).
StoreObserver = Callable[[str], None]


class CharacterizationStoreAdapter:
    """Binds an :class:`ArtifactStore` to one explorer's depth-family cache.

    The explorer's unit of sharing is a *depth family* — the per-window
    :class:`ConeCharacterization` table plus the Equation-1 validation for
    one ``(depth, window tuple)``.  The adapter scopes those families under
    the workload's characterization key, mirrors them to disk, and reports
    hits/misses/writes to its observer.
    """

    def __init__(self, store: ArtifactStore, scope: str,
                 observer: Optional[StoreObserver] = None) -> None:
        self.store = store
        self.scope = scope
        self._observer = observer

    def _notify(self, event: str) -> None:
        if self._observer is not None:
            self._observer(event)

    def _key(self, depth: int, windows: Sequence[int]) -> str:
        return f"{self.scope}|depth={depth}|windows={tuple(windows)!r}"

    def load(self, depth: int, windows: Sequence[int]
             ) -> Optional[Tuple[Dict[int, ConeCharacterization],
                                 AreaModelValidation]]:
        payload = self.store.get("characterization",
                                 self._key(depth, windows))
        if payload is None:
            self._notify("miss")
            return None
        try:
            per_window = {
                int(window): ConeCharacterization.from_dict(entry)
                for window, entry in payload["per_window"].items()}
            validation = AreaModelValidation.from_dict(payload["validation"])
            if sorted(per_window) != sorted(int(w) for w in windows):
                raise ValueError("stored family covers different windows")
        except (KeyError, ValueError, TypeError):
            # decodes like a schema drift: recompute, never crash
            self._notify("miss")
            return None
        self._notify("hit")
        return per_window, validation

    def save(self, depth: int, windows: Sequence[int],
             family: Tuple[Dict[int, ConeCharacterization],
                           AreaModelValidation]) -> None:
        per_window, validation = family
        payload = {
            "per_window": {str(window): characterization.to_dict()
                           for window, characterization
                           in per_window.items()},
            "validation": validation.to_dict(),
            # The reference syntheses Equation 1 was calibrated from, kept
            # self-describing for external consumers of the cache.
            "calibration": [
                {"key": window * window,
                 "register_count": per_window[window].register_count,
                 "actual_area_luts": per_window[window].actual_area_luts}
                for window in sorted(per_window)
                if per_window[window].synthesized],
        }
        written = self.store.put("characterization",
                                 self._key(depth, windows), payload)
        if written is not None:
            self._notify("write")
