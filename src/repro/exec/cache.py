"""Sharded content-addressed trace store.

Traces are stored as compressed ``.npz`` files named by the job's content
address (:meth:`SessionJob.key` — a hash of the full declarative job spec
plus a digest of the simulation sources).  Re-running a benchmark or
iterating on the attacker therefore never re-simulates an unchanged
session, while *any* edit to the simulation code changes the salt and
transparently invalidates every stale entry.

Layout (v2)::

    <root>/journal.jsonl                     append-only stats/LRU journal
    <root>/shards/<id[:2]>/<key>.npz         one session entry
    <root>/shards/<d[:2]>/pack-<d>.npz       packed group entry (see below)

Entries fan out into 256 shard directories by content-address prefix so no
single directory grows unboundedly.

Properties:

* **atomic writes** — entries are written to a temp file and
  ``os.replace``d into place, so readers never observe a torn file and
  concurrent writers of the same key are last-writer-wins with identical
  content;
* **journaled accounting** — every ``put``/hit/evict appends one JSONL
  record to ``journal.jsonl`` (a single ``O_APPEND`` write, so concurrent
  writers interleave whole records).  Entry sizes and the LRU order are
  replayed from the journal; eviction never rescans the shard
  tree.  A full tree scan happens only on recovery (journal missing but
  shards present) and is counted in ``stats()["tree_scans"]``.  Handles in
  other processes converge by tailing the journal from their last offset;
  the journal is compacted in place once it grows far past the live entry
  count;
* **LRU size bounding** — after each write the store is trimmed to
  ``max_bytes`` (``REPRO_CACHE_MAX_MB``, default 512 MB), evicting the
  least-recently-used entries (hits move an entry to the journal's tail).
  The newest entry is never evicted;
* **bulk I/O** — :meth:`get_many`/:meth:`put_many` resolve a whole job
  group against one journal refresh and one journal append.
  :meth:`put_many` stores a lock-step batch as a single *packed group
  entry*: one uncompressed ``.npz`` holding the stacked arrays of every
  session, memory-mapped on read (the zip members are stored contiguously,
  so each ``.npy`` payload maps directly).  Packed groups hit and evict as
  a unit; per-session ``get``/``put`` semantics and content addresses are
  unchanged;
* **corruption tolerance** — an unreadable entry is treated as a miss and
  overwritten by the fresh simulation; torn journal tails and foreign
  lines are skipped;
* **metrics** — hit, miss and eviction counts flow into the ambient
  metrics registry (:mod:`repro.telemetry`).

All shard-tree enumeration is wrapped directly in ``sorted(...)``
(MAYA031): store behaviour is a function of store *content*, never of
readdir order.

Environment:

* ``REPRO_CACHE=1`` — enable the default cache for every
  :func:`~repro.exec.engine.run_sessions` call;
* ``REPRO_CACHE_DIR`` — cache directory (default ``.maya-cache/``);
* ``REPRO_CACHE_MAX_MB`` — size bound in megabytes (a finite positive
  number).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zipfile
from pathlib import Path

import numpy as np

from .. import telemetry
from ..machine import Trace

__all__ = [
    "TraceCache",
    "default_cache",
    "DEFAULT_CACHE_DIR",
    "LAYOUT_VERSION",
    "PACK_SCHEMA",
]

DEFAULT_CACHE_DIR = ".maya-cache"
_DEFAULT_MAX_MB = 512.0
_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: On-disk layout generation (v1 = flat directory, v2 = sharded + journal).
LAYOUT_VERSION = 2
#: Schema tag of packed group entries.
PACK_SCHEMA = "maya.trace.pack.npz.v1"

_JOURNAL = "journal.jsonl"
_SHARDS = "shards"
#: Compact the journal once it holds this many records beyond the live set.
_COMPACT_SLACK = 4096

#: Scalar and per-interval/per-tick fields packed per session (stacked
#: along axis 0; all sessions of a lock-step batch share array shapes).
_PACK_STR_FIELDS = ("workload", "platform", "defense")
_PACK_SCALAR_FIELDS = ("tick_s", "interval_s", "completed_at_s")
_PACK_ARRAY_FIELDS = ("power_w", "measured_w", "target_w", "settings",
                      "temperature_c")


def _dumps(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def _file_bytes(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _env_max_bytes() -> float:
    """The size bound from ``REPRO_CACHE_MAX_MB`` (default 512 MB), in bytes."""
    env = os.environ.get("REPRO_CACHE_MAX_MB", "").strip()
    if not env:
        return _DEFAULT_MAX_MB * 1e6
    try:
        max_mb = float(env)
    except ValueError:
        max_mb = math.nan
    if not (math.isfinite(max_mb) and max_mb > 0):
        raise ValueError(
            f"REPRO_CACHE_MAX_MB must be a finite positive number of "
            f"megabytes, got {env!r}"
        )
    return max_mb * 1e6


def _entry_bytes(record: dict) -> int:
    """The ``bytes`` count of a journal record; a negative count raises."""
    nbytes = int(record.get("bytes") or 0)
    if nbytes < 0:
        raise ValueError(f"journal {record.get('op')}: negative bytes {nbytes}")
    return nbytes


def _is_group(entry_id: str) -> bool:
    return entry_id.startswith("g-")


class TraceCache:
    """Sharded store of content-addressed, LRU-bounded trace entries."""

    def __init__(self, root: object = None, max_bytes: object = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", "").strip() or DEFAULT_CACHE_DIR
        self.root = Path(root)
        if max_bytes is None:
            max_bytes = _env_max_bytes()
        self.max_bytes = int(max_bytes)
        #: Runtime counters for this cache handle (not persisted).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Full shard-tree scans this handle performed (recovery only —
        #: steady-state operation must keep this at 0; the bench asserts it).
        self.tree_scans = 0
        # Journal-replayed state: entry id -> [bytes, (keys...)], in LRU
        # order (dict insertion order; a hit re-inserts at the tail).
        self._entries: dict | None = None
        self._by_key: dict = {}
        self._total_bytes = 0
        self._journal_pos = 0
        self._journal_ino: object = None
        self._records_seen = 0
        # Lifetime compaction count, carried in the journal's "layout"
        # header so fresh handles (and the stats CLI) see it.
        self._compactions = 0

    # -- paths ---------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.root / _JOURNAL

    @staticmethod
    def _shard_of(entry_id: str) -> str:
        # Group ids are "g-<digest>": shard by the digest prefix so packs
        # spread over the same 256 buckets as single entries.
        return entry_id[2:4] if _is_group(entry_id) else entry_id[:2]

    def _entry_path(self, entry_id: str) -> Path:
        name = (f"pack-{entry_id[2:]}.npz" if _is_group(entry_id)
                else f"{entry_id}.npz")
        return self.root / _SHARDS / self._shard_of(entry_id) / name

    def _path(self, job) -> Path:
        """Where ``job``'s single-session entry lives (packed or not)."""
        key = job.key()
        return self.root / _SHARDS / key[:2] / f"{key}.npz"

    # -- journal -------------------------------------------------------

    def _ensure_state(self) -> None:
        if self._entries is not None:
            return
        self._entries = {}
        self._by_key = {}
        self._total_bytes = 0
        self._journal_pos = 0
        self._records_seen = 0
        self._compactions = 0
        if self.journal_path.is_file():
            self._replay()
        elif (self.root / _SHARDS).is_dir():
            self._rebuild_from_scan()

    def _replay(self) -> None:
        """Apply journal records from ``_journal_pos`` to the current end.

        Only complete lines are consumed; a torn tail (a writer crashed or
        is mid-append) stays unconsumed until it gains its newline.
        Malformed lines are skipped — a line that is not a JSON object, or
        whose fields do not parse, costs its entry's accounting, never the
        store.
        """
        try:
            with open(self.journal_path, "rb") as stream:
                stat = os.fstat(stream.fileno())
                stream.seek(self._journal_pos)
                data = stream.read()
        except OSError:
            return
        end = data.rfind(b"\n") + 1
        for line in data[:end].splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            try:
                self._apply(record)
            except (TypeError, ValueError, OverflowError):
                continue
            self._records_seen += 1
        self._journal_pos += end
        self._journal_ino = (stat.st_dev, stat.st_ino)

    def _refresh(self) -> None:
        """Converge on journal records other handles appended since."""
        self._ensure_state()
        try:
            stat = self.journal_path.stat()
        except OSError:
            return
        ident = (stat.st_dev, stat.st_ino)
        if self._journal_ino != ident or stat.st_size < self._journal_pos:
            # The journal was compacted (or replaced) under us: replay the
            # new file from the start.
            self._entries = {}
            self._by_key = {}
            self._total_bytes = 0
            self._journal_pos = 0
            self._records_seen = 0
            self._compactions = 0
            self._replay()
        elif stat.st_size > self._journal_pos:
            self._replay()

    def _apply(self, record: dict) -> None:
        """Fold one journal record into the in-memory state.

        Every field is parsed before any state changes, so a record whose
        fields do not parse, or whose ``bytes`` count is negative, raises
        (``TypeError``/``ValueError``/``OverflowError``) and leaves the state
        as it was.
        """
        op = record.get("op")
        if op == "put":
            entry_id = record.get("id")
            if not isinstance(entry_id, str) or not entry_id:
                return
            keys = record.get("keys") or []
            if not isinstance(keys, list):
                raise TypeError(f"journal put {entry_id}: keys is not a list")
            keys = tuple(k for k in keys if isinstance(k, str))
            nbytes = _entry_bytes(record)
            old = self._entries.pop(entry_id, None)
            if old is not None:
                self._total_bytes -= old[0]
            self._entries[entry_id] = [nbytes, keys]
            self._total_bytes += nbytes
            for key in keys:
                self._by_key[key] = entry_id
        elif op == "touch":
            entry = self._entries.pop(record.get("id"), None)
            if entry is not None:
                self._entries[record["id"]] = entry  # move to MRU tail
        elif op == "resize":
            # No longer written; journals from stores that held equivalence
            # certificate sidecars still carry these records.
            entry = self._entries.get(record.get("id"))
            if entry is not None:
                nbytes = _entry_bytes(record)
                self._total_bytes += nbytes - entry[0]
                entry[0] = nbytes
        elif op == "evict":
            entry = self._entries.pop(record.get("id"), None)
            if entry is not None:
                self._total_bytes -= entry[0]
                for key in entry[1]:
                    if self._by_key.get(key) == record.get("id"):
                        del self._by_key[key]
        elif op == "clear":
            self._entries.clear()
            self._by_key.clear()
            self._total_bytes = 0
        elif op == "layout":
            # Genesis/compaction header: carries the cumulative compaction
            # count so it survives the journal rewrite that produced it.
            self._compactions = max(
                self._compactions, int(record.get("compactions") or 0)
            )
        # Unknown ops: ignored.

    def _commit(self, records: list) -> None:
        """Append ``records`` to the journal, then converge by replay.

        State changes flow *only* through journal replay — what this
        handle believes is exactly what any other handle replaying the
        same journal believes.  On an unwritable journal (read-only
        store) the records are applied in memory only.
        """
        if not records:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        payload = "".join(_dumps(r) + "\n" for r in records).encode()
        try:
            fd = os.open(self.journal_path,
                         os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
        except OSError:
            for record in records:
                self._apply(record)
            return
        self._refresh()
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rewrite the journal as one ``put`` per live entry (LRU order)."""
        if self._records_seen <= len(self._entries) + _COMPACT_SLACK:
            return
        lines = [_dumps({"op": "layout", "version": LAYOUT_VERSION,
                         "compactions": self._compactions + 1})]
        for entry_id, (nbytes, keys) in self._entries.items():
            lines.append(_dumps({"op": "put", "id": entry_id,
                                 "bytes": nbytes, "keys": list(keys)}))
        data = ("\n".join(lines) + "\n").encode()
        tmp = self.journal_path.with_name(f".{_JOURNAL}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, self.journal_path)
        except OSError:
            return
        finally:
            tmp.unlink(missing_ok=True)
        self._compactions += 1
        telemetry.count("exec.cache.compactions")
        try:
            stat = self.journal_path.stat()
            self._journal_ino = (stat.st_dev, stat.st_ino)
        except OSError:
            self._journal_ino = None
        self._journal_pos = len(data)
        self._records_seen = len(self._entries) + 1

    # -- recovery ------------------------------------------------------

    def _rebuild_from_scan(self) -> None:
        """Re-derive the journal from the shard tree (recovery path).

        Taken only when a sharded tree exists without a journal (deleted
        or imported out-of-band); counted in ``tree_scans`` so the bench
        can assert steady-state operation never lands here.
        """
        self.tree_scans += 1
        telemetry.count("exec.cache.tree_scans")
        stamped = []
        for shard in sorted((self.root / _SHARDS).iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.npz")):
                if path.name.startswith("."):
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                stamped.append((stat.st_mtime, path.name, path))
        records = []
        for _, _, path in sorted(stamped):  # oldest first = LRU order
            record = self._scan_record(path)
            if record is not None:
                records.append(record)
        self._commit(records)

    def _scan_record(self, path: Path) -> dict | None:
        if path.name.startswith("pack-"):
            entry_id = "g-" + path.name[len("pack-"):-len(".npz")]
            try:
                keys = _pack_keys(path)
            except (OSError, ValueError, KeyError):
                return None
        else:
            entry_id = path.stem
            keys = [path.stem]
        return {"op": "put", "id": entry_id, "bytes": _file_bytes(path),
                "keys": keys}

    # -- lookup --------------------------------------------------------

    def get(self, job) -> Trace | None:
        """The cached trace for ``job``, or None (counted as a miss)."""
        return self.get_many([job])[0]

    def get_many(self, jobs) -> list:
        """Cached traces for ``jobs`` (None per miss), in job order.

        One journal refresh and at most one journal append (the LRU
        touches) cover the whole group, and a packed group entry is
        opened once however many of its sessions the group asks for.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        self._refresh()
        results: list = [None] * len(jobs)
        touched: dict = {}
        packs: dict = {}
        for index, job in enumerate(jobs):
            key = job.key()
            entry_id = self._by_key.get(key)
            trace = None
            if entry_id is not None:
                trace = self._load_entry(entry_id, key, packs)
            if trace is None:
                self.misses += 1
                telemetry.count("exec.cache.misses")
                continue
            results[index] = trace
            touched[entry_id] = True
            self.hits += 1
            telemetry.count("exec.cache.hits")
        self._commit([{"op": "touch", "id": entry_id} for entry_id in touched])
        return results

    def _load_entry(self, entry_id: str, key: str, packs: dict):
        if _is_group(entry_id):
            pack = packs.get(entry_id)
            if pack is None:
                try:
                    pack = _Pack(self._entry_path(entry_id))
                except (OSError, ValueError, KeyError):
                    return None
                packs[entry_id] = pack
            try:
                return pack.trace_for(key)
            except (KeyError, ValueError, IndexError):
                return None
        try:
            return Trace.load_npz(self._entry_path(entry_id))
        except (OSError, ValueError, KeyError):
            return None

    # -- storage -------------------------------------------------------

    def put(self, job, trace: Trace) -> None:
        """Store ``trace`` under the job's content address (atomically)."""
        self.put_many([job], [trace])

    def put_many(self, jobs, traces, packed: object = None) -> None:
        """Store a job group in one journal transaction.

        A group of ≥2 shape-compatible traces (a lock-step batch) is
        written as a single packed entry unless ``packed=False``; anything
        else falls back to per-session entries.  Either way the keys serve
        subsequent per-session ``get`` calls identically.
        """
        jobs = list(jobs)
        traces = list(traces)
        if len(jobs) != len(traces):
            raise ValueError(
                f"put_many: {len(jobs)} jobs but {len(traces)} traces"
            )
        if not jobs:
            return
        self._ensure_state()
        if packed is None:
            packed = True
        records = []
        if packed and len(jobs) > 1 and _packable(traces):
            records.append(self._put_packed(jobs, traces))
        else:
            for job, trace in zip(jobs, traces):
                records.append(self._put_single(job, trace))
        telemetry.count("exec.cache.puts", len(records))
        self._commit([r for r in records if r is not None])
        self._evict()

    def _atomic_npz(self, path: Path, write) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            write(tmp)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def _put_single(self, job, trace: Trace) -> dict:
        key = job.key()
        path = self._path(job)
        self._atomic_npz(path, trace.save_npz)
        return {"op": "put", "id": key, "bytes": _file_bytes(path), "keys": [key]}

    def _put_packed(self, jobs, traces) -> dict:
        keys = [job.key() for job in jobs]
        digest = hashlib.sha256("\x1f".join(keys).encode()).hexdigest()[:32]
        entry_id = f"g-{digest}"
        path = self._entry_path(entry_id)
        self._atomic_npz(path, lambda tmp: _save_pack(tmp, keys, traces))
        return {"op": "put", "id": entry_id, "bytes": _file_bytes(path),
                "keys": keys}

    # -- maintenance ---------------------------------------------------

    def entries(self) -> list:
        """Live entries as ``(path, accounted_bytes)``, LRU first."""
        self._refresh()
        return [(self._entry_path(entry_id), entry[0])
                for entry_id, entry in self._entries.items()]

    def _evict(self) -> None:
        if self._total_bytes <= self.max_bytes:
            # Fast path: the journaled total proves no eviction is needed —
            # no syscalls at all.
            return
        self._refresh()
        projected = self._total_bytes
        victims = []
        entry_ids = list(self._entries)
        # Oldest first; the most recent entry is always kept so a single
        # oversized trace cannot wipe the store it just entered.
        for entry_id in entry_ids[:-1]:
            if projected <= self.max_bytes:
                break
            victims.append(entry_id)
            projected -= self._entries[entry_id][0]
        records = []
        for entry_id in victims:
            self._entry_path(entry_id).unlink(missing_ok=True)
            records.append({"op": "evict", "id": entry_id})
            self.evictions += 1
            telemetry.count("exec.cache.evictions")
        self._commit(records)

    def stats(self) -> dict:
        self._refresh()
        groups = sum(1 for entry_id in self._entries if _is_group(entry_id))
        return {
            "dir": str(self.root),
            "layout": f"sharded-v{LAYOUT_VERSION}",
            "entries": len(self._entries),
            "sessions": len(self._by_key),
            "groups": groups,
            "total_bytes": int(self._total_bytes),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "tree_scans": self.tree_scans,
            "journal_records": self._records_seen,
            "compactions": self._compactions,
            "shards": self._shard_distribution(),
        }

    def _shard_distribution(self) -> dict:
        """Entry-count spread over occupied shards, from journaled state.

        Derived from ``_entries`` alone (no directory walk), so it costs
        nothing beyond the refresh ``stats`` already performs.
        """
        per_shard: dict = {}
        for entry_id in self._entries:
            shard = self._shard_of(entry_id)
            per_shard[shard] = per_shard.get(shard, 0) + 1
        counts = sorted(per_shard.values())
        if not counts:
            return {"occupied": 0, "entries_min": 0,
                    "entries_median": 0.0, "entries_max": 0}
        middle = len(counts) // 2
        if len(counts) % 2:
            median = float(counts[middle])
        else:
            median = (counts[middle - 1] + counts[middle]) / 2.0
        return {
            "occupied": len(counts),
            "entries_min": counts[0],
            "entries_median": median,
            "entries_max": counts[-1],
        }

    def clear(self) -> int:
        """Remove every entry (and stale temp file); returns the count."""
        self._refresh()
        removed = 0
        shards_root = self.root / _SHARDS
        if shards_root.is_dir():
            for shard in sorted(shards_root.iterdir()):
                if not shard.is_dir():
                    continue
                for path in sorted(shard.iterdir()):
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    if path.suffix == ".npz" and not path.name.startswith("."):
                        removed += 1
                try:
                    shard.rmdir()
                except OSError:
                    pass
        if self.root.is_dir():
            # Stale temp files at the root (an interrupted compaction).
            for path in sorted(self.root.glob(".*.tmp")):
                try:
                    path.unlink()
                except OSError:
                    continue
        self._commit([{"op": "clear"}])
        self._maybe_compact_after_clear()
        return removed

    def _maybe_compact_after_clear(self) -> None:
        # A cleared store's journal is all dead weight: compact eagerly.
        if self._entries is not None and not self._entries:
            self._records_seen = len(self._entries) + _COMPACT_SLACK + 1
            self._maybe_compact()


# -- packed group entries ----------------------------------------------


def _packable(traces) -> bool:
    """Whether ``traces`` share array shapes (a lock-step batch does)."""
    if not all(isinstance(trace, Trace) for trace in traces):
        return False
    first = traces[0]
    for trace in traces[1:]:
        for name in _PACK_ARRAY_FIELDS:
            if np.shape(getattr(trace, name)) != np.shape(getattr(first, name)):
                return False
    return True


def _save_pack(path: Path, keys, traces) -> None:
    """Write a packed group entry (uncompressed, so members can mmap)."""
    arrays = {
        "schema": np.asarray(PACK_SCHEMA),
        "keys": np.asarray(list(keys)),
    }
    for name in _PACK_STR_FIELDS:
        arrays[name] = np.asarray([getattr(t, name) for t in traces])
    for name in _PACK_SCALAR_FIELDS:
        arrays[name] = np.asarray(
            [getattr(t, name) for t in traces], dtype=np.float64
        )
    for name in _PACK_ARRAY_FIELDS:
        arrays[name] = np.stack(
            [np.asarray(getattr(t, name), dtype=np.float64) for t in traces]
        )
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _pack_keys(path: Path) -> list:
    with np.load(path) as data:
        schema = str(data["schema"][()])
        if schema != PACK_SCHEMA:
            raise ValueError(f"not a packed entry: schema {schema!r}")
        return [str(key) for key in data["keys"]]


class _Pack:
    """A packed group entry opened for reading (memory-mapped if possible)."""

    def __init__(self, path: Path) -> None:
        self._arrays = _mmap_npz(path)
        schema = str(np.asarray(self._arrays["schema"])[()])
        if schema != PACK_SCHEMA:
            raise ValueError(f"not a packed entry: schema {schema!r}")
        keys = [str(key) for key in np.asarray(self._arrays["keys"])]
        self._rows = {key: row for row, key in enumerate(keys)}

    def trace_for(self, key: str) -> Trace:
        row = self._rows[key]
        arrays = self._arrays
        fields: dict = {}
        for name in _PACK_STR_FIELDS:
            fields[name] = str(np.asarray(arrays[name])[row])
        for name in _PACK_SCALAR_FIELDS:
            fields[name] = float(np.asarray(arrays[name])[row])
        for name in _PACK_ARRAY_FIELDS:
            # Copy the row out of the mapping: the Trace must stay valid
            # after the pack (and its mmap) is dropped.
            fields[name] = np.array(arrays[name][row], dtype=np.float64)
        return Trace(**fields)


def _mmap_npz(path: Path) -> dict:
    """Arrays of an uncompressed ``.npz``, memory-mapping numeric members.

    ``np.load`` cannot memory-map zip archives, but ``np.savez`` stores
    its members uncompressed and contiguous, so each member's raw ``.npy``
    payload can be mapped in place: parse the zip local header for the
    data offset, read the npy header, and hand the tail to ``np.memmap``.
    Members that cannot be mapped (string dtypes, compressed or misaligned
    members) fall back to a plain read.
    """
    arrays = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            name = info.filename
            if name.endswith(".npy"):
                name = name[:-len(".npy")]
            arrays[name] = _load_member(archive, raw, info, path)
    return arrays


def _load_member(archive, raw, info, path: Path):
    if info.compress_type == zipfile.ZIP_STORED:
        try:
            raw.seek(info.header_offset)
            local = raw.read(30)
            if local[:4] == b"PK\x03\x04":
                name_len = int.from_bytes(local[26:28], "little")
                extra_len = int.from_bytes(local[28:30], "little")
                raw.seek(info.header_offset + 30 + name_len + extra_len)
                version = np.lib.format.read_magic(raw)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
                else:
                    raise ValueError(f"unsupported npy version {version}")
                if dtype.kind == "f" and not fortran:
                    return np.memmap(path, dtype=dtype, mode="r",
                                     offset=raw.tell(), shape=shape)
        except (OSError, ValueError):
            pass
    with archive.open(info) as member:
        return np.lib.format.read_array(member, allow_pickle=False)


def default_cache() -> TraceCache | None:
    """The env-gated default cache: enabled only when ``REPRO_CACHE`` is set."""
    if os.environ.get("REPRO_CACHE", "").strip().lower() in _TRUTHY:
        return TraceCache()
    return None
