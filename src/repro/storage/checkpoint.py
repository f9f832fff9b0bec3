"""Durable crawl provenance: the collection journal and the checkpointer.

Two cooperating pieces sit between the crawler and a
:class:`~repro.storage.backends.SqliteBackend` store:

* :class:`CollectionJournal` writes the final collection image once, at
  run end. It writes nothing while the crawl runs: the crawler never reads
  through it (the hot path stays in memory).
* :class:`CrawlCheckpointer` periodically persists a full crawler state
  snapshot (queue order, estimator sums and change histories, politeness
  map, and the collection itself as ``collection`` columns — assembled by
  ``IncrementalCrawler``), from which a killed run resumes bit-identically.
  Its ``backend.flush()`` is the store's commit, so a killed run's store
  *is* its last committed checkpoint.

The store therefore holds the collection and each page's observations
once per commit, in the checkpoint, and at run end the collection's final
image (:data:`COLLECTION_STATE_KEY`), which commits together with the
run's result.

One codec, :func:`encode` / :func:`decode`, stores a checkpoint or a final
image in two rows written in one transaction: a JSON header (the scalars,
the URL table, and each column's dtype, byte offset and length) at the
slot's key, and the raw little-endian column bytes beside it
(:func:`columns_key`). Each module packs its own columns as typed ndarrays
(:func:`pack_floats`, :func:`pack_ints`, and :func:`pack_urls` for URLs as
index columns into ``allurls.url``, the URL table; a final image carries
its own, ``table``) and reads back read-only views over the stored bytes.

One rule governs a checkpoint's bytes: the document is serialised **once**;
``integrity`` is the sha256 of the stored header body that follows its
fixed-width prefix **plus the column bytes**; the previous slot receives
the **last header and columns this process wrote or verified**, never a
second dump; a load re-hashes before it parses.

A resume writes nothing to the store before its first checkpoint, from
whichever slot it loaded: the resumed run rewrites both slots as it goes.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (records and core import this)
    from repro.storage.backends import SqliteBackend
    from repro.storage.collection import Collection

#: Backend state key under which crawl checkpoints are stored.
CHECKPOINT_STATE_KEY = "checkpoint"
#: Backend state key holding the *previous* good checkpoint. Kept one save
#: behind the current one so a corrupted latest snapshot (detected by its
#: integrity checksum) still leaves a verified state to resume from.
CHECKPOINT_PREV_STATE_KEY = "checkpoint_prev"
#: Backend state key under which a completed run's result is stored.
RESULT_STATE_KEY = "result"
#: Backend state key under which a completed run's final collection image
#: (:func:`~repro.storage.records.records_to_columns`) is stored.
COLLECTION_STATE_KEY = "collection"
#: Dtype of a checkpoint's packed int columns, URL indices included.
INT = "<i4"
#: Version stamp of the checkpoint layout: format 9 is a JSON header beside
#: raw column bytes. A stored checkpoint of an older format (its prefix
#: spelt ``{"integrity": "``, with spaces) is refused by name at
#: :meth:`CrawlCheckpointer.load`, before any hash is compared; a state of
#: another format handed to the crawler is refused when it restores it.
CHECKPOINT_FORMAT = 9
# A stored header is this prefix, then the encoded header minus its opening
# brace; the digest covers that remainder, then the column bytes.
_HEADER = '{"integrity":"%s",'
_HEADER_RE = re.compile(r'\{"integrity":"([0-9a-f]{64})",')


def namespaced_state_key(namespace: Optional[str], key: str) -> str:
    """Qualify a backend state key with an optional namespace.

    A sharded crawl stores several independent state streams (one per
    shard) and must never let them collide with each other or with a
    plain run's keys; ``namespaced_state_key("shard00", "checkpoint")``
    yields ``"shard00/checkpoint"``. ``None`` returns ``key`` unchanged.
    """
    if namespace is None:
        return key
    if "/" in namespace:
        raise ValueError(f"namespace {namespace!r} must not contain '/'")
    return f"{namespace}/{key}"


def columns_key(key: str) -> str:
    """The state key of the column bytes beside the header stored at ``key``."""
    return key + ".columns"


def pack_floats(values: Sequence[float]) -> np.ndarray:
    """A float list or ndarray as a new ``<f8`` column: exact for every
    double (NaN payloads, ±inf, −0.0, subnormals)."""
    return np.array(values, dtype="<f8")


def pack_ints(values: Sequence[int], dtype: str = INT) -> np.ndarray:
    """An int or bool list or ndarray as a new ``dtype`` column.

    Raises ``ValueError`` when a value does not fit ``dtype``
    (``OverflowError`` past 64 bits): a column is never wrapped or
    truncated into another value.
    """
    array = np.array(values, dtype=np.int64)
    packed = array.astype(dtype)
    if not np.array_equal(packed, array):
        raise ValueError(f"a checkpoint column holds a value that does not fit {dtype}")
    return packed


def pack_urls(urls: Sequence[str], ids: Dict[str, int]) -> np.ndarray:
    """A URL column as an :data:`INT` index column into ``ids`` (URL → index).

    A URL ``ids`` lacks (a stray) gets the next index, so afterwards
    ``list(ids)`` is the URL table every column packed through it indexes.
    """
    try:
        return pack_ints(np.fromiter(map(ids.__getitem__, urls), np.int64, len(urls)))
    except KeyError:
        return pack_ints([ids.setdefault(url, len(ids)) for url in urls])


def unpack_urls(column: np.ndarray, table: Sequence[str]) -> List[str]:
    """The URL column :func:`pack_urls` packed, looked up in its ``table``."""
    return list(map(table.__getitem__, column.tolist()))


def encode(document: dict) -> Tuple[str, bytes]:
    """``document`` as its JSON header and its column bytes, in one pass.

    Every ndarray in ``document`` (a packed column) is written into the
    header as ``{"column": [dtype, byte offset, length]}``, a one-key object
    no document holds otherwise, and its bytes into the column bytes at an
    8-byte boundary, so every view over them is aligned; everything else is
    compact JSON.
    """
    parts: List[object] = []
    size = 0

    def column(value):
        nonlocal size
        if not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        pad = -size % 8
        parts.extend((bytes(pad), value))
        reference = {"column": [value.dtype.str, size + pad, value.size]}
        size += pad + value.nbytes
        return reference

    header = json.dumps(document, separators=(",", ":"), default=column)
    return header, b"".join(parts)


def decode(header: str, columns: bytes) -> dict:
    """The document :func:`encode` split, each column a read-only
    ``np.frombuffer`` view over ``columns``."""

    def column(node: dict):
        if len(node) != 1 or "column" not in node:
            return node
        dtype, offset, length = node["column"]
        return np.frombuffer(columns, dtype, length, offset)

    return json.loads(header, object_hook=column)


def _digest(body: str, columns: bytes) -> str:
    """sha256 of a header body and its column bytes: what a prefix vouches for."""
    digest = hashlib.sha256(body.encode())
    digest.update(columns)
    return digest.hexdigest()


def _save_rows(backend: SqliteBackend, key: str, rows: Tuple[str, bytes]) -> None:
    """Write a header at ``key`` and its column bytes beside it."""
    backend.save_state_text(key, rows[0])
    backend.save_state_text(columns_key(key), rows[1])


class CollectionJournal:
    """Writes a run's final collection image into its store.

    The store keeps no per-fetch log: every checkpoint carries the
    collection and each page's change history, and :meth:`finish` writes the
    final image once at run end, in the transaction the run's result commits.

    Args:
        backend: The destination store.
        namespace: Optional state-key namespace (see
            :func:`namespaced_state_key`), the same as the run's checkpointer.
    """

    def __init__(self, backend: SqliteBackend, namespace: Optional[str] = None) -> None:
        self.backend = backend
        self._image_key = namespaced_state_key(namespace, COLLECTION_STATE_KEY)

    def on_batch(self, outcome) -> None:
        """Not called: the store keeps no per-fetch log. Defined only
        because the e2e benchmark's tracer table names it."""

    def on_outcome(self, outcome) -> None:
        """Not called: the store keeps no per-fetch log. Defined only
        because the e2e benchmark's tracer table names it."""

    def on_discard(self, url: str) -> None:
        """Not called: the store keeps no per-page rows to delete. Defined
        only because the e2e benchmark's tracer table names it."""

    def refresh_records(self, records: list) -> None:
        """Not called: the store keeps no per-page importance to refresh.
        Defined only because the e2e benchmark's tracer table names it."""

    def finish(self, collection: "Collection") -> None:
        """Write the final collection image into the open transaction; the
        run's result commits it. A completed store thus holds its collection.

        The image is the checkpoint's ``collection`` columns with its own
        URL table, ``table``: ``records_from_columns(image, image["table"])``
        reads back ``image = decode(header, column bytes)``."""
        from repro.storage.records import records_to_columns  # records imports this module

        ids: Dict[str, int] = {}
        image = records_to_columns(collection.working_records(), ids)
        image["table"] = list(ids)
        _save_rows(self.backend, self._image_key, encode(image))


class CrawlCheckpointer:
    """Periodically persists full crawler snapshots to a backend.

    Args:
        backend: The destination store.
        every_days: Minimum virtual-time spacing between checkpoints; the
            crawler offers a save opportunity at each event boundary and the
            checkpointer accepts when this much time has passed.
        spec_hash: When given, stamped into every checkpoint so a resume can
            refuse state written by a different experiment spec.
        namespace: Optional state-key namespace (see
            :func:`namespaced_state_key`); a sharded run gives each shard
            its own so per-shard checkpoints never collide.
    """

    def __init__(
        self,
        backend: SqliteBackend,
        every_days: float,
        spec_hash: Optional[str] = None,
        namespace: Optional[str] = None,
    ) -> None:
        if every_days <= 0:
            raise ValueError("every_days must be positive")
        self.backend = backend
        self.every_days = every_days
        self.spec_hash = spec_hash
        self._state_key = namespaced_state_key(namespace, CHECKPOINT_STATE_KEY)
        self._prev_key = namespaced_state_key(namespace, CHECKPOINT_PREV_STATE_KEY)
        self.saves = 0
        self._last_saved: Optional[float] = None
        # Rows of the last checkpoint written or verified; the next save demotes them.
        self._last: Optional[Tuple[str, bytes]] = None
        #: Optional test/observer hook called with each saved state dict.
        self.on_save: Optional[Callable[[dict], None]] = None

    def start(self, at: float) -> None:
        """Anchor the checkpoint clock at the run (or resume) start."""
        self._last_saved = at

    def due(self, at: float) -> bool:
        """Whether a checkpoint should be taken at virtual time ``at``."""
        return self._last_saved is None or at - self._last_saved >= self.every_days

    def save(self, state: dict, at: float) -> None:
        """Persist ``state`` as the current checkpoint (overwrites prior).

        The save is read-only with respect to the crawler: the state dict
        was assembled from snapshots, and flushing the backend has no effect
        on in-memory crawl structures — which is why checkpointing cannot
        perturb the run. That flush is the store's commit: both slots, each
        a header and its column bytes, become durable together, or (killed
        first) not at all.

        The document is encoded exactly once. ``state["integrity"]`` becomes
        the sha256 of the header body and the column bytes, written behind a
        fixed-width prefix naming it, so a load re-hashes what this save
        hashed. The previous slot receives the rows the last save (or load)
        produced and verified, not a second dump.
        """
        if self.spec_hash is not None:
            state["spec_hash"] = self.spec_hash
        state.pop("integrity", None)
        if self._last is not None:
            # Demote the last good slot before overwriting the current one:
            # whatever instant a crash hits, at least one of the two slots
            # holds a complete checkpoint this process wrote or verified. It
            # is released before the new one is built, so two whole
            # checkpoints are never resident at once (peak RSS).
            _save_rows(self.backend, self._prev_key, self._last)
            self._last = None
        header, columns = encode(state)
        state["integrity"] = _digest(header[1:], columns)
        self._last = (_HEADER % state["integrity"] + header[1:], columns)
        _save_rows(self.backend, self._state_key, self._last)
        self.backend.flush()
        self._last_saved = at
        self.saves += 1
        if self.on_save is not None:
            self.on_save(state)

    def _load_verified(self, key: str) -> Tuple[Optional[Tuple[str, bytes]], Optional[str]]:
        """Read one checkpoint slot's header and column bytes and verify
        them by re-hashing.

        Returns ``(rows, None)`` for a good checkpoint, ``(None, None)``
        for an empty slot, and ``(None, reason)`` for a damaged one
        (unreadable rows, a torn or missing column row, or any altered
        byte — even whitespace a parser ignores).

        A header without this format's prefix that parses as a JSON object
        of another format is an older build's checkpoint, and its previous
        slot is just as old: it raises a ``ValueError`` naming both formats,
        before any hash is compared, rather than falling back.
        """
        try:
            text = self.backend.load_state_text(key)
            columns = self.backend.load_state_text(columns_key(key))
        except ValueError as error:
            return None, f"unreadable checkpoint state: {error}"
        if text is None:
            return None, None
        header = _HEADER_RE.match(text)
        if header is None:
            try:
                stored_format = json.loads(text).get("format", "none")
            except (ValueError, AttributeError):  # not JSON, or not an object
                stored_format = CHECKPOINT_FORMAT
            if stored_format != CHECKPOINT_FORMAT:
                raise ValueError(
                    f"checkpoint was written in format {stored_format} by an older build; "
                    f"this build reads and writes format {CHECKPOINT_FORMAT} only"
                )
            return None, "integrity header is damaged"
        if not isinstance(columns, bytes):
            return None, "column bytes are missing"
        if _digest(text[header.end():], columns) != header.group(1):
            return None, "integrity checksum mismatch"
        return (text, columns), None

    def load(self) -> Optional[dict]:
        """The most recent *good* checkpoint, or ``None`` when none exists.

        The current slot's rows are re-hashed and decoded only once verified;
        on damage the load falls back to the previous good snapshot (resuming
        from it is bit-identical to having crashed one checkpoint earlier).
        Only when both slots are damaged does the load raise. A store
        written by an older format is refused by name.
        """
        slot, error = self._load_verified(self._state_key)
        if error is not None:
            slot, fallback_error = self._load_verified(self._prev_key)
            if slot is None:
                detail = f"previous snapshot: {fallback_error}" if fallback_error \
                    else "no previous snapshot is available"
                raise ValueError(f"checkpoint is corrupt ({error}); {detail}")
        if slot is None:
            return None
        state = decode(*slot)
        # Another format is refused by name at restore, whatever hash it bears.
        if self.spec_hash is not None and state.get("format") == CHECKPOINT_FORMAT:
            stored_hash = state.get("spec_hash")
            if stored_hash is not None and stored_hash != self.spec_hash:
                raise ValueError(
                    "checkpoint was written by a different spec "
                    f"(stored {stored_hash[:12]}..., expected {self.spec_hash[:12]}...)"
                )
        self._last = slot
        return state
