"""Durable crawl provenance: the collection journal and the checkpointer.

Two cooperating pieces sit between the crawler and a
:class:`~repro.storage.backends.SqliteBackend` store:

* :class:`CollectionJournal` writes the final collection image once, at
  run end. It writes nothing while the crawl runs: the crawler never reads
  through it (the hot path stays in memory).
* :class:`CrawlCheckpointer` periodically persists a full crawler state
  snapshot (queue order, estimator sums and change histories, politeness
  map, and the collection itself as ``collection`` columns — assembled by
  ``IncrementalCrawler``) as a named state text, from which a killed run
  resumes bit-identically. Its ``backend.flush()`` is the store's commit,
  so a killed run's store *is* its last committed checkpoint.

The store therefore holds the collection and each page's observations
once per commit, in the checkpoint, and at run end the collection's final
image (:data:`COLLECTION_STATE_KEY`), which commits together with the
run's result.

A checkpoint document names each URL once. ``allurls.url`` is its URL
table — AllUrls' own URLs, then any URL they lack (a shard's foreign-site
link targets) — and every other URL column is a base64 ``<i4`` index
column into it (:func:`index_urls` / :func:`resolve_urls`). Every other
per-URL column is packed too: floats by :func:`pack_floats`, ints and bools
by :func:`pack_ints`. Change histories keep each page's first interval and
a restore rebuilds the rest from the visit times, by the subtraction the
crawler made.

One rule governs a checkpoint's bytes: the document is serialised **once**;
``integrity`` is the sha256 **of the stored bytes** that follow its
fixed-width header; the previous slot receives the **last text this process
wrote or verified**, never a second dump; a load re-hashes before it parses.

A resume writes nothing to the store before its first checkpoint, from
whichever slot it loaded: the resumed run rewrites both slots as it goes.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
from typing import Callable, List, Optional, Sequence, Tuple, TYPE_CHECKING

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
#: Version stamp of the checkpoint document layout. Format 7 names each URL
#: once: ``allurls.url`` is the document's URL table, every other URL column
#: is an index column into it, every int and bool column is packed, and the
#: histories drop what a restore rebuilds: the intervals and last visits
#: from their visit times, the window from the module's one constant.
#: A document of any other format is refused by name: one without the
#: integrity header (formats 1-2) at :meth:`CrawlCheckpointer.load`, one
#: with it (formats 3-6) when the crawler restores it.
CHECKPOINT_FORMAT = 7
# A stored checkpoint is this header followed by the document's own JSON
# text minus its opening brace; the digest covers "{" + that remainder.
_HEADER = '{"integrity": "%s", '
_HEADER_RE = re.compile(re.escape(_HEADER) % "([0-9a-f]{64})")


def namespaced_state_key(namespace: Optional[str], key: str) -> str:
    """Qualify a backend state key with an optional namespace.

    A sharded crawl stores several independent state streams (one per
    shard) and must never let them collide with each other or with a
    plain run's keys; ``namespaced_state_key("shard00", "checkpoint")``
    yields ``"shard00/checkpoint"``. ``None`` returns ``key`` unchanged,
    which is what keeps single-crawler storage layouts byte-identical to
    the pre-shard format.
    """
    if namespace is None:
        return key
    if "/" in namespace:
        raise ValueError(f"namespace {namespace!r} must not contain '/'")
    return f"{namespace}/{key}"


def pack_floats(values: Sequence[float]) -> str:
    """A float list or ndarray as base64 of its little-endian float64 bytes.

    Exact for every double (NaN payloads, ±inf, −0.0, subnormals) and ~20×
    cheaper to write than ``json.dumps``'s per-float ``repr``.
    """
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def unpack_floats(text: str) -> List[float]:
    """The column :func:`pack_floats` packed, as Python floats."""
    return unpack_array(text, "<f8").tolist()


def pack_ints(values: Sequence[int], dtype: str = INT) -> str:
    """An int or bool list or ndarray as base64 of its ``dtype`` bytes.

    Raises ``ValueError`` when a value does not fit ``dtype``
    (``OverflowError`` past 64 bits): a column is never wrapped or
    truncated into another value.
    """
    array = np.array(values, dtype=np.int64)
    packed = array.astype(dtype)
    if not np.array_equal(packed, array):
        raise ValueError(f"a checkpoint column holds a value that does not fit {dtype}")
    return base64.b64encode(packed.tobytes()).decode("ascii")


def unpack_array(text: str, dtype: str = INT) -> np.ndarray:
    """A packed column as a read-only ndarray of ``dtype`` over its bytes."""
    return np.frombuffer(base64.b64decode(text), dtype=dtype)


#: Key paths of a crawler snapshot's URL columns besides ``allurls.url``.
_URL_COLUMNS = (
    ("collurls", "urls"),
    ("collection", "url"),
    ("update", "histories", "urls"),
    ("update", "rate_estimates", "urls"),
    ("update", "intervals", "urls"),
    ("update", "importance", "urls"),
    ("ranking", "graph", "urls"),
)


def index_urls(state: dict) -> dict:
    """Swap a crawler snapshot's URL columns for index columns, in place.

    The URL table that replaces ``allurls.url`` is AllUrls' own URLs, then
    each URL of another column that they lack, in first-seen order;
    ``allurls.strays`` counts those. Every column keeps its own order.
    The collection's ``outlinks`` become one flat index column, split by
    ``outlink_counts``. Returns ``state``.
    """
    allurls = state["allurls"]
    ids = {url: i for i, url in enumerate(allurls["url"])}
    registered = len(ids)

    def index(urls: List[str]) -> str:
        try:
            return pack_ints(np.fromiter(map(ids.__getitem__, urls), np.int64, len(urls)))
        except KeyError:  # a stray: give it the next id
            return pack_ints([ids.setdefault(url, len(ids)) for url in urls])

    for path in _URL_COLUMNS:
        owner = _owner(state, path)
        owner[path[-1]] = index(owner[path[-1]])
    collection = state["collection"]
    outlinks = collection["outlinks"]
    collection["outlink_counts"] = pack_ints(list(map(len, outlinks)))
    collection["outlinks"] = index([url for links in outlinks for url in links])
    allurls["url"] = list(ids)
    allurls["strays"] = len(ids) - registered
    return state


def resolve_urls(state: dict) -> dict:
    """The snapshot :func:`index_urls` indexed, with its URL columns back.

    Every dict on a rewritten column's path is copied; ``state`` itself is
    left as it was.
    """
    state = dict(state)
    table = state["allurls"]["url"]

    def resolve(text: str) -> List[str]:
        return list(map(table.__getitem__, unpack_array(text).tolist()))

    for path in _URL_COLUMNS:
        owner = _owner(state, path, copy=True)
        owner[path[-1]] = resolve(owner[path[-1]])
    collection = _owner(state, ("collection", "outlinks"), copy=True)
    ends = np.cumsum(unpack_array(collection.pop("outlink_counts"))).tolist()
    flat = resolve(collection["outlinks"])
    collection["outlinks"] = [
        tuple(flat[start:end]) for start, end in zip([0] + ends[:-1], ends)
    ]
    allurls = _owner(state, ("allurls", "url"), copy=True)
    allurls["url"] = table[: len(table) - allurls.pop("strays")]
    return state


def _owner(state: dict, path: Tuple[str, ...], copy: bool = False) -> dict:
    """The dict holding the column at ``path``, each dict on the way copied
    into its parent first when ``copy`` is set."""
    for key in path[:-1]:
        if copy:
            state[key] = dict(state[key])
        state = state[key]
    return state


def _digest(text: str, start: int) -> str:
    """sha256 of ``"{" + text[start:]``, the body a checkpoint's header vouches for.

    Hashed in 1 MB slices so no second whole copy of an ~8 MB document is
    ever resident (``json.dumps`` emits pure ASCII, so a character slice is
    a byte slice). A damaged text may decode to anything, lone surrogates
    included; ``surrogatepass`` lets those hash to a mismatch instead of
    raising out of :meth:`CrawlCheckpointer.load` past its fallback.
    """
    digest = hashlib.sha256(b"{")
    for offset in range(start, len(text), 1 << 20):
        digest.update(text[offset:offset + (1 << 20)].encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


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
        run's result commits it. A completed store thus holds its collection."""
        from repro.storage.records import records_to_columns  # records imports this module

        self.backend.save_state(
            self._image_key, records_to_columns(collection.working_records())
        )


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
        # Text of the last checkpoint written or verified; the next save demotes it.
        self._last_text: Optional[str] = None
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
        perturb the run. That flush is the store's commit: both slots
        become durable together, or (killed first) not at all.

        The document is serialised exactly once. ``state["integrity"]``
        becomes the sha256 of those bytes, and the text written is the same
        bytes behind a fixed-width integrity header — so what a load
        re-hashes is what this save hashed, with no canonical re-dump on
        either side. The previous slot receives the text the last save (or
        load) produced and verified, not a second dump of a dict.
        """
        if self.spec_hash is not None:
            state["spec_hash"] = self.spec_hash
        state.pop("integrity", None)
        if self._last_text is not None:
            # Demote the last good text before overwriting the current
            # slot: whatever instant a crash hits, at least one of the two
            # slots holds a complete checkpoint this process wrote or
            # verified. The text is released before the new one is built, so
            # two whole documents are never resident at once (peak RSS).
            self.backend.save_state_text(self._prev_key, self._last_text)
            self._last_text = None
        body = json.dumps(state)
        state["integrity"] = _digest(body, 1)
        text = body.replace("{", _HEADER % state["integrity"], 1)
        del body
        self.backend.save_state_text(self._state_key, text)
        self.backend.flush()
        self._last_text = text
        self._last_saved = at
        self.saves += 1
        if self.on_save is not None:
            self.on_save(state)

    def _load_verified(self, key: str) -> Tuple[Optional[str], Optional[str]]:
        """Read one checkpoint slot's text and verify it by re-hashing.

        Returns ``(text, None)`` for a good checkpoint, ``(None, None)``
        for an empty slot, and ``(None, reason)`` for a damaged one
        (unreadable bytes, a torn write, or any altered character — the
        digest covers the bytes, so even whitespace a parser ignores counts).

        A text with no integrity header that still parses as a JSON object
        of another format is an older build's checkpoint. It cannot be
        verified under this build's rule, and its previous slot is just as
        old, so it raises a ``ValueError`` naming both formats rather than
        being resumed from, called corrupt, or falling back.
        """
        try:
            text = self.backend.load_state_text(key)
        except Exception as error:
            return None, f"unreadable checkpoint state: {error}"
        if text is None:
            return None, None
        header = _HEADER_RE.match(text)
        if header is not None:
            good = _digest(text, header.end()) == header.group(1)
            return (text, None) if good else (None, "integrity checksum mismatch")
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

    def load(self) -> Optional[dict]:
        """The most recent *good* checkpoint, or ``None`` when none exists.

        The current slot's stored text is re-hashed against its integrity
        header and parsed only once verified (never re-serialised); on
        damage the load falls back to the previous good snapshot
        (resuming from it is bit-identical to having crashed one
        checkpoint earlier). Only when both slots are damaged does the load raise. A
        store written by an older format is refused by name.
        """
        text, error = self._load_verified(self._state_key)
        if error is not None:
            text, fallback_error = self._load_verified(self._prev_key)
            if text is None:
                detail = f"previous snapshot: {fallback_error}" if fallback_error \
                    else "no previous snapshot is available"
                raise ValueError(f"checkpoint is corrupt ({error}); {detail}")
        if text is None:
            return None
        state = json.loads(text)
        if self.spec_hash is not None:
            stored_hash = state.get("spec_hash")
            if stored_hash is not None and stored_hash != self.spec_hash:
                raise ValueError(
                    "checkpoint was written by a different spec "
                    f"(stored {stored_hash[:12]}..., expected {self.spec_hash[:12]}...)"
                )
        self._last_text = text
        return state
