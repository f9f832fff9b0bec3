"""Durable crawl provenance: the collection journal and the checkpointer.

Two cooperating pieces sit between the crawler and a
:class:`~repro.storage.backends.SqliteBackend` store:

* :class:`CollectionJournal` mirrors the live collection into the backend.
  Per-fetch change events are appended at ``process_batch`` boundaries;
  records are only *marked* there (new or changed, re-fetched unchanged,
  discarded) and written out by :meth:`CollectionJournal.flush` just before
  each checkpoint and at run end. The crawler never reads through it (the
  hot path stays in memory).
* :class:`CrawlCheckpointer` periodically persists a full crawler state
  snapshot (queue order, estimator sums, politeness map — assembled by
  ``IncrementalCrawler``) as a named state blob, from which a killed run
  resumes bit-identically. Its ``backend.flush()`` is the store's commit:
  the journal's records and events land in the same transaction as the
  checkpoint, so a killed run's store *is* its last committed checkpoint.

One rule governs a checkpoint's bytes: the document is serialised **once**;
``integrity`` is the sha256 **of the stored bytes** that follow its
fixed-width header; the previous slot receives the **last text this process
wrote or verified**, never a second dump; a load re-hashes before it parses.

On the normal resume path (the latest slot verified) the store already
holds the checkpoint's records and exactly its ``events_logged`` events, so
nothing is rewritten, and a store that disagrees is refused. Only when the
load fell back to the previous slot is the store ahead of the checkpoint:
its event log is then truncated to the checkpoint's count and its records
resynced wholesale from the checkpoint's collection image.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (records and core import this)
    from repro.core.crawl_module import BatchCrawlOutcome, CrawlOutcome
    from repro.storage.backends import SqliteBackend
    from repro.storage.collection import Collection
    from repro.storage.records import PageRecord

#: Backend state key under which crawl checkpoints are stored.
CHECKPOINT_STATE_KEY = "checkpoint"
#: Backend state key holding the *previous* good checkpoint. Kept one save
#: behind the current one so a corrupted latest snapshot (detected by its
#: integrity checksum) still leaves a verified state to resume from.
CHECKPOINT_PREV_STATE_KEY = "checkpoint_prev"
#: Backend state key under which a completed run's result is stored.
RESULT_STATE_KEY = "result"
#: Version stamp of the checkpoint document layout. Format 2 added the
#: RankingModule's link-graph and warm-start state (sparse incremental
#: ranking); format-1 checkpoints predate it and cannot resume here.
#: Format 3 changed no key but redefined ``integrity`` as the sha256 of the
#: stored bytes (format 2: of a canonical re-dump of the parsed document),
#: so an older store cannot be verified and :meth:`CrawlCheckpointer.load`
#: refuses it by name. Format 4 writes every per-URL float column through
#: :func:`pack_floats`; a format-3 document still verifies (same integrity
#: rule) but its float lists do not restore, so the crawler refuses it by name.
#: Format 5 stores each record's content ``version`` in place of its body and
#: checksum, and drops the crawl module's ``stored_versions`` map.
CHECKPOINT_FORMAT = 5
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
    return np.frombuffer(base64.b64decode(text), dtype="<f8").tolist()


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
    """Mirrors crawl outcomes into a storage backend, one checkpoint at a time.

    Events are appended per batch into the backend's open transaction.
    Records are marked per batch and written by :meth:`flush`, which the
    crawler calls before each checkpoint and at run end; the checkpoint's
    ``backend.flush()`` then commits both with the checkpoint blob.

    Args:
        backend: The destination store.
    """

    def __init__(self, backend: SqliteBackend) -> None:
        self.backend = backend
        #: Number of events appended through this journal (checkpointed, so
        #: a resume can check the store against it).
        self.events_logged = 0
        # URLs whose whole record is rewritten at the next flush (new,
        # changed or re-admitted pages), in first-mark order so new rows
        # take their collection order.
        self._dirty: Dict[str, None] = {}
        # URLs re-fetched unchanged since the last flush: only fetched_at,
        # visit_count (and importance) moved.
        self._refetched: Set[str] = set()
        # URLs whose importance a ranking scan rewrote since the last flush.
        self._rescored: Set[str] = set()
        # URLs that left the collection since the last flush: rows to delete.
        self._discarded: Set[str] = set()

    # ------------------------------------------------------------------ #
    # Crawl hooks
    # ------------------------------------------------------------------ #
    def on_batch(self, outcome: "BatchCrawlOutcome", collection: "Collection") -> None:
        """Append one resolved batch's events and mark its stored records.

        A URL may recur within a batch, so a page stored and then dropped by
        a later slot is no longer in ``collection``: its discard already
        queued the delete, and it is not marked.
        """
        dirty = self._dirty
        refetched = self._refetched
        get = collection.get_working
        for url, stored, changed in zip(outcome.urls, outcome.stored, outcome.changed):
            if not stored or get(url) is None:
                continue
            if changed:
                dirty[url] = None
            else:
                refetched.add(url)
        self.backend.append_events(list(zip(
            outcome.urls, outcome.completed_at.tolist(), outcome.changed, outcome.stored
        )))
        self.events_logged += len(outcome.urls)

    def on_outcome(self, outcome: "CrawlOutcome", collection: "Collection") -> None:
        """Scalar variant of :meth:`on_batch` for one crawl outcome."""
        if outcome.stored:
            if outcome.changed:
                self._dirty[outcome.url] = None
            else:
                self._refetched.add(outcome.url)
        self.backend.append_events(
            [(outcome.url, outcome.completed_at, outcome.changed, outcome.stored)]
        )
        self.events_logged += 1

    def on_discard(self, url: str) -> None:
        """A page left the working collection (refinement or failure)."""
        self._dirty.pop(url, None)
        self._refetched.discard(url)
        self._rescored.discard(url)
        self._discarded.add(url)

    def refresh_records(self, records: List[PageRecord]) -> None:
        """Mark ``records``' importance stale after a ranking scan rewrote it."""
        self._rescored.update(record.url for record in records)

    def flush(self, collection: "Collection") -> None:
        """Write every record change since the last flush; commits nothing.

        Deletes go first: a page discarded and re-admitted is dirty again,
        so its row is deleted and re-inserted at the end, where its first
        put would have left it. Then dirty pages are upserted whole,
        unchanged re-fetches get the narrow update, and every other row a
        ranking scan rescored gets its importance.
        """
        backend = self.backend
        for url in self._discarded:
            backend.delete_record(url)
        dirty = self._dirty
        get = collection.get_working
        backend.put_records([get(url) for url in dirty])
        refetched = self._refetched
        backend.update_fetches([get(url) for url in refetched if url not in dirty])
        backend.update_importance([
            get(url) for url in self._rescored
            if url not in dirty and url not in refetched
        ])
        dirty.clear()
        refetched.clear()
        self._rescored.clear()
        self._discarded.clear()

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """The journal's own state (folded into the crawl checkpoint)."""
        return {"events_logged": self.events_logged}

    def restore_snapshot(self, state: dict, committed: bool = False) -> None:
        """Resume the journal at a checkpoint.

        ``committed`` says the store committed together with this very
        checkpoint, so it holds exactly ``events_logged`` events: that is
        checked, and nothing is written. Otherwise the store may be ahead
        of the checkpoint, and the events past it describe fetches the
        resumed run will re-execute; they are truncated so nothing is
        double-counted (the caller rewrites the records).
        """
        self.events_logged = int(state["events_logged"])
        if not committed:
            self.backend.truncate_events(self.events_logged)
            return
        stored = self.backend.event_count()
        if stored != self.events_logged:
            raise ValueError(
                f"the store holds {stored} events but its checkpoint logged "
                f"{self.events_logged}, so it was not committed together with that "
                "checkpoint (written by a build that committed every batch, or "
                "altered since)"
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
        #: Whether the last :meth:`load` returned the latest slot, which the
        #: store committed together with its records and events. False
        #: before a load and after a fallback to the previous slot, whose
        #: store has moved past it.
        self.loaded_latest = False

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
        perturb the run. That flush is the store's commit: both slots and
        whatever the journal wrote since the last save become durable
        together, or (killed first) not at all.

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
        checkpoint earlier), and :attr:`loaded_latest` reports which slot
        was used. Only when both slots are damaged does the load raise. A
        store written by an older format is refused by name.
        """
        text, error = self._load_verified(self._state_key)
        self.loaded_latest = error is None and text is not None
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
