"""Per-window checkpointing for crash recovery.

A checkpoint is a pure-JSON snapshot of *everything* a mid-window merge
depends on: posterior arrays, sampling bookkeeping, the merger's RNG,
the scorer's cache and cost counters, and the ReID model's RNG (fault
schedules included).  Because the capture is complete, a window killed
by a :class:`~repro.faults.errors.WindowCrashError` and resumed from its
last checkpoint reproduces the uninterrupted run *bit-exactly* — the
acceptance test for this subsystem.

:class:`CheckpointStore` keeps snapshots in memory (optionally mirrored
to JSON files) and always round-trips them through ``json`` so resuming
in-process behaves exactly like resuming after a process restart.  Next
to each snapshot it keeps an append-only *journal* of JSON records, so
state that only grows (the decision ledger) is written once per record
instead of once per snapshot.  Both are written as compact JSON (no
spaces after separators).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from repro import contracts


def _encode_key(key) -> str:
    """Deterministic string form of a (possibly nested-tuple) window key."""
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def encode_generator_state(rng: np.random.Generator) -> dict:
    """JSON-able state of a numpy Generator (``bit_generator.state``)."""
    return dict(rng.bit_generator.state)


def restore_generator_state(rng: np.random.Generator, state: dict) -> None:
    """Restore a Generator from :func:`encode_generator_state` output."""
    rng.bit_generator.state = state


def capture_scorer_state(scorer) -> dict:
    """Snapshot a scorer's cache, cost clock, model RNG and breaker.

    Works for both :class:`~repro.reid.scorer.ReidScorer` and
    :class:`~repro.resilience.scorer.ResilientReidScorer` (duck-typed on
    the optional ``breaker`` attribute and the model's optional
    ``rng_state`` method).
    """
    state: dict = {
        "cost": scorer.cost.state_dict(),
        "cache": [
            [list(key), [float(x) for x in feature]]
            for key, feature in scorer.cache.items()
        ],
    }
    model_state = getattr(scorer.model, "rng_state", None)
    state["model"] = model_state() if callable(model_state) else None
    breaker = getattr(scorer, "breaker", None)
    if breaker is not None:
        state["breaker"] = breaker.state_dict()
    return state


def restore_scorer_state(scorer, state: dict) -> None:
    """Restore a snapshot captured by :func:`capture_scorer_state`."""
    scorer.cost.load_state_dict(state["cost"])
    scorer.cache.clear()
    for key, feature in state["cache"]:
        scorer.cache.put(
            (int(key[0]), int(key[1])), np.asarray(feature, dtype=float)
        )
    if state.get("model") is not None:
        set_state = getattr(scorer.model, "set_rng_state", None)
        if callable(set_state):
            set_state(state["model"])
    breaker = getattr(scorer, "breaker", None)
    if breaker is not None and state.get("breaker") is not None:
        breaker.load_state_dict(state["breaker"])


#: A journal keeping more than twice its retained records, and more than
#: this floor, is rewritten down to the retained ones: a rewrite costs
#: O(retained) once per O(retained) appends, so appending stays amortised
#: O(1) per record and the journal stays bounded by its retained count.
JOURNAL_COMPACT_FLOOR = 64


class _Journal:
    """One key's journal: the records at positions ``[base, length)`` as
    JSON lines (positions below ``base`` were compacted away)."""

    __slots__ = ("base", "lines")

    def __init__(self, base: int = 0, lines: list[str] | None = None) -> None:
        self.base = base
        self.lines = [] if lines is None else lines

    @property
    def length(self) -> int:
        return self.base + len(self.lines)


class CheckpointStore:
    """Keyed store of window checkpoints, in memory and optionally on disk.

    Every ``save`` serializes the payload to JSON and every ``load``
    parses it back, so resumed state is exactly what a restarted process
    would see (tuples become lists, int keys become strings — callers
    must encode accordingly).  When runtime contracts are enabled, each
    save additionally verifies the payload deep-equals its own JSON
    round-trip.

    Each key may also own a journal: an append-only sequence of JSON
    records addressed by position.  A caller appends first and saves the
    snapshot second, recording the journal length in it (write-ahead
    order); on resume, :meth:`journal` reads back exactly that prefix and
    drops any tail a crash left between an append and its save.
    Positions are absolute: :meth:`compact` drops a journal's oldest
    records without renumbering the rest, so a saved length stays valid
    across compaction.

    On disk a snapshot is ``ckpt_<digest>.json``, written to a temporary
    file and renamed over the old one, and its journal is
    ``ckpt_<digest>.jsonl`` beside it: a ``{"base": n}`` line, then one
    record per line.  An unparsable snapshot or journal line raises a
    ``ValueError`` naming the file.

    Args:
        path: optional directory for JSON file mirrors; created lazily.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._store: dict[str, str] = {}
        self._journals: dict[str, _Journal] = {}
        self.n_saves = 0
        self.n_loads = 0

    def __len__(self) -> int:
        return len(self._store)

    def _file_for(self, encoded: str, suffix: str = ".json") -> str:
        digest = hashlib.sha1(encoded.encode("utf-8")).hexdigest()[:16]
        return os.path.join(self.path, f"ckpt_{digest}{suffix}")

    def _describe(self, encoded: str, suffix: str = ".json") -> str:
        """Where a key's data lives, for error messages."""
        if self.path is None:
            return f"in-memory checkpoint {encoded}"
        return f"checkpoint file {self._file_for(encoded, suffix)}"

    def save(self, key, state: dict) -> None:
        """Persist ``state`` under ``key``, replacing any prior snapshot."""
        payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
        if contracts.ENABLED:
            contracts.check_checkpoint_roundtrip(
                state, json.loads(payload), where="CheckpointStore.save"
            )
        encoded = _encode_key(key)
        self._store[encoded] = payload
        self.n_saves += 1
        if self.path is not None:
            os.makedirs(self.path, exist_ok=True)
            _write_atomic(self._file_for(encoded), payload)

    def load(self, key) -> dict | None:
        """Return the snapshot for ``key``, or ``None`` when absent."""
        encoded = _encode_key(key)
        payload = self._store.get(encoded)
        if payload is None and self.path is not None:
            file_path = self._file_for(encoded)
            if os.path.exists(file_path):
                payload = _read_text(file_path)
        if payload is None:
            return None
        self.n_loads += 1
        try:
            return json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{self._describe(encoded)} is not valid JSON: {exc}"
            ) from exc

    def append(self, key, records: list[dict]) -> int:
        """Append ``records`` to ``key``'s journal; return its length."""
        encoded = _encode_key(key)
        journal = self._journal_of(encoded)
        if not records:
            return journal.length
        lines = [
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in records
        ]
        if contracts.ENABLED:
            for record, line in zip(records, lines):
                contracts.check_checkpoint_roundtrip(
                    record, json.loads(line), where="CheckpointStore.append"
                )
        if self.path is not None:
            os.makedirs(self.path, exist_ok=True)
            file_path = self._file_for(encoded, ".jsonl")
            with open(file_path, "a", encoding="utf-8") as fh:
                if fh.tell() == 0:
                    fh.write(_base_line(journal.base))
                fh.write("".join(line + "\n" for line in lines))
        journal.lines.extend(lines)
        return journal.length

    def journal(self, key, length: int) -> list[dict]:
        """The journal's records before position ``length``.

        Records past ``length`` — appended after the last snapshot that
        recorded a length, then cut off by a crash — are dropped, in
        memory and on disk.

        Raises:
            ValueError: when the journal holds fewer than ``length``
                records, when its records before ``length`` were
                compacted away, or when one of them does not parse.
        """
        encoded = _encode_key(key)
        journal = self._journal_of(encoded)
        if length > journal.length:
            raise ValueError(
                f"journal of checkpoint {encoded} holds {journal.length} "
                f"records, fewer than the {length} its snapshot expects"
            )
        if length < journal.base:
            raise ValueError(
                f"journal of checkpoint {encoded} starts at record "
                f"{journal.base}, past the {length} its snapshot expects"
            )
        kept = length - journal.base
        if kept < len(journal.lines):
            del journal.lines[kept:]
            self._rewrite_journal(encoded, journal)
        try:
            return json.loads("[%s]" % ",".join(journal.lines))
        except json.JSONDecodeError:
            for number, line in enumerate(journal.lines):
                try:
                    json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{self._describe(encoded, '.jsonl')}: journal "
                        f"record {journal.base + number} is not valid "
                        f"JSON: {exc}"
                    ) from exc
            raise

    def compact(self, key, keep: int) -> bool:
        """Drop all but the newest ``keep`` journal records once the
        journal holds more than ``max(2 * keep, JOURNAL_COMPACT_FLOOR)``.

        The surviving records keep their positions.  Returns whether the
        journal was rewritten.
        """
        encoded = _encode_key(key)
        journal = self._journal_of(encoded)
        if len(journal.lines) <= max(2 * keep, JOURNAL_COMPACT_FLOOR):
            return False
        excess = len(journal.lines) - keep
        journal.base += excess
        del journal.lines[:excess]
        self._rewrite_journal(encoded, journal)
        return True

    def discard(self, key) -> None:
        """Drop the snapshot and journal for ``key`` (memory and disk)."""
        encoded = _encode_key(key)
        self._store.pop(encoded, None)
        self._journals.pop(encoded, None)
        if self.path is not None:
            for suffix in (".json", ".jsonl"):
                file_path = self._file_for(encoded, suffix)
                if os.path.exists(file_path):
                    os.remove(file_path)

    def _journal_of(self, encoded: str) -> _Journal:
        """The key's journal, read from disk on first use."""
        journal = self._journals.get(encoded)
        if journal is None:
            journal = _Journal()
            if self.path is not None:
                file_path = self._file_for(encoded, ".jsonl")
                if os.path.exists(file_path):
                    journal = _parse_journal(file_path)
            self._journals[encoded] = journal
        return journal

    def _rewrite_journal(self, encoded: str, journal: _Journal) -> None:
        if self.path is not None:
            _write_atomic(
                self._file_for(encoded, ".jsonl"),
                _base_line(journal.base)
                + "".join(line + "\n" for line in journal.lines),
            )


def _base_line(base: int) -> str:
    return json.dumps({"base": base}) + "\n"


def _read_text(file_path: str) -> str:
    try:
        with open(file_path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"checkpoint file {file_path} is not UTF-8 text: {exc}"
        ) from exc


def _write_atomic(file_path: str, text: str) -> None:
    """Replace ``file_path`` with ``text``; a crash leaves the old file."""
    tmp_path = file_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp_path, file_path)


def _parse_journal(file_path: str) -> _Journal:
    """Read a journal file; its records stay unparsed JSON lines.

    A last line without its newline is kept: it can only be a record cut
    off mid-append, which :meth:`CheckpointStore.journal` drops as tail.
    """
    lines = _read_text(file_path).split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        return _Journal()
    try:
        base = json.loads(lines[0])["base"]
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise ValueError(
            f"checkpoint file {file_path} has no journal base line: {exc}"
        ) from exc
    if type(base) is not int or base < 0:
        raise ValueError(
            f"checkpoint file {file_path} has journal base {base!r}"
        )
    return _Journal(base, lines[1:])
