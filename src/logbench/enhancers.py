"""Column enhancers: derived columns on event tables and sequence rollups.

Enhancers take a table and return a new table with one more ``e_`` column.
They are deliberately small; the interesting work happens in the masking,
parser and ngram modules. ``aggregate_sequences`` folds an event table into
one row per sequence and is the bridge from line-level to trace-level
anomaly detection.
"""

from __future__ import annotations

import weakref
from itertools import chain

import numpy as np

from . import masking
from .ngram import NGramModel, ngram_score
from .tables import (EventTable, SequenceTable, Table, _first_seen_codes,
                     object_column)


def add_normalized(events: Table, rules=None,
                   column: str = "m_message") -> Table:
    """Masked copy of the message column as ``e_message_normalized``."""
    normalized = masking.normalize(events[column], rules)
    return events.with_column("e_message_normalized", normalized)


# meta key recording which text column ``e_words`` was split from
_WORDS_OF = "e_words_of"


def _text_source(events: Table) -> str:
    return "e_message_normalized" if "e_message_normalized" in events \
        else "m_message"


def add_tokens(events: Table) -> Table:
    """Token lists as ``e_words``, from the normalized text when present."""
    source = _text_source(events)
    tokens = masking.tokenize(events[source])
    # the lists belong to this column only (rows with equal messages share
    # one, and cells are read-only), so the table may hold them without a copy
    out = events.with_column("e_words", object_column(tokens))
    # the text column the lists were split from, and the lists' column, by
    # identity: a table that replaces either no longer matches
    out.meta[_WORDS_OF] = (weakref.ref(out[source]),
                           weakref.ref(out["e_words"]))
    return out


def _words_of(events: Table, source: str):
    """``e_words`` when it was split from ``events[source]``, else None."""
    refs = events.meta.get(_WORDS_OF)
    if refs is None or refs[0]() is not events[source] \
            or "e_words" not in events or refs[1]() is not events["e_words"]:
        return None
    return events["e_words"]


def add_event_ids(events: Table, parser) -> Table:
    """Run a template miner over the table; adds ``e_event_id``.

    When ``e_words`` was split from the very column the parser reads and
    the parser has no masking rules of its own, the parser mines those
    token lists instead of splitting the messages again.

    The parser keeps its state, so calling this again with more data
    continues the same template store.
    """
    source = _text_source(events)
    tokens = None if parser.masking_rules else _words_of(events, source)
    ids = parser.parse(events[source], tokens)
    return events.with_column("e_event_id",
                              np.asarray(ids, dtype=np.int64))


def aggregate_sequences(events: Table, labels=None) -> SequenceTable:
    """One row per sequence, in first-seen order of ``seq_id``.

    Always emits seq_id, seq_len and duration (latest minus earliest
    timestamp within the sequence, NaT when one of them is NaT). When the
    event table carries ``e_event_id`` or ``e_words``, the per-sequence id
    trace and flattened token list come along. ``labels`` may be a
    SequenceTable (its seq_id/label columns are joined) or a dict of seq_id
    to bool; sequences without a label entry are labeled normal and counted
    in meta. Events with a null seq_id are skipped, also counted.
    """
    if "seq_id" not in events:
        raise ValueError("aggregate_sequences needs a seq_id column")
    # first-seen code of every row's sequence; -1 for a null seq_id
    order, codes = _first_seen_codes(events["seq_id"].tolist())
    kept = np.flatnonzero(codes >= 0)
    skipped = len(codes) - len(kept)
    # rows grouped by sequence, each group in row order
    perm = kept[np.argsort(codes[kept], kind="stable")]
    seq_lens = np.bincount(codes[kept], minlength=len(order))
    ends = np.cumsum(seq_lens)
    starts = ends - seq_lens
    columns: dict = {
        "seq_id": order,
        "seq_len": seq_lens,
    }

    if "m_timestamp" in events:
        ts = events["m_timestamp"][perm]
        # NaT propagates through max, min and the difference
        columns["duration"] = (
            np.maximum.reduceat(ts, starts) - np.minimum.reduceat(ts, starts)
            if len(order) else np.zeros(0, dtype="timedelta64[us]"))

    bounds = list(zip(starts.tolist(), ends.tolist()))
    if "e_event_id" in events:
        ids = events["e_event_id"][perm].tolist()
        columns["event_ids"] = object_column([ids[a:b] for a, b in bounds])
    if "e_words" in events:
        words = events["e_words"][perm].tolist()
        columns["words"] = object_column(
            [list(chain.from_iterable(words[a:b])) for a, b in bounds])

    meta = {"events_without_seq_id": skipped}
    if labels is not None:
        if isinstance(labels, Table):
            mapping = {s: bool(l) for s, l in
                       zip(labels["seq_id"], labels["label"])}
        else:
            mapping = dict(labels)
        unlabeled = sum(1 for s in order if s not in mapping)
        meta["sequences_unlabeled"] = unlabeled
        columns["label"] = np.asarray(
            [mapping.get(s, False) for s in order], dtype=bool)

    return SequenceTable(columns, meta=meta)


def add_ngram_scores(sequences: SequenceTable, model: NGramModel,
                     p0: float = 0.05) -> SequenceTable:
    """Anomaly score of each sequence's event id trace as ``e_ngram_score``."""
    if "event_ids" not in sequences:
        raise ValueError("sequence table has no event_ids column")
    scores = [ngram_score(model, seq, p0=p0)[1]
              for seq in sequences["event_ids"]]
    return sequences.with_column("e_ngram_score",
                                 np.asarray(scores, dtype=np.float64))
