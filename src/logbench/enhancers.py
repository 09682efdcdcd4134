"""Column enhancers: derived columns on event tables and sequence rollups.

Enhancers take a table and return a new table with one more ``e_`` column.
They are deliberately small; the interesting work happens in the masking,
parser and ngram modules. ``aggregate_sequences`` folds an event table into
one row per sequence and is the bridge from line-level to trace-level
anomaly detection.
"""

from __future__ import annotations

import numpy as np

from . import masking
from .ngram import NGramModel, ngram_score
from .tables import (CodedColumn, EventTable, SequenceTable, Table,
                     TokenColumn)


def add_normalized(events: Table, rules=None,
                   column: str = "m_message") -> Table:
    """Masked copy of the message column as ``e_message_normalized``, a
    ``CodedColumn`` that keeps what coding its tokens takes."""
    return events.with_column("e_message_normalized",
                              masking.normalize(events[column], rules))


def _text_source(events: Table) -> str:
    return "e_message_normalized" if "e_message_normalized" in events \
        else "m_message"


def add_tokens(events: Table) -> Table:
    """Token codes as ``e_words``, from the normalized text when present
    (as ``normalize`` coded them, when it made that very column). The text
    column is kept coded, and the rows of ``e_words`` are its codes."""
    source = _text_source(events)
    text = CodedColumn.of(events[source])
    tokens = text.tokens
    if tokens is None:
        tokens = masking.token_column(text)
    return events.with_column(source, text).with_column("e_words", tokens)


def add_event_ids(events: Table, parser) -> Table:
    """Run a template miner over the table; adds ``e_event_id``.

    When ``e_words`` was coded from the very column the parser reads (its
    rows are that column's codes) and the parser has no masking rules of
    its own, the parser reads that token column instead of coding the
    messages again.

    The parser keeps its state, so calling this again with more data
    continues the same template store.
    """
    text = events[_text_source(events)]
    tokens = events["e_words"] if "e_words" in events else None
    if parser.masking_rules or not isinstance(tokens, TokenColumn) \
            or not isinstance(text, CodedColumn) \
            or tokens.rows is not text.codes:
        tokens = None
    ids = parser.parse(text, tokens)
    return events.with_column("e_event_id",
                              np.asarray(ids, dtype=np.int64))


def aggregate_sequences(events: Table, labels=None) -> SequenceTable:
    """One row per sequence, in first-seen order of ``seq_id``.

    Always emits seq_id, seq_len and duration (latest minus earliest
    timestamp within the sequence, NaT when one of them is NaT). When the
    event table carries ``e_event_id`` or ``e_words``, each sequence's ids
    (``event_ids``) or tokens (``words``) in row order come along, both as
    a ``TokenColumn`` with one entry per sequence. ``labels`` may be a
    SequenceTable (its seq_id/label columns are joined) or a dict of seq_id
    to bool; sequences without a label entry are labeled normal and counted
    in meta. Events with a null seq_id are skipped, also counted.
    """
    if "seq_id" not in events:
        raise ValueError("aggregate_sequences needs a seq_id column")
    # first-seen code of every row's sequence; -1 for a null seq_id
    seq_ids = CodedColumn.of(events["seq_id"]).first_seen()
    order, codes = seq_ids.dictionary, seq_ids.codes
    kept = np.flatnonzero(codes >= 0)
    skipped = len(codes) - len(kept)
    # rows grouped by sequence, each group in row order
    perm = kept[np.argsort(codes[kept], kind="stable")]
    seq_lens = np.bincount(codes[kept], minlength=len(order))
    starts = np.cumsum(seq_lens) - seq_lens
    columns: dict = {
        "seq_id": CodedColumn(order, np.arange(len(order))),
        "seq_len": seq_lens,
    }

    if "m_timestamp" in events:
        ts = events["m_timestamp"][perm]
        # NaT propagates through max, min and the difference
        columns["duration"] = (
            np.maximum.reduceat(ts, starts) - np.minimum.reduceat(ts, starts)
            if len(order) else np.zeros(0, dtype="timedelta64[us]"))

    for source, name in (("e_event_id", "event_ids"), ("e_words", "words")):
        if source in events:
            columns[name] = \
                TokenColumn.of(events[source])[perm].concat(seq_lens)

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
