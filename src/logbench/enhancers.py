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
from .tables import EventTable, SequenceTable, Table, object_column


def add_normalized(events: Table, rules=None,
                   column: str = "m_message") -> Table:
    """Masked copy of the message column as ``e_message_normalized``."""
    normalized = masking.normalize(events[column], rules)
    return events.with_column("e_message_normalized", normalized)


def _text_source(events: Table) -> str:
    return "e_message_normalized" if "e_message_normalized" in events \
        else "m_message"


def add_tokens(events: Table) -> Table:
    """Token lists as ``e_words``, from the normalized text when present."""
    tokens = masking.tokenize(events[_text_source(events)])
    # the lists are fresh, so the table may hold them without a copy
    return events.with_column("e_words", object_column(tokens))


def add_event_ids(events: Table, parser) -> Table:
    """Run a template miner over the table; adds ``e_event_id``.

    The parser keeps its state, so calling this again with more data
    continues the same template store.
    """
    ids = parser.parse(events[_text_source(events)])
    return events.with_column("e_event_id",
                              np.asarray(ids, dtype=np.int64))


def aggregate_sequences(events: Table, labels=None) -> SequenceTable:
    """One row per sequence, in first-seen order of ``seq_id``.

    Always emits seq_id, seq_len and duration (last minus first timestamp
    within the sequence). When the event table carries ``e_event_id`` or
    ``e_words``, the per-sequence id trace and flattened token list come
    along. ``labels`` may be a SequenceTable (its seq_id/label columns are
    joined) or a dict of seq_id to bool; sequences without a label entry are
    labeled normal and counted in meta. Events with a null seq_id are
    skipped, also counted.
    """
    if "seq_id" not in events:
        raise ValueError("aggregate_sequences needs a seq_id column")
    seq_col = events["seq_id"]
    ts_col = events["m_timestamp"] if "m_timestamp" in events else None
    has_ids = "e_event_id" in events
    has_words = "e_words" in events
    id_col = events["e_event_id"] if has_ids else None
    words_col = events["e_words"] if has_words else None

    order: list = []
    groups: dict = {}
    skipped = 0
    for i in range(len(events)):
        sid = seq_col[i]
        if sid is None:
            skipped += 1
            continue
        g = groups.get(sid)
        if g is None:
            g = {"rows": []}
            groups[sid] = g
            order.append(sid)
        g["rows"].append(i)

    seq_lens = np.asarray([len(groups[s]["rows"]) for s in order],
                          dtype=np.int64)
    columns: dict = {
        "seq_id": order,
        "seq_len": seq_lens,
    }

    if ts_col is not None and len(order):
        ts_int = ts_col.astype(np.int64)
        durations = np.empty(len(order), dtype=np.int64)
        for k, sid in enumerate(order):
            rows = groups[sid]["rows"]
            vals = ts_int[rows]
            durations[k] = int(vals.max() - vals.min())
        columns["duration"] = durations.view(np.dtype("timedelta64[us]"))
    elif ts_col is not None:
        columns["duration"] = np.zeros(0, dtype="timedelta64[us]")

    if has_ids:
        columns["event_ids"] = [
            [int(id_col[i]) for i in groups[s]["rows"]] for s in order]
    if has_words:
        flat = []
        for s in order:
            tokens: list[str] = []
            for i in groups[s]["rows"]:
                tokens.extend(words_col[i])
            flat.append(tokens)
        columns["words"] = flat

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
