"""Next-event n-gram model over event id sequences.

Counts how often each event id follows each (n-1)-length context of ids,
then scores sequences by how surprising their transitions are. Sequences are
padded on the left with n-1 start sentinels so the first events are scored
against a real context too.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .tables import TokenColumn

START_ID = -1  # reserved sentinel, never a real event id


class NGramModel:
    """Transition counts for contexts of n-1 event ids."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("n must be at least 2")
        self.n = n
        self.counts: dict[tuple[int, ...], dict[int, int]] = {}
        self.context_totals: dict[tuple[int, ...], int] = {}

    def update(self, sequence) -> None:
        """Count the transitions of one more sequence."""
        self._add([sequence])

    def _add(self, sequences) -> None:
        counts = self.counts
        totals = self.context_totals
        for *context, nxt, count in _window_counts(sequences, self.n):
            context = tuple(context)
            bucket = counts.get(context)
            if bucket is None:
                bucket = counts[context] = {}
            bucket[nxt] = bucket.get(nxt, 0) + count
            totals[context] = totals.get(context, 0) + count

    def probability(self, context: tuple[int, ...], event: int) -> float:
        """P(event | context): count ratio, 0.0 for unseen pairs."""
        bucket = self.counts.get(context)
        if not bucket:
            return 0.0
        return bucket.get(event, 0) / self.context_totals[context]

    def save(self, path) -> None:
        obj = {
            "kind": "ngram",
            "n": self.n,
            "counts": [
                {"context": list(ctx),
                 "next": sorted((int(e), c) for e, c in bucket.items())}
                for ctx, bucket in sorted(self.counts.items())
            ],
        }
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            json.dump(obj, f, ensure_ascii=False, separators=(",", ":"))
            f.write("\n")

    @classmethod
    def load(cls, path) -> "NGramModel":
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
        model = cls(int(obj["n"]))
        for entry in obj["counts"]:
            context = tuple(int(x) for x in entry["context"])
            bucket = {int(e): int(c) for e, c in entry["next"]}
            model.counts[context] = bucket
            model.context_totals[context] = sum(bucket.values())
        return model


def _window_counts(sequences, n: int) -> list[list[int]]:
    """Every distinct window of n ids over the sequences, each padded on
    the left with n-1 ``START_ID``, with its count appended, in sorted
    order. A ``TokenColumn`` of ids (as ``aggregate_sequences`` makes
    ``event_ids``) gives the ids of all sequences by its flat codes; id
    lists are flattened as they are, since coding them first costs more
    than it saves. Each window is packed into one int64 key and the keys
    are counted by one ``np.unique``; ids are ranked down first when their
    range is wide, and the keys whenever one more id could overflow."""
    if isinstance(sequences, TokenColumn):
        codes, lengths = sequences.flat()
        flat = np.array(sequences.tokens, dtype=np.int64)[codes]
    else:
        seqs = list(sequences)
        lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
        flat = np.fromiter(chain.from_iterable(seqs), dtype=np.int64,
                           count=int(lengths.sum()))
    if not len(flat):
        return []
    # the id at flat[k], of sequence i, sits at k + (i + 1) * (n - 1)
    at = np.arange(len(flat)) + np.repeat(
        np.arange(1, len(lengths) + 1) * (n - 1), lengths)
    padded = np.full(len(flat) + len(lengths) * (n - 1), START_ID,
                     dtype=np.int64)
    padded[at] = flat
    # row k is the window that ends at flat[k]
    windows = np.lib.stride_tricks.sliding_window_view(padded, n)[at - n + 1]
    low = min(int(flat.min()), START_ID)
    ids = None
    if int(flat.max()) - low < 1 << 31:
        values = windows - low
    else:
        ids, values = np.unique(windows, return_inverse=True)
        values = values.reshape(windows.shape)
    base = int(values.max()) + 1
    limit = (np.iinfo(np.int64).max - base) // base
    key, ranked = values[:, 0], {}
    for i in range(1, n):
        if key.max() > limit:
            ranked[i], key = np.unique(key, return_inverse=True)
        key = key * base + values[:, i]
    key, count = np.unique(key, return_counts=True)
    # unpack each distinct key into its window, last id first
    out = np.empty((len(key), n + 1), dtype=np.int64)
    out[:, n] = count
    for i in range(n - 1, 0, -1):
        key, out[:, i] = np.divmod(key, base)
        if i in ranked:
            key = ranked[i][key]
    out[:, 0] = key
    out[:, :n] = out[:, :n] + low if ids is None else ids[out[:, :n]]
    return out.tolist()


def ngram_train(sequences, n: int = 2) -> NGramModel:
    """Fit transition counts on an iterable of event id sequences."""
    model = NGramModel(n)
    model._add(sequences)
    return model


def ngram_score(model: NGramModel, sequence, p0: float = 0.05):
    """Score one sequence: (per-event probabilities, anomaly score).

    The anomaly score is the fraction of events whose next-event probability
    falls strictly below ``p0``. An empty sequence scores 0.0.
    """
    seq = [START_ID] * (model.n - 1) + [int(e) for e in sequence]
    span = model.n - 1
    probs = []
    low = 0
    for i in range(len(seq) - span):
        p = model.probability(tuple(seq[i:i + span]), seq[i + span])
        probs.append(p)
        if p < p0:
            low += 1
    score = low / len(probs) if probs else 0.0
    return probs, score
