"""Bag-of-words features over token or event-id documents.

A document is a list of string terms: the token list of a message, the
concatenated tokens of a sequence, or the rendered event ids of a sequence
("e0 e17 e3 ..."). ``fit_vocabulary`` fixes the term-to-column mapping on
training documents; ``vectorize`` turns any documents into a sparse count
matrix against that fixed vocabulary, tracking out-of-vocabulary terms
separately instead of dropping them silently.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from scipy import sparse


class Vocabulary:
    """Term to column index mapping in first-seen order."""

    def __init__(self, index: dict[str, int], min_count: int = 1,
                 fitted_on: int = 0):
        self.index = dict(index)
        self.min_count = int(min_count)
        self.fitted_on = int(fitted_on)

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, term: str) -> bool:
        return term in self.index

    @property
    def terms(self) -> list[str]:
        out = [None] * len(self.index)
        for term, j in self.index.items():
            out[j] = term
        return out

    def __repr__(self) -> str:
        return (f"Vocabulary({len(self.index)} terms, "
                f"min_count={self.min_count}, fitted_on={self.fitted_on})")


def fit_vocabulary(documents, min_count: int = 1) -> Vocabulary:
    """Build the vocabulary of terms seen at least min_count times.

    Column order is the order in which terms first appear in the corpus, so
    the mapping is deterministic for a fixed input order.
    """
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    totals: Counter = Counter()
    first_seen: list[str] = []
    n_docs = 0
    for doc in documents:
        n_docs += 1
        for term in doc:
            if term not in totals:
                first_seen.append(term)
            totals[term] += 1
    index = {}
    for term in first_seen:
        if totals[term] >= min_count:
            index[term] = len(index)
    return Vocabulary(index, min_count=min_count, fitted_on=n_docs)


class FeatureMatrix:
    """Sparse count matrix plus per-row out-of-vocabulary counts."""

    def __init__(self, matrix: sparse.csr_matrix, oov_counts: np.ndarray,
                 vocabulary: Vocabulary):
        self.matrix = matrix
        self.oov_counts = oov_counts
        self.vocabulary = vocabulary

    @property
    def shape(self):
        return self.matrix.shape

    def __repr__(self) -> str:
        r, c = self.matrix.shape
        return (f"FeatureMatrix({r}x{c}, nnz={self.matrix.nnz}, "
                f"oov={int(self.oov_counts.sum())})")


def vectorize(documents, vocabulary: Vocabulary,
              binary: bool = False) -> FeatureMatrix:
    """Count matrix of documents against a fixed vocabulary.

    Terms outside the vocabulary increment the row's oov counter instead of
    making a column. With ``binary=True`` counts clip to presence flags
    (the oov counter stays a real count).
    """
    index = vocabulary.index
    rows, cols, data = [], [], []
    oov = []
    n_docs = 0
    for i, doc in enumerate(documents):
        n_docs += 1
        counts: Counter = Counter(doc)
        misses = 0
        for term, c in counts.items():
            j = index.get(term)
            if j is None:
                misses += c
            else:
                rows.append(i)
                cols.append(j)
                data.append(1 if binary else c)
        oov.append(misses)
    matrix = sparse.csr_matrix(
        (np.asarray(data, dtype=np.int64),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(n_docs, len(vocabulary)),
    )
    return FeatureMatrix(matrix, np.asarray(oov, dtype=np.int64), vocabulary)


def render_event_ids(id_sequences) -> list[list[str]]:
    """Turn event id sequences into term documents: 7 becomes "e7"."""
    return [[f"e{int(e)}" for e in seq] for seq in id_sequences]
