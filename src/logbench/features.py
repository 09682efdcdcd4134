"""Bag-of-words features over token or event-id documents.

A document is a list of string terms: the token list of a message, the
concatenated tokens of a sequence, or the event ids of a message or a
sequence as terms ("e0", "e17", ...). ``fit_vocabulary`` fixes the
term-to-column mapping on training documents; ``vectorize`` turns any
documents into a sparse count matrix against that fixed vocabulary,
tracking out-of-vocabulary terms separately instead of dropping them
silently. Every detector reads these matrices, the term-statistics ones
(OOV, rarity) included.

Both count codes, not strings: documents come as a ``TokenColumn`` (lists
are coded into one first), each distinct term is looked up once, and the
counting is numpy on the flat codes of all documents.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np
from scipy import sparse

from .tables import TokenColumn, _first_seen


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
        return sorted(self.index, key=self.index.__getitem__)

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
    docs = TokenColumn.of(documents)
    # at intp once: minimum.at, the gathers and bincount would each cast
    # narrower codes
    codes = docs.flat()[0].astype(np.intp)
    seen = codes[_first_seen(codes)[1]]
    kept = seen[np.bincount(codes, minlength=len(docs.tokens))[seen]
                >= min_count]
    terms = map(docs.tokens.__getitem__, kept.tolist())
    return Vocabulary(dict(zip(terms, range(len(kept)))),
                      min_count=min_count, fitted_on=len(docs))


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

    Each dictionary term maps to its column once (-1 for an oov term); the
    cell counts are the runs of the sorted ``row * V + column`` keys, so
    the matrix is built in canonical form: sorted indices, no duplicates.
    The keys are int32 while there are fewer than 2**31 cells.
    """
    docs = TokenColumn.of(documents)
    n_docs, n_terms = len(docs), len(vocabulary)
    kind = np.int32 if n_docs * n_terms < 2**31 else np.int64
    flat, lengths = docs.flat()
    codes = np.fromiter(map(vocabulary.index.get, docs.tokens, repeat(-1)),
                        dtype=kind, count=len(docs.tokens))[flat]
    del flat
    rows = np.repeat(np.arange(n_docs, dtype=kind), lengths)
    hit = codes >= 0
    oov = np.bincount(rows[~hit], minlength=n_docs)
    rows *= n_terms
    rows += codes
    del codes
    keys = rows[hit]
    del rows, hit
    keys.sort()
    opens = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.diff(opens, append=len(keys))
    # no keys when the vocabulary is empty, so dividing by 0 divides nothing
    key_rows, cols = np.divmod(keys[opens], n_terms)
    del keys, opens
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(np.bincount(key_rows, minlength=n_docs), out=indptr[1:])
    matrix = sparse.csr_matrix(
        (np.ones_like(counts) if binary else counts, cols, indptr),
        shape=(n_docs, n_terms))
    return FeatureMatrix(matrix, oov, vocabulary)
