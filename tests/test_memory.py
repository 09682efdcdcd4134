"""Peak memory of the kernels whose work scales with the stored tokens.

Each bound is in bytes per stored token (for ``_best_split``, per stored
matrix entry) above the inputs, traced by tracemalloc on a seeded corpus
of about 1M tokens. The bounds sit between these kernels' peaks (about
8.5, 18 and 34 bytes) and those of the same algorithms holding int64
indices and keeping their temporaries to the end (about 17, 43 and 83
bytes), so a kernel that does both fails. ``fit_vocabulary``'s bound
sits between its peak with one dense first-place table (about 12 bytes)
and with a sort of every token's value and place packed into an int64
(about 19 bytes).
"""

import tracemalloc

import numpy as np
import pytest

from logbench.detectors import _best_split
from logbench.features import Vocabulary, fit_vocabulary, vectorize
from logbench.tables import TokenColumn


@pytest.fixture(scope="module")
def corpus():
    """100k documents of 5 to 15 tokens over 20k terms, the vocabulary
    holding half of them, so about half the tokens are out of it."""
    rng = np.random.default_rng(0)
    n_docs, n_terms = 100_000, 20_000
    offsets = np.concatenate(([0], np.cumsum(rng.integers(5, 16, n_docs))))
    codes = rng.integers(0, n_terms, offsets[-1]).astype(np.int32)
    tokens = [f"t{i}" for i in range(n_terms)]
    docs = TokenColumn(tokens, codes, offsets,
                       rng.permutation(n_docs).astype(np.int32))
    vocab = Vocabulary({t: i for i, t in enumerate(tokens[:n_terms // 2])})
    X = vectorize(docs, vocab).matrix.tocsc()
    return docs, vocab, X, rng.random(n_docs) < 0.3


def _peak(run) -> int:
    """Bytes the call of ``run`` held at its peak, its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel, bound", [("flat", 12), ("vectorize", 28),
                                           ("best_split", 56),
                                           ("fit_vocabulary", 16)])
def test_kernel_peak_per_stored_token(corpus, kernel, bound):
    docs, vocab, X, y = corpus
    run, stored = {
        "flat": (docs.flat, len(docs.codes)),
        "vectorize": (lambda: vectorize(docs, vocab), len(docs.codes)),
        "best_split": (lambda: _best_split(X, y), X.nnz),
        "fit_vocabulary": (lambda: fit_vocabulary(docs), len(docs.codes)),
    }[kernel]
    assert _peak(run) < bound * stored
