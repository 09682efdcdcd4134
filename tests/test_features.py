import random
from collections import Counter

import numpy as np
import pytest
from scipy import sparse

from logbench.features import (FeatureMatrix, Vocabulary, fit_vocabulary,
                               vectorize)
from logbench.masking import token_column
from logbench.tables import TokenColumn


def test_vocabulary_first_seen_order():
    docs = [["b", "a"], ["a", "c", "b"]]
    vocab = fit_vocabulary(docs)
    assert vocab.terms == ["b", "a", "c"]
    assert vocab.index == {"b": 0, "a": 1, "c": 2}
    assert vocab.fitted_on == 2
    assert "a" in vocab and "z" not in vocab


def test_min_count_is_corpus_frequency():
    docs = [["a", "a", "b"], ["c", "b"]]
    vocab = fit_vocabulary(docs, min_count=2)
    # a appears twice in one doc: corpus frequency counts occurrences
    assert vocab.terms == ["a", "b"]
    with pytest.raises(ValueError):
        fit_vocabulary(docs, min_count=0)


def test_vectorize_counts_and_oov():
    vocab = fit_vocabulary([["a", "b"]])
    fm = vectorize([["a", "a", "b"], ["a", "z", "z"], []], vocab)
    dense = fm.matrix.toarray()
    assert dense.tolist() == [[2, 1], [1, 0], [0, 0]]
    assert fm.oov_counts.tolist() == [0, 2, 0]
    assert fm.matrix.dtype == np.int64
    assert fm.shape == (3, 2)


def test_vectorize_binary():
    vocab = fit_vocabulary([["a", "b"]])
    fm = vectorize([["a", "a", "b", "z"]], vocab, binary=True)
    assert fm.matrix.toarray().tolist() == [[1, 1]]
    assert fm.oov_counts.tolist() == [1]  # oov stays a real count


def _oracle_fit_vocabulary(documents, min_count=1):
    """Reference: count term by term, columns in first-seen order."""
    totals = Counter()
    first_seen = []
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


def _oracle_vectorize(documents, vocabulary, binary=False):
    """Reference: one Counter per document, COO triplets into csr_matrix."""
    index = vocabulary.index
    rows, cols, data, oov = [], [], [], []
    n_docs = 0
    for i, doc in enumerate(documents):
        n_docs += 1
        misses = 0
        for term, c in Counter(doc).items():
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
        shape=(n_docs, len(vocabulary)))
    return FeatureMatrix(matrix, np.asarray(oov, dtype=np.int64), vocabulary)


def _assert_same_features(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.matrix, name), getattr(want.matrix, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.matrix.has_sorted_indices == want.matrix.has_sorted_indices
    assert got.oov_counts.dtype == want.oov_counts.dtype == np.int64
    assert np.array_equal(got.oov_counts, want.oov_counts)


def _cases(rng):
    terms = ["a", "b", "c", "d", "e", "f"]

    def corpus(pool, n):
        return [[rng.choice(pool) for _ in range(rng.randint(0, 6))]
                for _ in range(n)]

    for _ in range(20):
        yield (corpus(terms, 10), corpus(terms + ["oovword"], 10),
               rng.randint(1, 3), rng.random() < 0.5)
    yield [], [], 1, False  # empty corpus
    yield [], corpus(terms, 4), 1, False  # empty vocabulary
    yield corpus(terms, 5), [[], []], 1, False  # empty documents
    yield corpus(terms, 10), corpus(["x", "y"], 6), 1, False  # all oov
    yield corpus(terms, 10), corpus(terms, 10), 10 ** 6, True  # min_count
    yield corpus(terms, 10), corpus(terms, 10), 2, True  # binary


def test_vectorize_against_brute_force():
    rng = random.Random(3)
    for train, test, min_count, binary in _cases(rng):
        want_vocab = _oracle_fit_vocabulary(train, min_count)
        # documents may come as a generator
        vocab = fit_vocabulary((d for d in train), min_count=min_count)
        assert list(vocab.index.items()) == list(want_vocab.index.items())
        assert vocab.fitted_on == want_vocab.fitted_on == len(train)

        flat = Counter(t for doc in train for t in doc)
        assert set(vocab.terms) == {t for t, c in flat.items()
                                    if c >= min_count}

        for docs in (test, train):
            want = _oracle_vectorize(docs, want_vocab, binary=binary)
            _assert_same_features(
                vectorize(iter(docs), vocab, binary=binary), want)
            fm = vectorize(docs, vocab, binary=binary)
            _assert_same_features(fm, want)
            dense = fm.matrix.toarray()
            for i, doc in enumerate(docs):
                c = Counter(doc)
                for term, cnt in c.items():
                    if term in vocab.index:
                        assert dense[i, vocab.index[term]] == \
                            (1 if binary else cnt)
                assert fm.oov_counts[i] == \
                    sum(cnt for t, cnt in c.items() if t not in vocab.index)
                if not binary:
                    assert dense[i].sum() + fm.oov_counts[i] == len(doc)


def _coded_variants(docs, other):
    """``docs`` as token columns: coded alone; split from text; and taken
    from a column over ``other + docs``, whose dictionary holds unused
    tokens in an order that is not the first-seen order of ``docs``."""
    yield TokenColumn.of(docs)
    yield token_column([" ".join(d) for d in docs])
    both = TokenColumn.of(list(other)[::-1] + docs)
    yield both[np.arange(len(other), len(other) + len(docs))]


def test_coded_documents_featurize_like_lists():
    rng = random.Random(11)
    for train, test, min_count, binary in _cases(rng):
        want_vocab = fit_vocabulary(train, min_count=min_count)
        for coded in _coded_variants(train, test):
            assert len(coded) == len(train)
            vocab = fit_vocabulary(coded, min_count=min_count)
            assert list(vocab.index.items()) == \
                list(want_vocab.index.items())
            assert vocab.fitted_on == len(train)
        for docs in (test, train):
            want = vectorize(docs, want_vocab, binary=binary)
            for coded in _coded_variants(docs, train):
                _assert_same_features(
                    vectorize(coded, want_vocab, binary=binary), want)



def test_keys_past_int32_give_the_matrix_of_their_halves():
    # 65,536 documents against 40,000 terms make more than 2**31 cells, so
    # the row x column keys are int64; each half's keys fit an int32
    rng = np.random.default_rng(5)
    n_docs, n_terms = 2 ** 16, 40_000
    tokens = [f"t{i}" for i in range(n_terms + 100)]  # 100 oov terms
    offsets = np.concatenate(([0], np.cumsum(rng.integers(0, 5, n_docs))))
    codes = rng.integers(0, len(tokens), offsets[-1]).astype(np.int32)
    docs = TokenColumn(tokens, codes, offsets, np.arange(n_docs))
    vocab = Vocabulary({t: i for i, t in enumerate(tokens[:n_terms])})
    whole = vectorize(docs, vocab)
    halves = [vectorize(docs[rows], vocab) for rows in
              np.split(np.arange(n_docs), 2)]
    want = sparse.vstack([h.matrix for h in halves], format="csr")
    assert whole.matrix.has_canonical_format
    assert whole.matrix.shape == want.shape
    assert whole.matrix.data.dtype == halves[0].matrix.data.dtype
    assert (whole.matrix != want).nnz == 0
    assert whole.matrix.nnz == want.nnz
    # cells of rows from 53,688 on have keys past 2**31
    assert whole.matrix[2 ** 31 // n_terms + 1:].nnz > 0
    assert whole.oov_counts.tolist() == np.concatenate(
        [h.oov_counts for h in halves]).tolist()
