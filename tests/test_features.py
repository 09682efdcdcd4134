import random
from collections import Counter

import numpy as np
import pytest

from logbench.features import (FeatureMatrix, fit_vocabulary,
                               render_event_ids, vectorize)


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


def test_vectorize_against_brute_force():
    rng = random.Random(3)
    terms = ["a", "b", "c", "d", "e", "f"]
    for _ in range(20):
        train = [[rng.choice(terms) for _ in range(rng.randint(0, 6))]
                 for _ in range(10)]
        test = [[rng.choice(terms + ["oovword"])
                 for _ in range(rng.randint(0, 6))] for _ in range(10)]
        min_count = rng.randint(1, 3)
        vocab = fit_vocabulary(train, min_count=min_count)

        flat = Counter(t for doc in train for t in doc)
        assert set(vocab.terms) == {t for t, c in flat.items()
                                    if c >= min_count}

        fm = vectorize(test, vocab)
        dense = fm.matrix.toarray()
        for i, doc in enumerate(test):
            c = Counter(doc)
            for term, cnt in c.items():
                if term in vocab.index:
                    assert dense[i, vocab.index[term]] == cnt
            assert fm.oov_counts[i] == \
                sum(cnt for t, cnt in c.items() if t not in vocab.index)
            assert dense[i].sum() + fm.oov_counts[i] == len(doc)


def test_render_event_ids():
    assert render_event_ids([[0, 17, 3], []]) == [["e0", "e17", "e3"], []]
    assert render_event_ids([np.array([1, 2])]) == [["e1", "e2"]]
