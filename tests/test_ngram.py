import random
from collections import Counter

import pytest

from logbench.ngram import START_ID, NGramModel, ngram_score, ngram_train
from logbench.tables import TokenColumn


def test_n_validation():
    with pytest.raises(ValueError):
        NGramModel(1)


def test_bigram_hand_case():
    # train on [5,7,5,7,5]: transitions start->5, 5->7 x2, 7->5 x2
    model = ngram_train([[5, 7, 5, 7, 5]], n=2)
    assert model.probability((START_ID,), 5) == 1.0
    assert model.probability((5,), 7) == 1.0
    assert model.probability((7,), 5) == 1.0
    assert model.probability((5,), 5) == 0.0
    assert model.probability((99,), 5) == 0.0

    probs, score = ngram_score(model, [5, 7, 9], p0=0.05)
    assert probs == [1.0, 1.0, 0.0]
    assert score == pytest.approx(1 / 3)


@pytest.mark.parametrize("n", [2, 3])
def test_token_column_counts_match_lists(n):
    rng = random.Random(5)
    seqs = [[rng.choice([3, 7, -5, 2**40]) for _ in range(rng.randint(0, 9))]
            for _ in range(30)]
    rows = TokenColumn.of(seqs)[[4, 0, 4, 29, 11]]
    assert ngram_train(rows, n=n).counts == \
        ngram_train([seqs[i] for i in (4, 0, 4, 29, 11)], n=n).counts


def test_probability_is_count_ratio():
    model = ngram_train([[1, 2], [1, 3], [1, 2]], n=2)
    assert model.probability((1,), 2) == pytest.approx(2 / 3)
    assert model.probability((1,), 3) == pytest.approx(1 / 3)
    assert model.probability((START_ID,), 1) == 1.0


def test_trigram_contexts():
    model = ngram_train([[4, 5, 6]], n=3)
    assert model.probability((START_ID, START_ID), 4) == 1.0
    assert model.probability((START_ID, 4), 5) == 1.0
    assert model.probability((4, 5), 6) == 1.0
    probs, score = ngram_score(model, [4, 5, 6], p0=0.05)
    assert probs == [1.0, 1.0, 1.0]
    assert score == 0.0


def test_empty_sequence_scores_zero():
    model = ngram_train([[1, 2]], n=2)
    probs, score = ngram_score(model, [])
    assert probs == []
    assert score == 0.0


def test_strictly_below_p0():
    # p == p0 must NOT count as low
    model = ngram_train([[1, 1, 1, 2]], n=2)  # P(1|1)=2/3, P(2|1)=1/3
    probs, score = ngram_score(model, [1, 2], p0=1 / 3)
    assert probs[1] == pytest.approx(1 / 3)
    assert score == 0.0  # start->1 is 1.0, 1->2 is exactly p0
    _, score = ngram_score(model, [1, 2], p0=1 / 3 + 1e-9)
    assert score == pytest.approx(0.5)


def test_incremental_update_equals_batch():
    seqs = [[1, 2, 3], [2, 2], [3, 1, 2, 1]]
    batch = ngram_train(seqs, n=2)
    inc = NGramModel(2)
    for s in seqs:
        inc.update(s)
    assert inc.counts == batch.counts
    assert inc.context_totals == batch.context_totals


def test_counts_against_brute_force():
    rng = random.Random(7)
    for n in (2, 3):
        seqs = [[rng.randint(0, 4) for _ in range(rng.randint(0, 10))]
                for _ in range(20)]
        model = ngram_train(seqs, n=n)

        expected = Counter()
        for s in seqs:
            padded = [START_ID] * (n - 1) + s
            for i in range(len(padded) - (n - 1)):
                ctx = tuple(padded[i:i + n - 1])
                expected[(ctx, padded[i + n - 1])] += 1
        for (ctx, nxt), c in expected.items():
            total = sum(v for (c2, _), v in expected.items() if c2 == ctx)
            assert model.probability(ctx, nxt) == pytest.approx(c / total)
        # totals consistent
        for ctx, bucket in model.counts.items():
            assert model.context_totals[ctx] == sum(bucket.values())


# ids far apart: a window's packed key would overflow int64 unless the keys
# (and, past 2**31 apart, the ids themselves) are ranked down first
_ID_SETS = {
    "small": list(range(5)),
    "keys-ranked": [0, 7, 12345, 2**30 - 1, 2**30],
    "ids-ranked": [-2**62, -5, 0, 3, 2**40, 2**62],
}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("ids", sorted(_ID_SETS))
def test_counts_match_python_windows(n, ids, monkeypatch):
    import numpy as np
    rng = random.Random(11)
    seqs = [[rng.choice(_ID_SETS[ids]) for _ in range(rng.randint(0, 12))]
            for _ in range(40)]
    expected = {}
    for s in seqs:
        padded = [START_ID] * (n - 1) + s
        for i in range(len(s)):
            bucket = expected.setdefault(tuple(padded[i:i + n - 1]), {})
            bucket[padded[i + n - 1]] = bucket.get(padded[i + n - 1], 0) + 1
    ranked = []
    unique = np.unique

    def spy(values, *args, **kwargs):
        ranked.append(kwargs.get("return_inverse", False))
        return unique(values, *args, **kwargs)
    monkeypatch.setattr(np, "unique", spy)
    model = ngram_train(seqs, n=n)
    assert model.counts == expected
    assert model.context_totals == {c: sum(b.values())
                                    for c, b in expected.items()}
    # two ids 2**30 apart still pack into one key; three do not
    assert any(ranked) == (ids == "ids-ranked"
                           or ids == "keys-ranked" and n > 2)
    inc = NGramModel(n)
    for s in seqs:
        inc.update(s)
    assert inc.counts == expected
    assert inc.context_totals == model.context_totals


def test_no_windows():
    for seqs in ([], [[]], [[], []]):
        model = ngram_train(seqs, n=3)
        assert model.counts == {} and model.context_totals == {}


def test_save_load_round_trip(tmp_path):
    model = ngram_train([[1, 2, 3], [1, 2, 4]], n=3)
    p = tmp_path / "ngram.json"
    model.save(p)
    back = NGramModel.load(p)
    assert back.n == model.n
    assert back.counts == model.counts
    assert back.context_totals == model.context_totals

    # deterministic bytes
    p2 = tmp_path / "ngram2.json"
    back.save(p2)
    assert p.read_bytes() == p2.read_bytes()
