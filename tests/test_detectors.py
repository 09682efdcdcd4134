import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from logbench import detectors
from logbench.detectors import (DETECTORS, DecisionTreeDetector, EvalReport,
                                IsolationForestDetector, KMeansDetector,
                                LogisticRegressionDetector, OOVDetector,
                                RarityDetector, _avg_path_length, _best_split,
                                _distinct_rows, _harmonic, _lbfgs,
                                _quantile_threshold, _tie_average_ranks,
                                auc_roc, evaluate,
                                load_model, logistic_gradient, logistic_loss,
                                save_model, scores_to_labels,
                                train_supervised, train_unsupervised)
from logbench.features import fit_vocabulary, vectorize
from logbench.tables import TokenColumn

# ---------------------------------------------------------------------------
# evaluation


def test_eval_report_hand_case():
    r = EvalReport(tp=9, fp=1, fn=1, tn=89)
    assert r.precision == pytest.approx(0.9)
    assert r.recall == pytest.approx(0.9)
    assert r.f1_binary == pytest.approx(0.9)
    assert r.accuracy == pytest.approx(0.98)


def test_eval_report_zero_guards():
    assert EvalReport(0, 0, 5, 5).f1_binary == 0.0
    assert EvalReport(0, 5, 0, 5).f1_binary == 0.0
    assert EvalReport(0, 0, 0, 0).accuracy == 0.0
    assert EvalReport(0, 0, 0, 5).precision == 0.0
    assert EvalReport(0, 0, 0, 5).recall == 0.0


def test_evaluate_confusion():
    pred = [True, True, False, False, True]
    truth = [True, False, False, True, True]
    r = evaluate(pred, truth)
    assert (r.tp, r.fp, r.fn, r.tn) == (2, 1, 1, 1)
    assert r.auc_roc is None
    with pytest.raises(ValueError):
        evaluate([True], [True, False])
    with pytest.raises(ValueError):
        evaluate([], [])


def test_evaluate_with_scores_sets_auc():
    r = evaluate([True, False], [True, False], scores=[0.9, 0.1])
    assert r.auc_roc == 1.0


def test_auc_perfect_reversed_single_class():
    truth = [False, False, True, True]
    assert auc_roc([0.1, 0.2, 0.8, 0.9], truth) == 1.0
    assert auc_roc([0.9, 0.8, 0.2, 0.1], truth) == 0.0
    assert auc_roc([0.5, 0.5, 0.5, 0.5], truth) == 0.5
    assert auc_roc([0.1, 0.9], [True, True]) is None
    assert auc_roc([0.1, 0.9], [False, False]) is None


def _auc_pair_count(scores, truth):
    pos = [s for s, t in zip(scores, truth) if t]
    neg = [s for s, t in zip(scores, truth) if not t]
    acc = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                acc += 1.0
            elif p == q:
                acc += 0.5
    return acc / (len(pos) * len(neg))


def test_auc_matches_pair_counting():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        truth = rng.random(n) < 0.4
        if truth.all() or not truth.any():
            continue
        # coarse grid of score values forces plenty of ties
        scores = rng.integers(0, 5, size=n).astype(float)
        assert auc_roc(scores, truth) == \
            pytest.approx(_auc_pair_count(scores, truth))


def test_auc_tie_order_invariance():
    truth = [True, False, True, False, False]
    scores = [0.5, 0.5, 0.9, 0.5, 0.1]
    base = auc_roc(scores, truth)
    perm = [3, 1, 2, 0, 4]  # swap rows that share the 0.5 score
    assert auc_roc([scores[i] for i in perm],
                   [truth[i] for i in perm]) == pytest.approx(base)


def _loop_tie_average_ranks(values):
    """Reference: the per-element loop the vectorized ranks replaced."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    n = len(values)
    sorted_vals = values[order]
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        avg = 0.5 * (i + j) + 1.0
        ranks[order[i:j + 1]] = avg
        i = j + 1
    return ranks


def _heavy_ties():
    rng = np.random.default_rng(2)
    values = rng.integers(0, 6, size=2000) / 4.0
    values[rng.random(2000) < 0.01] = math.nan
    return values


@pytest.mark.parametrize("values", [
    [0.5, 0.1, 0.5, 0.9, 0.1, 0.5, -0.0, 0.0],
    [2.0] * 7,
    [3.0],
    [],
    [0.2, math.nan, 0.2, math.nan, -1.0, math.inf, math.nan],
    _heavy_ties(),
], ids=["ties", "all-equal", "one-row", "zero-rows", "nan", "heavy-ties"])
def test_tie_average_ranks_match_loop(values):
    values = np.asarray(values, dtype=np.float64)
    got = _tie_average_ranks(values)
    assert got.dtype == np.float64
    assert got.tobytes() == _loop_tie_average_ranks(values).tobytes()


def test_scores_to_labels():
    out = scores_to_labels([1.0, 2.0, 2.0, 0.0], contamination=0.5)
    assert out.tolist() == [False, True, True, False]
    # ceil: 5 rows at 0.21 -> 2 flagged
    out = scores_to_labels([5, 4, 3, 2, 1], contamination=0.21)
    assert out.sum() == 2
    assert scores_to_labels([1, 2, 3], contamination=0.0).sum() == 0
    assert scores_to_labels([], contamination=0.5).tolist() == []
    with pytest.raises(ValueError):
        scores_to_labels([1.0], contamination=1.5)


def test_scores_to_labels_tie_prefers_earlier_rows():
    out = scores_to_labels([1.0, 1.0, 1.0, 1.0], contamination=0.25)
    assert out.tolist() == [True, False, False, False]


def test_contamination_count_is_exact_for_decimal_rates():
    # 0.07 * 100 is 7.000000000000001 in floats; ceil of that flags 8
    assert scores_to_labels(range(100), 0.07).sum() == 7
    assert _quantile_threshold(np.arange(100.0), 0.07) == 93.0
    assert _quantile_threshold(np.arange(100.0), 0.071) == 92.0
    assert _quantile_threshold(np.arange(5.0), 0.0) == math.inf


# ---------------------------------------------------------------------------
# logistic regression


def _blobs(seed=0, n=60, gap=4.0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 1.0, size=(n, 2))
    X1 = rng.normal(gap, 1.0, size=(n, 2))
    X = np.vstack([X0, X1])
    y = np.repeat([False, True], n)
    return X, y


def test_lr_separates_blobs():
    X, y = _blobs()
    model = LogisticRegressionDetector().fit(X, y)
    assert (model.predict(X) == y).mean() >= 0.98
    s = model.score(X)
    assert np.all((s >= 0) & (s <= 1))


def test_lr_loss_history_monotone():
    X, y = _blobs(seed=3)
    model = LogisticRegressionDetector().fit(X, y)
    h = np.asarray(model.loss_history)
    assert len(h) > 1
    assert np.all(np.diff(h) <= 0)
    assert h[0] == pytest.approx(math.log(2.0))  # zero weights


def test_lr_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n, d = int(rng.integers(3, 20)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        y = rng.random(n) < 0.5
        if y.all() or not y.any():
            y[0] = not y[0]
        w = rng.normal(scale=0.5, size=d)
        b = float(rng.normal(scale=0.5))
        l2 = 1e-4
        gw, gb = logistic_gradient(w, b, X, y, l2)
        eps = 1e-6
        for j in range(d):
            e = np.zeros(d)
            e[j] = eps
            num = (logistic_loss(w + e, b, X, y, l2)
                   - logistic_loss(w - e, b, X, y, l2)) / (2 * eps)
            assert gw[j] == pytest.approx(num, rel=1e-5, abs=1e-8)
        num_b = (logistic_loss(w, b + eps, X, y, l2)
                 - logistic_loss(w, b - eps, X, y, l2)) / (2 * eps)
        assert gb == pytest.approx(num_b, rel=1e-5, abs=1e-8)


def test_lr_requires_both_classes():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        LogisticRegressionDetector().fit(X, [True, True, True])
    with pytest.raises(ValueError):
        LogisticRegressionDetector().fit(X, [False, False])


def test_lr_accepts_sparse_features():
    vocab = fit_vocabulary([["a", "b"], ["c"]])
    fm = vectorize([["a", "a"], ["b"], ["c"], ["c", "c"]], vocab)
    y = [False, False, True, True]
    model = LogisticRegressionDetector().fit(fm, y)
    assert (model.predict(fm) == np.asarray(y)).all()


def test_lr_round_trip(tmp_path):
    X, y = _blobs(seed=9, n=20)
    model = LogisticRegressionDetector().fit(X, y)
    p = tmp_path / "lr.json"
    save_model(model, p)
    back = load_model(p)
    assert isinstance(back, LogisticRegressionDetector)
    assert np.allclose(back.score(X), model.score(X))


def test_lr_loads_model_with_learning_rate(tmp_path):
    # model.json as written while lr trained by gradient descent
    p = tmp_path / "lr.json"
    p.write_text(json.dumps({"kind": "lr", "learning_rate": 0.1, "l2": 1e-4,
                             "tol": 1e-6, "max_epochs": 1000,
                             "weights": [2.0, -1.0], "bias": 0.5}))
    model = load_model(p)
    assert (model.l2, model.tol, model.max_epochs) == (1e-4, 1e-6, 1000)
    np.testing.assert_allclose(model.score(np.array([[0.0, 0.5]])),
                               [0.5])
    assert "learning_rate" not in model.to_dict()


def test_lr_separable_unregularized_fit_raises_no_warning():
    # far-apart classes and no l2: trial steps reach margins past 709,
    # where 1 / (1 + exp(-z)) overflows
    X, y = _blobs(seed=1, n=20, gap=8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = LogisticRegressionDetector(l2=0.0).fit(10.0 * X, y)
    assert (model.predict(10.0 * X) == y).all()
    h = np.asarray(model.loss_history)
    assert len(h) > 1 and np.all(np.diff(h) < 0)


def test_lr_fit_does_not_import_scipy_optimize():
    # scipy.optimize costs about 26 MB of peak RSS to import
    code = ("import sys\n"
            "import numpy as np\n"
            "import logbench\n"
            "from logbench.detectors import LogisticRegressionDetector\n"
            "LogisticRegressionDetector().fit(np.eye(4), [0, 0, 1, 1])\n"
            "assert 'scipy.optimize' not in sys.modules\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


# ---------------------------------------------------------------------------
# decision tree


def test_dt_fits_xor():
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    y = np.array([False, True, True, False])
    model = DecisionTreeDetector().fit(X, y)
    assert (model.predict(X) == y).all()
    assert model.depth == 2


def test_dt_tie_prefers_lowest_feature():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([False, True])
    model = DecisionTreeDetector().fit(X, y)
    assert model.tree["feature"] == 0
    assert model.tree["threshold"] == pytest.approx(0.5)


def test_dt_single_class_warns_and_is_constant():
    X = np.array([[0.0], [1.0]])
    with pytest.warns(RuntimeWarning):
        model = DecisionTreeDetector().fit(X, [True, True])
    assert model.score(X).tolist() == [1.0, 1.0]


def test_dt_max_depth_zero():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([False, False, True])
    model = DecisionTreeDetector(max_depth=0).fit(X, y)
    assert model.depth == 0
    assert model.score(X).tolist() == [y.mean()] * 3


def test_dt_leaf_probabilities():
    # one split separates [0,0,1] from [1]; left leaf prob 1/3
    X = np.array([[0.0], [1.0], [2.0], [5.0]])
    y = np.array([False, False, True, True])
    model = DecisionTreeDetector(max_depth=1).fit(X, y)
    s = model.score(np.array([[0.0], [9.0]]))
    assert s[0] < 0.5 < s[1]


def _gini_gain_brute(X, y, j, threshold):
    n = len(y)
    p = y.mean()
    parent = 2.0 * p * (1.0 - p)
    mask = X[:, j] <= threshold
    out = 0.0
    for part in (y[mask], y[~mask]):
        q = part.mean()
        out += len(part) * 2.0 * q * (1.0 - q)
    return parent - out / n


def test_dt_root_split_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(4, 16))
        d = int(rng.integers(1, 4))
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.random(n) < 0.5
        if y.all() or not y.any():
            y[0] = not y[0]

        best = None
        best_gain = -math.inf
        for j in range(d):
            values = np.unique(X[:, j])
            for a, b in zip(values[:-1], values[1:]):
                t = 0.5 * (a + b)
                g = _gini_gain_brute(X, y, j, t)
                if g > best_gain + 1e-12:
                    best_gain = g
                    best = (j, t)

        split = _best_split(X, y)
        if best is None:
            assert split is None
        else:
            assert split is not None
            assert split[0] == best[0]
            assert split[1] == pytest.approx(best[1])
            assert split[2] == pytest.approx(best_gain)


def test_dt_round_trip(tmp_path):
    assert DecisionTreeDetector().depth == 0
    X, y = _blobs(seed=2, n=30)
    model = DecisionTreeDetector().fit(X, y)
    p = tmp_path / "dt.json"
    save_model(model, p)
    back = load_model(p)
    assert np.array_equal(back.score(X), model.score(X))
    assert back.depth == model.depth
    again = tmp_path / "dt2.json"
    save_model(back, again)
    assert again.read_bytes() == p.read_bytes()


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_flags_far_points():
    # fit on two clean modes, then score unseen points
    X, _ = _blobs(seed=4, n=50)
    model = KMeansDetector(contamination=0.05).fit(X, seed=0)
    # centroids sit near the blob centers (0,0) and (4,4)
    centers = model.centroids[np.argsort(model.centroids[:, 0])]
    assert np.allclose(centers[0], [0, 0], atol=0.6)
    assert np.allclose(centers[1], [4, 4], atol=0.6)

    test = np.array([[0.0, 0.0], [4.0, 4.0], [40.0, -30.0], [-25.0, 35.0]])
    scores = model.score(test)
    assert scores[2] > scores[0] and scores[3] > scores[1]
    pred = model.predict(test)
    assert pred.tolist() == [False, False, True, True]


def test_kmeans_threshold_is_kth_largest_train_score():
    X, _ = _blobs(seed=8, n=25)
    model = KMeansDetector(contamination=0.1).fit(X, seed=1)
    scores = np.sort(model.score(X))
    k = math.ceil(0.1 * len(X))
    assert model.threshold == pytest.approx(scores[len(X) - k])


def test_kmeans_deterministic_and_round_trip(tmp_path):
    X, _ = _blobs(seed=6, n=30)
    a = KMeansDetector().fit(X, seed=3)
    b = KMeansDetector().fit(X, seed=3)
    assert np.allclose(a.centroids, b.centroids)
    p = tmp_path / "km.json"
    save_model(a, p)
    back = load_model(p)
    assert np.allclose(back.score(X), a.score(X))
    assert back.threshold == a.threshold


def test_kmeans_needs_rows():
    with pytest.raises(ValueError):
        KMeansDetector().fit(np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# isolation forest


def test_harmonic_and_path_length():
    assert _harmonic(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)
    # the asymptotic branch truncates after 1/(2k); its error is 1/(12k^2)
    for k in (65, 100, 255):
        exact = sum(1.0 / i for i in range(1, k + 1))
        assert abs(_harmonic(k) - exact) < 1.01 / (12 * k * k)
    assert _avg_path_length(1) == 0.0
    assert _avg_path_length(2) == pytest.approx(1.0)
    assert _avg_path_length(256) == pytest.approx(10.244, abs=5e-3)


def test_iforest_flags_far_points():
    rng = np.random.default_rng(13)
    X = rng.normal(0, 1, size=(120, 2))
    X[:3] = [[12, 12], [-11, 13], [14, -12]]
    model = IsolationForestDetector(contamination=3 / 120).fit(X, seed=0)
    scores = model.score(X)
    assert set(np.argsort(-scores)[:3]) == {0, 1, 2}
    assert model.psi == 120
    # scores live in (0, 1]
    assert np.all(scores > 0) and np.all(scores <= 1)


def test_iforest_subsamples_and_determinism():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(300, 3))
    a = IsolationForestDetector(n_trees=20).fit(X, seed=5)
    assert a.psi == 256
    b = IsolationForestDetector(n_trees=20).fit(X, seed=5)
    assert a.trees == b.trees
    c = IsolationForestDetector(n_trees=20).fit(X, seed=6)
    assert a.trees != c.trees


def test_iforest_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    X = rng.normal(size=(40, 2))
    model = IsolationForestDetector(n_trees=10).fit(X, seed=1)
    p = tmp_path / "if.json"
    save_model(model, p)
    back = load_model(p)
    assert np.array_equal(back.score(X), model.score(X))
    again = tmp_path / "if2.json"
    save_model(back, again)
    assert again.read_bytes() == p.read_bytes()


# ---------------------------------------------------------------------------
# token statistics


def test_oov_detector():
    train = [["a", "b"], ["b", "c"]]
    model = OOVDetector().fit(train)
    scores = model.score([["a", "z"], ["a", "b"], [], ["z", "q"]])
    assert scores.tolist() == [0.5, 0.0, 0.0, 1.0]
    pred = model.predict([["a", "z"], ["a", "b"]])
    assert pred.tolist() == [True, False]
    assert model.score([["z"]]).tolist() == [1.0]
    assert model.predict([["z"]]).tolist() == [True]


def test_oov_threshold_is_strict():
    model = OOVDetector(threshold=0.5).fit([["a"]])
    assert model.predict([["a", "z"]]).tolist() == [False]  # exactly 0.5
    assert model.predict([["z", "z", "a"]]).tolist() == [True]


def test_rarity_hand_case():
    # training counts: a x4, b x4, c x1 -> T=9, V=3, denominator 12
    train = [["a"] * 4 + ["b"] * 4 + ["c"]]
    model = RarityDetector().fit(train)
    s = model.score([["z"], ["a"], ["z", "a"]])
    assert s[0] == pytest.approx(-math.log(1 / 12))
    assert s[1] == pytest.approx(-math.log(5 / 12))
    assert s[2] == pytest.approx((s[0] + s[1]) / 2)
    assert model.score([[]]).tolist() == [0.0]


def test_rarity_rare_scores_higher():
    train = [["common"] * 99 + ["rare"]]
    s = RarityDetector().fit(train).score([["common"], ["rare"], ["never"]])
    assert s[0] < s[1] < s[2]


def test_rarity_round_trip(tmp_path):
    model = RarityDetector().fit([["a", "b", "a"]])
    p = tmp_path / "r.json"
    save_model(model, p)
    back = load_model(p)
    assert np.allclose(back.score([["a"], ["z"]]), model.score([["a"], ["z"]]))


def _oov_reference(train, docs):
    seen = {t for doc in train for t in doc}
    return [sum(t not in seen for t in doc) / len(doc) if doc else 0.0
            for doc in docs]


def _rarity_reference(train, docs):
    counts = Counter(t for doc in train for t in doc)
    denom = sum(counts.values()) + len(counts)
    if denom == 0:
        return [0.0] * len(docs)
    return [-sum(math.log((counts[t] + 1) / denom) for t in doc) / len(doc)
            if doc else 0.0 for doc in docs]


def _as_inputs(docs, vocabularies):
    """The same documents as lists, a token column, a generator and
    feature matrices, one over each vocabulary; each with the documents
    as the input shows them: a matrix keeps only the count of the terms
    outside its vocabulary, so they read as one term never seen."""
    yield "lists", [list(d) for d in docs], docs
    yield "column", TokenColumn.of(docs), docs
    yield "generator", (list(d) for d in docs), docs
    for name, vocab in vocabularies.items():
        yield (f"matrix over {name}", vectorize(docs, vocab),
               [[t if t in vocab else "\0unseen" for t in d] for d in docs])


def _assert_scores(got, want, docs, exact):
    assert len(got) == len(want)
    for g, w, doc in zip(got.tolist(), want, docs):
        if exact or len(doc) <= 1:
            assert g == w, (doc, g, w)
        else:
            assert g == pytest.approx(w, rel=1e-12, abs=0.0), (doc, g, w)


def _zipf_documents(n, seed, n_words=30):
    rng = np.random.default_rng(seed)
    return [[f"w{i}" for i in rng.zipf(1.5, rng.integers(0, 12)) % n_words]
            for _ in range(n)]


# (training, test) documents; the random test side ends with every word
# alone in a one-term document
_TERM_CASES = {
    "random": (_zipf_documents(80, 3),
               _zipf_documents(60, 4) + [[f"w{i}"] for i in range(30)]),
    "empty documents": ([[], ["a", "a", "b"], []], [[], ["a"], ["z"], []]),
    "empty vocabulary": ([[], []], [["a"], [], ["b", "b", "a"]]),
}


@pytest.mark.parametrize("case", list(_TERM_CASES))
@pytest.mark.parametrize("cls, reference, exact", [
    (OOVDetector, _oov_reference, True),
    (RarityDetector, _rarity_reference, False),
], ids=["oov", "rarity"])
def test_term_detectors_read_any_featurization(tmp_path, case, cls,
                                               reference, exact):
    train, test = _TERM_CASES[case]
    train_vocab = fit_vocabulary(train)
    other_vocab = fit_vocabulary([["z", "w5", "q"], ["w0", "a"]])
    want_dict = None
    for fit_name, fit_input, _ in _as_inputs(
            train, {"training terms": train_vocab,
                    "training and other terms":
                        fit_vocabulary(train + [["never", "w1"]])}):
        model = cls().fit(fit_input)
        if want_dict is None:
            want_dict = model.to_dict()
        assert model.to_dict() == want_dict, fit_name
        p = tmp_path / "model.json"
        save_model(model, p)
        for fitted in (model, load_model(p)):
            for _, X, seen in _as_inputs(
                    test, {"training terms": train_vocab,
                           "its own terms": fit_vocabulary(test),
                           "other terms": other_vocab}):
                _assert_scores(fitted.score(X), reference(train, seen),
                               seen, exact)


def test_term_detectors_fit_the_counted_terms_of_a_matrix():
    # binary presence and a min_count vocabulary reach the fitted model
    docs = [["a", "a", "b"], ["a", "c"]]
    vocab = fit_vocabulary(docs, min_count=2)
    assert RarityDetector().fit(vectorize(docs, vocab)).counts == {"a": 3}
    presence = vectorize(docs, fit_vocabulary(docs), binary=True)
    model = RarityDetector().fit(presence)
    assert (model.counts, model.total) == ({"a": 2, "b": 1, "c": 1}, 4)
    assert OOVDetector().fit(vectorize(docs, vocab)).vocabulary == {"a"}
    # a row's oov terms count: ["b", "c"] is all oov against {"a"}
    X = vectorize([["a", "b", "c"], ["b", "c"]], vocab)
    assert OOVDetector().fit(vectorize(docs, vocab)).score(X).tolist() == \
        [2 / 3, 1.0]


# ---------------------------------------------------------------------------
# entry points


def test_train_dispatch():
    X, y = _blobs(seed=1, n=15)
    assert train_supervised(X, y, "lr").kind == "lr"
    assert train_supervised(X, y, "dt").kind == "dt"
    assert train_unsupervised(X, "kmeans").kind == "kmeans"
    assert train_unsupervised(X, "iforest").kind == "iforest"
    with pytest.raises(ValueError):
        train_supervised(X, y, "kmeans")
    with pytest.raises(ValueError):
        train_unsupervised(X, "lr")


def test_registry_maps_each_kind_to_its_class():
    assert list(DETECTORS) == ["lr", "dt", "kmeans", "iforest", "oov",
                               "rarity"]
    for kind, cls in DETECTORS.items():
        assert cls.kind == kind
        assert cls.supervised == (kind in ("lr", "dt"))
        # own fit and score methods (a tracer patches them per class), and
        # the one shared predict
        assert "fit" in cls.__dict__ and "score" in cls.__dict__
        assert "predict" not in cls.__dict__


@pytest.mark.parametrize("contamination", [-0.2, -1e-9, 1.0 + 1e-9, 1.5])
def test_contamination_outside_unit_interval_raises(contamination):
    X = np.random.default_rng(0).random((50, 3))
    builds = (lambda: KMeansDetector(contamination=contamination),
              lambda: IsolationForestDetector(contamination=contamination),
              lambda: train_unsupervised(X, "iforest",
                                         contamination=contamination),
              lambda: RarityDetector.from_settings(contamination))
    for build in builds:
        with pytest.raises(ValueError, match="contamination"):
            build()


@pytest.mark.parametrize("contamination, flagged", [(0.0, 0), (1.0, 50)])
def test_contamination_bounds_are_accepted(contamination, flagged):
    docs = [[f"t{int(v * 8)}" for v in row]
            for row in np.random.default_rng(0).random((50, 3))]
    X = vectorize(docs, fit_vocabulary(docs))
    for kind in ("kmeans", "iforest", "rarity"):
        model = train_unsupervised(X, kind, contamination=contamination)
        assert model.contamination == contamination
        assert int(model.predict(X).sum()) == flagged


def test_flag_rules():
    scores = np.array([0.2, 0.5, 0.7])
    X, y = _blobs(seed=1, n=15)
    for model in (train_supervised(X, y, "lr"), train_supervised(X, y, "dt")):
        assert model.flag(scores).tolist() == [False, True, True]
    assert OOVDetector(0.5).flag(scores).tolist() == [False, False, True]
    model = RarityDetector.from_settings(contamination=1 / 3)
    assert model.flag(scores).tolist() == [False, False, True]
    kmeans = train_unsupervised(X, "kmeans")
    kmeans.threshold = 0.5
    assert kmeans.flag(scores).tolist() == [False, True, True]


def test_load_model_unknown_kind(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"kind": "wat"}')
    with pytest.raises(ValueError):
        load_model(p)


# ---------------------------------------------------------------------------
# sparse-native detectors against the dense implementations they replaced


def _dense(X):
    return X.toarray() if sparse.issparse(X) else np.asarray(X, float)


def _dense_best_split(X, y):
    n = len(y)
    pos = int(y.sum())
    p = pos / n
    parent = 2.0 * p * (1.0 - p)
    if parent == 0.0:
        return None
    best = None
    best_gain = -math.inf
    yf = y.astype(np.float64)
    for j in range(X.shape[1]):
        x = X[:, j]
        order = np.argsort(x, kind="mergesort")
        xs = x[order]
        if xs[0] == xs[-1]:
            continue
        ys = yf[order]
        cut = np.flatnonzero(xs[1:] != xs[:-1]) + 1
        left_n = cut.astype(np.float64)
        left_pos = np.cumsum(ys)[cut - 1]
        right_n = n - left_n
        right_pos = pos - left_pos
        pl = left_pos / left_n
        pr = right_pos / right_n
        weighted = (left_n * 2.0 * pl * (1.0 - pl)
                    + right_n * 2.0 * pr * (1.0 - pr)) / n
        gains = parent - weighted
        k = int(np.argmax(gains))
        if gains[k] > best_gain + 1e-12:
            best_gain = float(gains[k])
            threshold = 0.5 * (xs[cut[k] - 1] + xs[cut[k]])
            best = (j, float(threshold), best_gain)
    return best


class _DenseTree(DecisionTreeDetector):
    """Reference: CART on the densified matrix, one Python walk per row."""

    def fit(self, X, y, seed=0):
        self.tree = self._grow_dense(_dense(X), np.asarray(y, bool), 0)
        return self

    def _grow_dense(self, X, y, depth):
        prob, n = float(y.mean()), len(y)
        if depth >= self.max_depth or n < 2:
            return {"prob": prob, "n": n}
        split = _dense_best_split(X, y)
        if split is None:
            return {"prob": prob, "n": n}
        feature, threshold, _ = split
        mask = X[:, feature] <= threshold
        return {"feature": feature, "threshold": threshold, "n": n,
                "prob": prob,
                "left": self._grow_dense(X[mask], y[mask], depth + 1),
                "right": self._grow_dense(X[~mask], y[~mask], depth + 1)}

    def score(self, X):
        out = []
        for row in _dense(X):
            node = self.tree
            while "feature" in node:
                node = node["left"] if row[node["feature"]] <= \
                    node["threshold"] else node["right"]
            out.append(node["prob"])
        return np.asarray(out)


class _DenseForest(IsolationForestDetector):
    """Reference: trees on dense copies, scores summed row by row."""

    def _build_dense(self, X, depth, limit, rng):
        n = len(X)
        if depth >= limit or n <= 1:
            return {"size": n}
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        spread = np.flatnonzero(hi > lo)
        if spread.size == 0:
            return {"size": n}
        feature = int(spread[rng.integers(spread.size)])
        split = float(rng.uniform(lo[feature], hi[feature]))
        mask = X[:, feature] < split
        if not mask.any() or mask.all():
            mask = X[:, feature] <= lo[feature]
        return {"feature": feature, "split": split,
                "left": self._build_dense(X[mask], depth + 1, limit, rng),
                "right": self._build_dense(X[~mask], depth + 1, limit, rng)}

    def fit(self, X, seed=0):
        Xd = _dense(X)
        n = len(Xd)
        self.seed = seed
        self.psi = min(self.max_samples, n)
        limit = math.ceil(math.log2(self.psi)) if self.psi > 1 else 1
        self.trees = []
        for child_seed in np.random.SeedSequence(seed).spawn(self.n_trees):
            rng = np.random.default_rng(child_seed)
            idx = rng.choice(n, size=self.psi, replace=False)
            self.trees.append(self._build_dense(Xd[idx], 0, limit, rng))
        self.threshold = _quantile_threshold(self.score(Xd),
                                             self.contamination)
        return self

    def score(self, X):
        c = _avg_path_length(self.psi)
        out = []
        for row in _dense(X):
            paths = []
            for node in self.trees:
                depth = 0
                while "feature" in node:
                    node = node["left"] if row[node["feature"]] < \
                        node["split"] else node["right"]
                    depth += 1
                paths.append(depth + _avg_path_length(node["size"]))
            out.append(2.0 ** (-(sum(paths) / len(self.trees)) / c))
        return np.asarray(out)


class _DenseKMeans(KMeansDetector):
    """Reference: k-means on the densified matrix."""

    def fit(self, X, seed=0):
        Xd = _dense(X)
        n = len(Xd)
        rng = np.random.default_rng(seed)
        self.seed = seed
        centroids = [Xd[int(rng.integers(n))]]
        while len(centroids) < self.n_clusters:
            d = self._sq(Xd, np.asarray(centroids)).min(axis=1)
            centroids.append(Xd[int(np.argmax(d))])
        centroids = np.asarray(centroids, dtype=np.float64)
        assign = None
        for _ in range(self.max_iter):
            new_assign = np.argmin(self._sq(Xd, centroids), axis=1)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for c in range(self.n_clusters):
                if (assign == c).any():
                    centroids[c] = Xd[assign == c].mean(axis=0)
        self.centroids = centroids
        self.assign = assign
        self.threshold = _quantile_threshold(self.score(Xd),
                                             self.contamination)
        return self

    @staticmethod
    def _sq(X, C):
        return np.maximum((X * X).sum(1)[:, None] + (C * C).sum(1)[None, :]
                          - 2.0 * (X @ C.T), 0.0)

    def score(self, X):
        return np.sqrt(self._sq(_dense(X), self.centroids).min(axis=1))


def _parity_matrix(seed, fmt, n=300, d=14):
    """Seeded matrix with negatives, repeated values, an all-zero column, a
    constant nonzero column and one far row, as dense, CSR, CSC, or CSR that
    also stores explicit zeros and duplicate entries."""
    rng = np.random.default_rng(seed)
    values = np.array([-2.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 3.5])
    X = rng.choice(values, size=(n, d))
    X[5] = 40.0
    X[:, 2] = 0.0
    X[:, d - 1] = 1.5
    y = (X[:, 0] + X[:, 4] > 0.5) ^ (rng.random(n) < 0.1)
    if fmt == "dense":
        return X, y
    if fmt == "csr":
        return sparse.csr_matrix(X), y
    if fmt == "csc":
        return sparse.csc_matrix(X), y
    return _noncanonical_csr(X), y


def _noncanonical_csr(X):
    """CSR of dense X built from raw triplets: every value split in halves
    (exact in binary) plus a stored zero at every fourth zero position."""
    n, d = X.shape
    r, c = np.nonzero(X)
    zr, zc = np.nonzero(X == 0.0)
    zr, zc = zr[::4], zc[::4]
    rows = np.concatenate((r, r, zr))
    cols = np.concatenate((c, c, zc))
    data = np.concatenate((X[r, c] / 2, X[r, c] / 2, np.zeros(len(zr))))
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    M = sparse.csr_matrix((data[order], cols[order], indptr), shape=(n, d))
    assert not M.has_canonical_format
    return M


PARITY_FORMATS = ["dense", "csr", "csc", "csr-stored-zeros-and-duplicates"]


@pytest.mark.parametrize("fmt", PARITY_FORMATS)
def test_dt_matches_dense_reference(fmt):
    for seed in range(4):
        X, y = _parity_matrix(seed, fmt)
        Xte, _ = _parity_matrix(seed + 100, fmt)
        before = X.copy()
        for depth in (3, 20):
            new = DecisionTreeDetector(depth).fit(X, y)
            ref = _DenseTree(depth).fit(X, y)
            assert json.dumps(new.to_dict()) == json.dumps(ref.to_dict())
            assert np.array_equal(new.score(Xte), ref.score(Xte))
            assert np.array_equal(new.score(X), ref.score(X))
        # the caller's matrix is read, never canonicalized in place
        assert np.array_equal(_dense(X), _dense(before))
        if sparse.issparse(X):
            assert X.nnz == before.nnz


@pytest.mark.parametrize("fmt", PARITY_FORMATS)
def test_best_split_matches_dense_reference(fmt):
    for seed in range(10):
        X, y = _parity_matrix(seed, fmt, n=40, d=6)
        assert _best_split(X, y) == _dense_best_split(_dense(X), y)


@pytest.mark.parametrize("fmt", PARITY_FORMATS)
def test_iforest_matches_dense_reference(fmt):
    for seed, n in ((0, 300), (1, 90)):  # psi 256 subsamples; psi n doesn't
        X, _ = _parity_matrix(seed, fmt, n=n)
        Xte, _ = _parity_matrix(seed + 100, fmt, n=50)
        new = IsolationForestDetector(n_trees=20).fit(X, seed=seed)
        ref = _DenseForest(n_trees=20).fit(X, seed=seed)
        assert json.dumps(new.to_dict()) == json.dumps(ref.to_dict())
        assert np.array_equal(new.score(Xte), ref.score(Xte))


@pytest.mark.parametrize("fmt", PARITY_FORMATS)
def test_kmeans_matches_dense_reference(fmt):
    # dense BLAS and sparse products sum in different orders, so the
    # floats may differ in the last bits; assignments may not
    for seed in range(4):
        X, _ = _parity_matrix(seed, fmt)
        Xte, _ = _parity_matrix(seed + 100, fmt, n=50)
        new = KMeansDetector(contamination=0.05).fit(X, seed=seed)
        ref = _DenseKMeans(contamination=0.05).fit(X, seed=seed)
        assign = np.argmin(ref._sq(_dense(X), new.centroids), axis=1)
        assert np.array_equal(assign, ref.assign)
        np.testing.assert_allclose(new.centroids, ref.centroids,
                                   rtol=1e-9, atol=1e-12)
        assert new.threshold == pytest.approx(ref.threshold, rel=1e-9)
        np.testing.assert_allclose(new.score(Xte), ref.score(Xte),
                                   rtol=1e-9)


def test_sparse_detectors_memory_is_bounded_by_nnz():
    # 2000 x 25000 at 0.1% density stores 50k values; its dense float64
    # form alone is 400 MB, so any densifying path fails the bound
    rng = np.random.default_rng(0)
    X = sparse.random(2000, 25000, density=0.001, format="csr",
                      random_state=rng,
                      data_rvs=lambda k: rng.integers(1, 4, size=k) * 1.0)
    y = rng.random(2000) < 0.1
    fits = {"dt": lambda: DecisionTreeDetector().fit(X, y),
            "kmeans": lambda: KMeansDetector().fit(X, seed=0),
            "iforest": lambda: IsolationForestDetector().fit(X, seed=0)}
    for kind, fit in fits.items():
        tracemalloc.start()
        try:
            fit().score(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20, (kind, peak)


# ---------------------------------------------------------------------------
# logistic regression on distinct rows against the per-row fit it replaced


def _per_row_loss(w, b, M, y, l2):
    z = np.asarray(M @ w).ravel() + b
    per_row = np.logaddexp(0.0, z) - y.astype(np.float64) * z
    return float(per_row.mean() + 0.5 * l2 * np.dot(w, w))


def _per_row_gradient(w, b, M, y, l2):
    z = np.asarray(M @ w).ravel() + b
    p = np.exp(-np.logaddexp(0.0, -z))
    residual = (p - y.astype(np.float64)) / len(y)
    return np.asarray(M.T @ residual).ravel() + l2 * w, float(residual.sum())


class _PerRowLogistic(LogisticRegressionDetector):
    """Reference: the same L-BFGS over every training row."""

    def fit(self, X, y, seed=0):
        M = X.matrix if hasattr(X, "matrix") else X
        y = np.asarray(y, dtype=bool)

        def loss_and_gradient(x):
            w, b = x[:-1], x[-1]
            gw, gb = _per_row_gradient(w, b, M, y, self.l2)
            return _per_row_loss(w, b, M, y, self.l2), np.append(gw, gb)

        x, self.loss_history = _lbfgs(loss_and_gradient,
                                      np.zeros(M.shape[1] + 1), self.tol,
                                      self.max_epochs)
        self.weights, self.bias = x[:-1], float(x[-1])
        return self


def _one_hot_events(n=3000, events=11, seed=0):
    """int64 CSR with one event id per row, as ``vectorize`` builds it."""
    idx = np.random.default_rng(seed).integers(0, events, size=n)
    X = sparse.csr_matrix((np.ones(n, dtype=np.int64), (np.arange(n), idx)),
                          shape=(n, events))
    return X, idx


def _lr_parity_input(name):
    rng = np.random.default_rng(17)
    if name == "dense-blobs":
        return _blobs(seed=4)
    if name == "one-hot-int64-csr":
        X, idx = _one_hot_events()
        return X, idx == 10
    if name == "equal-rows-different-labels":
        X, idx = _one_hot_events(seed=1)
        return X, (idx == 10) ^ (rng.random(len(idx)) < 0.2)
    if name == "one-row-both-labels":
        # every row equal: the two labels meet between equal rows
        return np.ones((400, 3)), rng.random(400) < 0.3
    if name == "one-column-counts":
        # adjacent distinct rows differ in a single entry
        X = rng.integers(1, 4, size=(600, 1)).astype(np.float64)
        return X, (X[:, 0] == 3) ^ (rng.random(600) < 0.1)
    if name == "canonical-csr-stored-zeros":
        # float64 CSR in canonical form that stores a zero next to each
        # event: it shares its arrays with the detector's CSR view
        _, idx = _one_hot_events(n=2000, seed=2)
        cols = np.sort(np.c_[idx, (idx + 1) % 11], axis=1)
        data = np.where(cols == idx[:, None], 1.0, 0.0)
        X = sparse.csr_matrix((data.ravel(), cols.ravel(),
                               np.arange(0, 2 * len(idx) + 1, 2)),
                              shape=(len(idx), 11))
        assert X.has_canonical_format
        return X, idx == 10
    # a dozen distinct rows repeated 2000 times, stored with duplicate
    # entries and explicit zeros
    base, base_y = _parity_matrix(3, "dense", n=12)
    pick = rng.integers(0, 12, size=2000)
    return _noncanonical_csr(base[pick]), base_y[pick]


LR_PARITY_INPUTS = ["dense-blobs", "one-hot-int64-csr",
                    "equal-rows-different-labels", "one-row-both-labels",
                    "one-column-counts", "noncanonical-csr",
                    "canonical-csr-stored-zeros"]


# Separable, with a far row of 40s: near its optimum the loss (about
# 0.0015) moves by less than one ulp over weight changes of 1e-7, so two
# L-BFGS runs whose sums round differently end 2e-7 to 1e-6 apart at any
# tol (9.3e-7 in the weights, 6.4e-7 in the bias at tol 1e-6). Its full
# fits are held to the final loss at 1e-12 and to weights and bias at
# 2e-6; its objective is pinned at every point the fit evaluates.
LR_ILL_DETERMINED = {"noncanonical-csr"}


@pytest.mark.parametrize("name", LR_PARITY_INPUTS)
def test_lr_matches_per_row_reference(name, monkeypatch):
    X, y = _lr_parity_input(name)
    before = X.copy()
    seen = []

    def recording_lbfgs(fun_and_grad, x0, tol, max_iter):
        def record(x):
            f, g = fun_and_grad(x)
            seen.append((x.copy(), f, g))
            return f, g
        return _lbfgs(record, x0, tol, max_iter)

    monkeypatch.setattr(detectors, "_lbfgs", recording_lbfgs)
    new = LogisticRegressionDetector().fit(X, y)
    # at every point the distinct-row fit evaluates, its loss and gradient
    # are the per-row ones
    assert len(seen) >= len(new.loss_history) > 1
    for x, f, g in seen:
        w, b = x[:-1], x[-1]
        assert abs(f - _per_row_loss(w, b, X, y, new.l2)) <= 1e-12
        gw, gb = _per_row_gradient(w, b, X, y, new.l2)
        np.testing.assert_allclose(g, np.append(gw, gb), rtol=0, atol=1e-12)
    ref = _PerRowLogistic().fit(X, y)
    assert np.array_equal(new.predict(X), ref.predict(X))
    # both fits stop at a stationary point, not at the cap or a failed
    # line search
    for model in (new, ref):
        gw, gb = logistic_gradient(model.weights, model.bias, X, y, model.l2)
        assert max(np.abs(gw).max(), abs(gb)) <= model.tol
        assert len(model.loss_history) - 1 < model.max_epochs
    if name in LR_ILL_DETERMINED:
        assert abs(new.loss_history[-1] - ref.loss_history[-1]) <= 1e-12
        np.testing.assert_allclose(new.weights, ref.weights, rtol=0,
                                   atol=2e-6)
        assert abs(new.bias - ref.bias) <= 2e-6
    else:
        assert len(new.loss_history) == len(ref.loss_history)
        np.testing.assert_allclose(new.loss_history, ref.loss_history,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(new.weights, ref.weights, rtol=0,
                                   atol=1e-12)
        assert abs(new.bias - ref.bias) <= 1e-12
    # the caller's matrix is read, never canonicalized in place
    if sparse.issparse(X):
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(X, attr), getattr(before, attr))
    else:
        assert np.array_equal(X, before)


@pytest.mark.parametrize("name", LR_PARITY_INPUTS)
def test_distinct_rows_group_exactly(name):
    X, y = _lr_parity_input(name)
    U, labels, counts = _distinct_rows(X, y)
    n = len(y)
    assert counts.sum() == n and (counts >= 1).all()
    assert U.shape == (len(counts), X.shape[1])
    # the groups, each expanded by its count, are the training rows: no
    # group holds two different rows or two labels
    rows = Counter(zip(map(tuple, _dense(X).tolist()), y.tolist()))
    groups = Counter()
    for row, label, count in zip(map(tuple, U.toarray().tolist()),
                                 labels.tolist(), counts.tolist()):
        groups[row, label] += count
    assert groups == rows
    # distinct projections keep every distinct pair in one group
    assert len(counts) == len(rows)
    assert U.has_canonical_format and U.data.all()
