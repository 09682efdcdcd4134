"""Anomaly detectors and binary evaluation.

Each detector has ``fit(X, y, seed=0)`` (``y`` optional unless supervised),
its own ``score(X)`` and a ``flag(scores)`` rule (:class:`Detector`);
:data:`DETECTORS` maps each ``kind`` to its class. Supervised models
(logistic regression, decision tree) learn from labeled rows; unsupervised
models (k-means distance, isolation forest) flag from a contamination
quantile of their training scores, frozen at fit time. Two term-statistics
detectors (out-of-vocabulary fraction, rarity) read the same feature matrix:
column sums at fit time, one value per vocabulary term plus the row's oov
count at score time. Given documents instead, they count them against the
documents' own vocabulary first. Everything here is implemented with numpy
and scipy.sparse; no external learning library is involved.

The matrix detectors are sparse-native: they take dense or sparse input,
convert it once to a float64 CSR without duplicate entries, and never
densify it, so memory grows with nnz rather than rows x vocabulary. The
decision tree and the isolation forest give the same models and scores,
bit for bit, as a dense implementation would; k-means gives the same
assignments, with floats that may differ in the last bits because sparse
products sum in another order than dense BLAS.

Logistic regression trains on the distinct (feature row, label) pairs of
its training set, each weighted by its count, rather than on every row:
the loss and gradient are the same in real arithmetic, and a repetitive log
holds few distinct rows. A small in-module L-BFGS minimizes that loss.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
from scipy import sparse

from .features import FeatureMatrix, fit_vocabulary, vectorize
from .tables import TokenColumn

def _as_matrix(X):
    if isinstance(X, FeatureMatrix):
        return X.matrix
    return X


def _as_csr(X) -> sparse.csr_array:
    """X as a float64 CSR array with no duplicate entries.

    Never densifies: a sparse input keeps its nnz, a dense one is stored
    by its nonzeros. A caller's non-canonical matrix is copied, not
    rewritten in place.
    """
    M = _as_matrix(X)
    if not sparse.issparse(M):
        M = np.asarray(M, dtype=np.float64)
    M = sparse.csr_array(M, dtype=np.float64)
    if not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
    return M


def _column_at(Xc: sparse.csc_array, j: int, rows: np.ndarray) -> np.ndarray:
    """Dense values of column j of a canonical CSC array at ascending rows."""
    out = np.zeros(len(rows), dtype=np.float64)
    a, b = Xc.indptr[j], Xc.indptr[j + 1]
    if a == b or len(rows) == 0:
        return out
    stored = Xc.indices[a:b]
    pos = np.searchsorted(rows, stored)
    hit = pos < len(rows)
    hit[hit] = rows[pos[hit]] == stored[hit]
    out[pos[hit]] = Xc.data[a:b][hit]
    return out


def _leaves(tree: dict, Xc: sparse.csc_array, goes_left):
    """Yield ``(leaf, rows, depth)`` for each leaf of ``tree`` that rows of
    Xc reach, with those rows in ascending order.

    A node holding ``"feature"`` is a split. ``goes_left(node, x)`` gets the
    column's values ``x`` at the node's rows and returns the left mask.
    """
    stack = [(tree, np.arange(Xc.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        if len(rows) == 0:
            continue
        if "feature" not in node:
            yield node, rows, depth
            continue
        left = goes_left(node, _column_at(Xc, node["feature"], rows))
        stack.append((node["left"], rows[left], depth + 1))
        stack.append((node["right"], rows[~left], depth + 1))


def _as_labels(y) -> np.ndarray:
    return np.asarray(y, dtype=bool)


# ---------------------------------------------------------------------------
# evaluation


class EvalReport:
    """Confusion counts plus derived metrics for one evaluation run."""

    def __init__(self, tp: int, fp: int, fn: int, tn: int,
                 auc_roc: float | None = None,
                 wall_clock_ms: dict | None = None):
        self.tp, self.fp, self.fn, self.tn = tp, fp, fn, tn
        self.auc_roc = auc_roc
        self.wall_clock_ms = dict(wall_clock_ms or {})

    @property
    def accuracy(self) -> float:
        n = self.tp + self.fp + self.fn + self.tn
        return (self.tp + self.tn) / n if n else 0.0

    @property
    def precision(self) -> float:
        d = self.tp + self.fp
        return self.tp / d if d else 0.0

    @property
    def recall(self) -> float:
        d = self.tp + self.fn
        return self.tp / d if d else 0.0

    @property
    def f1_binary(self) -> float:
        """Binary F1 from the confusion counts alone.

        Zero when there are no predicted positives or no actual positives,
        rather than undefined.
        """
        if self.tp + self.fp == 0 or self.tp + self.fn == 0:
            return 0.0
        p, r = self.precision, self.recall
        if p + r == 0.0:
            return 0.0
        return 2.0 * p * r / (p + r)

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1_binary": self.f1_binary,
            "auc_roc": self.auc_roc,
            "wall_clock_ms": self.wall_clock_ms,
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            json.dump(self.to_dict(), f, ensure_ascii=False, indent=2)
            f.write("\n")

    CSV_HEADER = "tp,fp,fn,tn,accuracy,precision,recall,f1_binary,auc_roc"

    def csv_row(self) -> str:
        auc = "" if self.auc_roc is None else repr(self.auc_roc)
        return (f"{self.tp},{self.fp},{self.fn},{self.tn},"
                f"{self.accuracy!r},{self.precision!r},{self.recall!r},"
                f"{self.f1_binary!r},{auc}")

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.CSV_HEADER + "\n")
            f.write(self.csv_row() + "\n")

    def __repr__(self) -> str:
        auc = "none" if self.auc_roc is None else f"{self.auc_roc:.4f}"
        return (f"EvalReport(tp={self.tp} fp={self.fp} fn={self.fn} "
                f"tn={self.tn} acc={self.accuracy:.4f} "
                f"f1={self.f1_binary:.4f} auc={auc})")


def _tie_average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank.

    Runs of equal values are found on the mergesort order; NaN equals
    nothing, so each NaN is a run of its own.
    """
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    n = len(values)
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = sorted_vals[1:] != sorted_vals[:-1]
    starts = np.flatnonzero(new_run)
    ends = np.r_[starts[1:], n] - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auc_roc(scores, truth) -> float | None:
    """Area under the ROC curve via the rank-sum statistic.

    Ties get average ranks, so exchanging tied scores never changes the
    result. Returns None when truth has only one class.
    """
    truth = _as_labels(truth)
    scores = np.asarray(scores, dtype=np.float64)
    n1 = int(truth.sum())
    n0 = len(truth) - n1
    if n1 == 0 or n0 == 0:
        return None
    ranks = _tie_average_ranks(scores)
    return float((ranks[truth].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def evaluate(predictions, truth, scores=None,
             wall_clock_ms: dict | None = None) -> EvalReport:
    """Confusion counts, accuracy and binary F1; AUC when scores are given."""
    pred = _as_labels(predictions)
    truth = _as_labels(truth)
    if len(pred) != len(truth):
        raise ValueError("predictions and truth differ in length")
    if len(pred) == 0:
        raise ValueError("cannot evaluate zero rows")
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    tn = int(np.sum(~pred & ~truth))
    auc = auc_roc(scores, truth) if scores is not None else None
    return EvalReport(tp, fp, fn, tn, auc_roc=auc, wall_clock_ms=wall_clock_ms)


def _flagged_count(contamination: float, n: int) -> int:
    """Rows a contamination rate flags among n: ``ceil(contamination * n)``.

    The product is rounded to 9 decimals first, so a rate that is exact in
    decimal gives the exact count: 0.07 * 100 is 7.000000000000001 in
    floats, and flags 7 rows, not 8.
    """
    return min(n, math.ceil(round(contamination * n, 9)))


def _checked_contamination(value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError("contamination must be in [0, 1]")
    return value


def scores_to_labels(scores, contamination: float = 0.03) -> np.ndarray:
    """Flag the top :func:`_flagged_count` scores as anomalies.

    Ties at the cut are broken by row order (earlier rows win), so the
    result is deterministic.
    """
    _checked_contamination(contamination)
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    out = np.zeros(n, dtype=bool)
    if n == 0 or contamination == 0.0:
        return out
    k = _flagged_count(contamination, n)
    order = np.argsort(-scores, kind="mergesort")
    out[order[:k]] = True
    return out


# ---------------------------------------------------------------------------
# the detector contract


class Detector:
    """A prediction flags a score of at least ``threshold``: 0.5 here, a
    constant never saved; the quantile detectors set theirs at fit time.
    ``fit(X, y, seed)`` needs ``y`` where the class is ``supervised``."""

    supervised = False
    threshold = 0.5

    @classmethod
    def from_settings(cls, contamination=0.03, oov_threshold=0.0):
        """A detector holding the ``[detect]`` settings its kind reads."""
        model = cls()
        if hasattr(model, "contamination"):
            model.contamination = _checked_contamination(contamination)
        return model

    def flag(self, scores) -> np.ndarray:
        return np.asarray(scores) >= self.threshold

    def predict(self, X) -> np.ndarray:
        return self.flag(self.score(X))


# ---------------------------------------------------------------------------
# logistic regression (L-BFGS on distinct rows)


def _distinct_rows(X, y: np.ndarray):
    """Group rows into distinct (feature row, label) pairs.

    Returns ``(U, labels, counts)``: a float64 CSR with one row per group,
    the group's label and its row count. Equal rows are brought next to
    each other by a sort on label, row nnz and two fixed-seed projections,
    and a group starts wherever adjacent rows differ in label or in any
    entry. Two rows that differ are never merged; equal rows may stay in
    separate groups when a projection tie interleaves them.
    """
    M = _as_csr(X)
    if not M.data.all():
        M = M.copy()  # never rewrite a caller's arrays in place
        M.eliminate_zeros()
    rng = np.random.default_rng(0)
    proj = M @ rng.standard_normal((M.shape[1], 2))
    order = np.lexsort((proj[:, 1], proj[:, 0], np.diff(M.indptr), y))
    S, ys = M[order], y[order]
    D = S[1:] - S[:-1]  # stores no zeros: a row of D is empty iff equal
    new_group = np.ones(len(ys), dtype=bool)
    new_group[1:] = (ys[1:] != ys[:-1]) | (np.diff(D.indptr) > 0)
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.r_[starts, len(ys)])
    return S[starts], ys[starts], counts


def _margins(w: np.ndarray, b: float, M) -> np.ndarray:
    return np.asarray(M @ w).ravel() + b


def _weighted_loss(z: np.ndarray, w: np.ndarray, yf: np.ndarray, counts,
                   n: int, l2: float) -> float:
    """Cross-entropy at margins z, each row weighted by its count and the
    sum divided by n, plus (l2 / 2) * ||w||^2."""
    per_row = np.logaddexp(0.0, z) - yf * z
    return float((counts * per_row).sum() / n + 0.5 * l2 * np.dot(w, w))


def _weighted_gradient(z: np.ndarray, w: np.ndarray, M, yf: np.ndarray,
                       counts, n: int, l2: float):
    """Gradient of :func:`_weighted_loss` in (w, b) at margins z."""
    p = np.exp(-np.logaddexp(0.0, -z))  # sigmoid, no overflow at any z
    residual = counts * (p - yf) / n
    gw = np.asarray(M.T @ residual).ravel() + l2 * w
    return gw, float(residual.sum())


def logistic_loss(w: np.ndarray, b: float, X, y: np.ndarray,
                  l2: float) -> float:
    """Mean cross-entropy plus (l2 / 2) * ||w||^2, bias unregularized."""
    M = _as_matrix(X)
    return _weighted_loss(_margins(w, b, M), w, y.astype(np.float64), 1.0,
                          len(y), l2)


def logistic_gradient(w: np.ndarray, b: float, X, y: np.ndarray, l2: float):
    """Exact gradient of :func:`logistic_loss` in (w, b)."""
    M = _as_matrix(X)
    return _weighted_gradient(_margins(w, b, M), w, M, y.astype(np.float64),
                              1.0, len(y), l2)


def _lbfgs(fun_and_grad, x0: np.ndarray, tol: float, max_iter: int):
    """Minimize a smooth function by L-BFGS (Liu & Nocedal, 1989).

    ``fun_and_grad(x)`` returns ``(f, g)``. The direction comes from the
    two-loop recursion over the last 10 (s, y) pairs with y.s > 0, or is
    -g when that does not descend; the step halves from 1 until f falls by
    the Armijo condition. Stops when max |g| <= tol, when no step is
    accepted, or after ``max_iter`` iterations. Returns ``(x, history)``:
    the last iterate and f at each accepted one, x0 first.
    """
    x = x0
    f, g = fun_and_grad(x)
    history, pairs, scale = [f], [], 1.0
    for _ in range(max_iter):
        if np.abs(g).max() <= tol:
            break
        d, alphas = -g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * np.dot(s, d))
            d = d - alphas[-1] * y
        d = d * scale
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d = d + (a - rho * np.dot(y, d)) * s
        slope = np.dot(g, d)
        if slope >= 0:
            d, slope = -g, -np.dot(g, g)
        for step in 0.5 ** np.arange(40):
            x_new = x + step * d
            f_new, g_new = fun_and_grad(x_new)
            if f_new < f and f_new <= f + 1e-4 * step * slope:
                break
        else:
            break
        s, y = x_new - x, g_new - g
        if np.dot(s, y) > 0:
            pairs = (pairs + [(s, y, 1.0 / np.dot(s, y))])[-10:]
            scale = np.dot(s, y) / np.dot(y, y)
        x, f, g = x_new, f_new, g_new
        history.append(f)
    return x, history


class LogisticRegressionDetector(Detector):
    """Binary logistic regression trained by L-BFGS (:func:`_lbfgs`).

    Weights start at zero. Training stops when the largest gradient entry
    is at most ``tol``, when no step along the search direction lowers the
    loss, or after ``max_epochs`` L-BFGS iterations. ``loss_history`` holds
    the loss at every accepted iterate and strictly decreases.

    Fit trains on the distinct (feature row, label) pairs of the training
    set, each weighted by its count: the same loss and gradient as over all
    rows, at the cost of the distinct rows. Repetitive logs make few.
    """

    kind = "lr"
    supervised = True

    def __init__(self, l2: float = 1e-4, tol: float = 1e-6,
                 max_epochs: int = 1000):
        self.l2 = l2
        self.tol = tol
        self.max_epochs = max_epochs
        self.weights: np.ndarray | None = None
        self.bias = 0.0
        self.loss_history: list[float] = []

    def fit(self, X, y, seed: int = 0):
        M = _as_matrix(X)
        y = _as_labels(y)
        if M.shape[0] != len(y):
            raise ValueError("X and y differ in length")
        if y.all() or not y.any():
            raise ValueError("training needs both classes present")
        n = len(y)
        U, labels, counts = _distinct_rows(M, y)
        yf = labels.astype(np.float64)

        def loss_and_gradient(x):
            w, b = x[:-1], x[-1]
            z = _margins(w, b, U)
            gw, gb = _weighted_gradient(z, w, U, yf, counts, n, self.l2)
            return (_weighted_loss(z, w, yf, counts, n, self.l2),
                    np.append(gw, gb))

        x, self.loss_history = _lbfgs(loss_and_gradient,
                                      np.zeros(U.shape[1] + 1), self.tol,
                                      self.max_epochs)
        self.weights, self.bias = x[:-1], float(x[-1])
        return self

    def score(self, X) -> np.ndarray:
        """Anomaly probability per row."""
        M = _as_matrix(X)
        z = np.asarray(M @ self.weights).ravel() + self.bias
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "l2": self.l2,
            "tol": self.tol,
            "max_epochs": self.max_epochs,
            "weights": [float(v) for v in self.weights],
            "bias": float(self.bias),
        }

    @classmethod
    def from_dict(cls, obj) -> "LogisticRegressionDetector":
        # files written before L-BFGS also carry a "learning_rate"
        model = cls(obj["l2"], obj["tol"], obj["max_epochs"])
        model.weights = np.asarray(obj["weights"], dtype=np.float64)
        model.bias = float(obj["bias"])
        return model


# ---------------------------------------------------------------------------
# decision tree (CART with Gini impurity)


def _best_split(X, y: np.ndarray):
    """Best (feature, threshold, gain) under Gini, or None.

    Features are scanned in index order and only a strictly larger gain
    replaces the incumbent, so ties resolve to the lowest feature index and,
    within a feature, to the lowest threshold. An impure node accepts even a
    zero-gain split: the gain of an exclusive-or pattern is zero at the root
    and only the children can realize it.

    X may be dense or sparse; the scan reads only its stored entries, in
    column-major order, so they come sorted by column. A column's sorted
    values are its stored values plus one block of ``n - nnz_j`` implicit
    zeros, placed by value, so each distinct-value cut has the same left
    count and left positives as a sort of the full dense column. Columns
    with a single distinct value are skipped.
    """
    if getattr(X, "format", None) != "csc" or not X.has_canonical_format:
        X = _as_csr(X).tocsc()
    y = _as_labels(y)
    n = len(y)
    pos = int(y.sum())
    p = pos / n
    parent = 2.0 * p * (1.0 - p)
    if parent == 0.0:
        return None
    stored = np.diff(X.indptr)
    cols = np.repeat(np.arange(X.shape[1], dtype=X.indices.dtype), stored)
    y_entry = y[X.indices]
    stored_pos = np.bincount(cols[y_entry], minlength=X.shape[1])
    zero_cols = np.flatnonzero((stored > 0) & (stored < n))
    # one entry per stored value plus one weighted entry per zero block,
    # sorted by (column, value) and merged into distinct-value groups; each
    # array goes through the sort order once and is dropped once grouped
    col = np.concatenate((cols, zero_cols.astype(cols.dtype)))
    del cols
    if len(col) == 0:
        return None
    val = np.concatenate((X.data, np.zeros(len(zero_cols))))
    order = np.lexsort((val, col))
    col, val = col[order], val[order]
    new_group = np.ones(len(col), dtype=bool)
    new_group[1:] = (col[1:] != col[:-1]) | (val[1:] != val[:-1])
    starts = np.flatnonzero(new_group)
    del new_group
    g_col, g_val = col[starts], val[starts]
    del col, val
    g_cnt = np.add.reduceat(np.concatenate(
        (np.ones(len(y_entry), dtype=np.int64), n - stored[zero_cols]))[order],
        starts)
    g_pos = np.add.reduceat(np.concatenate(
        (y_entry.astype(np.int64), pos - stored_pos[zero_cols]))[order],
        starts)
    del order, y_entry
    # running totals restart at each column's first group
    first = np.ones(len(g_col), dtype=bool)
    first[1:] = g_col[1:] != g_col[:-1]
    seg = np.cumsum(first) - 1
    cum_cnt, cum_pos = np.cumsum(g_cnt), np.cumsum(g_pos)
    left_cnt = cum_cnt - (cum_cnt - g_cnt)[first][seg]
    left_pos = cum_pos - (cum_pos - g_pos)[first][seg]
    # a cut follows every group that is not the last of its column
    cut = np.flatnonzero(~first[1:])
    if len(cut) == 0:
        return None
    left_n = left_cnt[cut].astype(np.float64)
    left_pos = left_pos[cut].astype(np.float64)
    right_n = n - left_n
    right_pos = pos - left_pos
    pl = left_pos / left_n
    pr = right_pos / right_n
    weighted = (left_n * 2.0 * pl * (1.0 - pl)
                + right_n * 2.0 * pr * (1.0 - pr)) / n
    gains = parent - weighted
    # per column, the first cut reaching the column's largest gain
    cut_col = g_col[cut]
    col_start = np.flatnonzero(np.r_[True, cut_col[1:] != cut_col[:-1]])
    col_max = np.maximum.reduceat(gains, col_start)
    col_len = np.diff(np.r_[col_start, len(cut)])
    at_max = np.flatnonzero(gains == np.repeat(col_max, col_len))
    at_col = np.repeat(np.arange(len(col_start)), col_len)[at_max]
    col_arg = at_max[np.r_[True, at_col[1:] != at_col[:-1]]]
    # the scan in index order: every gain seen so far stays at most
    # best_gain + 1e-12, so only a column beating all columns before it
    # can replace the incumbent, and the scan visits only those
    before = np.r_[-math.inf, np.maximum.accumulate(col_max)[:-1]]
    best = None
    best_gain = -math.inf
    for c in np.flatnonzero(col_max > before).tolist():
        gain = float(col_max[c])
        if gain > best_gain + 1e-12:
            best_gain = gain
            best = c
    k = cut[col_arg[best]]
    threshold = 0.5 * (g_val[k] + g_val[k + 1])
    return int(g_col[k]), float(threshold), best_gain


class DecisionTreeDetector(Detector):
    """Binary CART: Gini impurity, midpoint thresholds, depth cap 20.

    ``tree`` is the nested dict ``to_dict`` saves: a leaf ``{"prob", "n"}``
    or a split ``{"feature", "threshold", "n", "prob", "left", "right"}``.
    """

    kind = "dt"
    supervised = True

    def __init__(self, max_depth: int = 20):
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        self.max_depth = max_depth
        self.tree: dict | None = None

    def fit(self, X, y, seed: int = 0):
        M = _as_csr(X)
        y = _as_labels(y)
        if M.shape[0] != len(y):
            raise ValueError("X and y differ in length")
        if len(y) == 0:
            raise ValueError("cannot fit on zero rows")
        if y.all() or not y.any():
            warnings.warn("decision tree trained on a single class; "
                          "it will predict a constant", RuntimeWarning,
                          stacklevel=2)
        self.tree = self._grow(M, M.tocsc(), y, np.arange(len(y)), 0)
        return self

    def _grow(self, X: sparse.csr_array, Xc: sparse.csc_array,
              y: np.ndarray, rows: np.ndarray, depth: int) -> dict:
        """Grow the subtree over the ascending row indices ``rows``.

        The root searches Xc itself; any other node copies only its rows
        out of X, and the copy is dropped before the children grow, so
        memory stays within a few times nnz.
        """
        y_node = y[rows]
        prob, n = float(y_node.mean()), len(rows)
        if depth >= self.max_depth or n < 2:
            return {"prob": prob, "n": n}
        split = _best_split(Xc if depth == 0 else X[rows], y_node)
        if split is None:
            return {"prob": prob, "n": n}
        j, threshold, _ = split
        mask = _column_at(Xc, j, rows) <= threshold
        return {"feature": j, "threshold": threshold, "n": n, "prob": prob,
                "left": self._grow(X, Xc, y, rows[mask], depth + 1),
                "right": self._grow(X, Xc, y, rows[~mask], depth + 1)}

    @property
    def depth(self) -> int:
        def walk(node):
            if node is None or "feature" not in node:
                return 0
            return 1 + max(walk(node["left"]), walk(node["right"]))
        return walk(self.tree)

    def score(self, X) -> np.ndarray:
        """Leaf probability per row."""
        Xc = _as_csr(X).tocsc()
        out = np.empty(Xc.shape[0], dtype=np.float64)
        for leaf, rows, _ in _leaves(self.tree, Xc,
                                     lambda node, x: x <= node["threshold"]):
            out[rows] = leaf["prob"]
        return out

    def to_dict(self) -> dict:
        return {"kind": self.kind, "max_depth": self.max_depth,
                "tree": self.tree}

    @classmethod
    def from_dict(cls, obj) -> "DecisionTreeDetector":
        model = cls(int(obj["max_depth"]))
        model.tree = obj["tree"]
        return model


# ---------------------------------------------------------------------------
# k-means distance detector


class KMeansDetector(Detector):
    """Two-cluster k-means; the anomaly score is distance to the nearest
    centroid. The first centroid is a seeded random row, the second the row
    farthest from it, then standard alternation until assignments settle.
    """

    kind = "kmeans"

    def __init__(self, n_clusters: int = 2, max_iter: int = 300,
                 contamination: float = 0.03):
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.contamination = _checked_contamination(contamination)
        self.centroids: np.ndarray | None = None
        self.seed = 0

    @staticmethod
    def _distances(X: sparse.csr_array, centroids: np.ndarray) -> np.ndarray:
        # squared euclidean via the expansion trick, clipped at zero; X stays
        # sparse and X @ C.T is a small dense (rows x clusters) result
        sq = X.multiply(X).sum(axis=1)[:, None] \
            + (centroids * centroids).sum(axis=1)[None, :] \
            - 2.0 * (X @ centroids.T)
        return np.maximum(sq, 0.0)

    def fit(self, X, y=None, seed: int = 0):
        M = _as_csr(X)
        n = M.shape[0]
        if n < 2:
            raise ValueError("k-means needs at least 2 rows")
        self.seed = seed
        rng = np.random.default_rng(seed)
        centroids = M[[int(rng.integers(n))]].toarray()
        while len(centroids) < self.n_clusters:
            d = self._distances(M, centroids).min(axis=1)
            centroids = np.vstack((centroids,
                                   M[[int(np.argmax(d))]].toarray()))

        assign = None
        for _ in range(self.max_iter):
            new_assign = np.argmin(self._distances(M, centroids), axis=1)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for c in range(self.n_clusters):
                members = assign == c
                count = int(members.sum())
                if count:
                    centroids[c] = M[members].sum(axis=0) / count
        self.centroids = centroids
        self.threshold = _quantile_threshold(self.score(M), self.contamination)
        return self

    def score(self, X) -> np.ndarray:
        M = _as_csr(X)
        return np.sqrt(self._distances(M, self.centroids).min(axis=1))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n_clusters": self.n_clusters,
                "contamination": self.contamination, "seed": self.seed,
                "threshold": float(self.threshold),
                "centroids": [[float(v) for v in c] for c in self.centroids]}

    @classmethod
    def from_dict(cls, obj) -> "KMeansDetector":
        model = cls(int(obj["n_clusters"]),
                    contamination=float(obj["contamination"]))
        model.centroids = np.asarray(obj["centroids"], dtype=np.float64)
        model.threshold = float(obj["threshold"])
        model.seed = int(obj["seed"])
        return model


def _quantile_threshold(scores: np.ndarray, contamination: float) -> float:
    """The k-th largest training score, k = :func:`_flagged_count`."""
    n = len(scores)
    k = _flagged_count(contamination, n)
    if k <= 0:
        return float("inf")
    return float(np.sort(scores)[n - k])


# ---------------------------------------------------------------------------
# isolation forest


def _harmonic(k: int) -> float:
    if k < 1:
        return 0.0
    if k <= 64:
        return sum(1.0 / i for i in range(1, k + 1))
    return math.log(k) + 0.5772156649015329 + 1.0 / (2 * k)


def _avg_path_length(n: int) -> float:
    """Average unsuccessful BST search length c(n)."""
    if n <= 1:
        return 0.0
    return 2.0 * _harmonic(n - 1) - 2.0 * (n - 1) / n


class IsolationForestDetector(Detector):
    """Isolation forest: 100 random trees on subsamples of at most 256 rows.

    Scores follow the standard 2^(-E[h(x)] / c(psi)) form, so larger means
    more isolated. Per-tree randomness is derived from the fit seed, one
    child stream per tree, which makes results reproducible and independent
    of tree build order.
    """

    kind = "iforest"

    def __init__(self, n_trees: int = 100, max_samples: int = 256,
                 contamination: float = 0.03):
        self.n_trees = n_trees
        self.max_samples = max_samples
        self.contamination = _checked_contamination(contamination)
        self.trees: list[dict] = []
        self.psi = 0
        self.seed = 0

    def _build(self, S: sparse.csc_array, cols: np.ndarray,
               rows: np.ndarray, depth: int, limit: int,
               rng: np.random.Generator) -> dict:
        """Grow a tree over the ascending subsample rows ``rows``.

        S is the subsample in CSC form, reduced to the columns that store
        an entry in it; ``cols`` holds their feature indices. Any other
        feature is all zero in the subsample and can never be drawn. A
        column's range over the node is that of its stored values there,
        widened to 0 when some node row stores nothing: the range of the
        dense column.
        """
        n = len(rows)
        if depth >= limit or n <= 1:
            return {"size": n}
        in_node = np.zeros(S.shape[0], dtype=bool)
        in_node[rows] = True
        keep = in_node[S.indices]
        first = S.indptr[:-1]
        lo = np.minimum.reduceat(np.where(keep, S.data, np.inf), first)
        hi = np.maximum.reduceat(np.where(keep, S.data, -np.inf), first)
        has_zero = np.add.reduceat(keep, first, dtype=np.int64) < n
        lo[has_zero] = np.minimum(lo[has_zero], 0.0)
        hi[has_zero] = np.maximum(hi[has_zero], 0.0)
        spread = np.flatnonzero(hi > lo)
        if spread.size == 0:
            return {"size": n}
        k = int(spread[rng.integers(spread.size)])
        split = float(rng.uniform(lo[k], hi[k]))
        x = _column_at(S, k, rows)
        mask = x < split
        if not mask.any() or mask.all():
            # degenerate uniform draw at the boundary; isolate the extremes
            mask = x <= lo[k]
        return {"feature": int(cols[k]), "split": split,
                "left": self._build(S, cols, rows[mask], depth + 1, limit,
                                    rng),
                "right": self._build(S, cols, rows[~mask], depth + 1, limit,
                                     rng)}

    def fit(self, X, y=None, seed: int = 0):
        M = _as_csr(X)
        n = M.shape[0]
        if n < 2:
            raise ValueError("isolation forest needs at least 2 rows")
        self.seed = seed
        self.psi = min(self.max_samples, n)
        limit = math.ceil(math.log2(self.psi)) if self.psi > 1 else 1
        self.trees = []
        for child_seed in np.random.SeedSequence(seed).spawn(self.n_trees):
            rng = np.random.default_rng(child_seed)
            sample = M[rng.choice(n, size=self.psi, replace=False)]
            cols = np.unique(sample.indices)
            self.trees.append(self._build(sample[:, cols].tocsc(), cols,
                                          np.arange(self.psi), 0, limit, rng))
        self.threshold = _quantile_threshold(self.score(M), self.contamination)
        return self

    def score(self, X) -> np.ndarray:
        Xc = _as_csr(X).tocsc()
        c = _avg_path_length(self.psi)
        if c <= 0.0:
            c = 1.0
        # summed tree by tree from zero: the order of Python's sum per row;
        # a row's path through a tree ends at the leaf's depth plus c(size)
        total = np.zeros(Xc.shape[0], dtype=np.float64)
        goes_left = lambda node, x: x < node["split"]
        for tree in self.trees:
            for leaf, rows, depth in _leaves(tree, Xc, goes_left):
                total[rows] += depth + _avg_path_length(leaf["size"])
        exponents = -(total / len(self.trees)) / c
        # Python's float pow, not np.exp2/np.power, which can differ from it
        # in the last bit and would move the saved threshold
        return np.asarray([2.0 ** v for v in exponents.tolist()],
                          dtype=np.float64)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n_trees": self.n_trees,
                "max_samples": self.max_samples,
                "contamination": self.contamination, "seed": self.seed,
                "psi": self.psi, "threshold": float(self.threshold),
                "trees": self.trees}

    @classmethod
    def from_dict(cls, obj) -> "IsolationForestDetector":
        model = cls(int(obj["n_trees"]), int(obj["max_samples"]),
                    float(obj["contamination"]))
        model.trees = obj["trees"]
        model.psi = int(obj["psi"])
        model.threshold = float(obj["threshold"])
        model.seed = int(obj["seed"])
        return model


# ---------------------------------------------------------------------------
# term statistics detectors


def _as_features(X) -> FeatureMatrix:
    """X as it is, or documents counted against their own vocabulary."""
    if isinstance(X, FeatureMatrix):
        return X
    docs = TokenColumn.of(X)
    return vectorize(docs, fit_vocabulary(docs))


def _term_counts(X) -> dict[str, int]:
    """The column sum of each vocabulary term the matrix counts at all."""
    X = _as_features(X)
    sums = np.asarray(X.matrix.sum(axis=0)).ravel()
    return {t: c for t, c in zip(X.vocabulary.terms, sums.tolist()) if c}


def _mean_term_value(X, value, oov_value: float) -> np.ndarray:
    """Each row's mean of ``value(term)``, looked up once per vocabulary
    term, with ``oov_value`` for each oov term; 0.0 for an empty row."""
    X = _as_features(X)
    per_term = np.fromiter(map(value, X.vocabulary.terms), np.float64)
    lengths = np.asarray(X.matrix.sum(axis=1)).ravel() + X.oov_counts
    sums = X.matrix @ per_term + X.oov_counts * oov_value
    return np.divide(sums, lengths, out=np.zeros(len(lengths)),
                     where=lengths > 0)


class OOVDetector(Detector):
    """Score = fraction of a document's terms never seen in training;
    flagged when strictly above ``threshold``."""

    kind = "oov"

    def __init__(self, threshold: float = 0.0):
        self.threshold = threshold
        self.vocabulary: set[str] = set()

    @classmethod
    def from_settings(cls, contamination=0.03, oov_threshold=0.0):
        return cls(oov_threshold)

    def fit(self, X, y=None, seed: int = 0):
        self.vocabulary = set(_term_counts(X))
        return self

    def score(self, X) -> np.ndarray:
        return _mean_term_value(X, lambda t: t not in self.vocabulary, 1.0)

    def flag(self, scores) -> np.ndarray:
        return np.asarray(scores) > self.threshold

    def to_dict(self) -> dict:
        return {"kind": self.kind, "threshold": self.threshold,
                "vocabulary": sorted(self.vocabulary)}

    @classmethod
    def from_dict(cls, obj) -> "OOVDetector":
        model = cls(float(obj["threshold"]))
        model.vocabulary = set(obj["vocabulary"])
        return model


class RarityDetector(Detector):
    """Mean negative log frequency of a document's terms.

    Term frequency uses add-one smoothing over the training totals, so an
    unseen term contributes -log(1 / (T + V)) where T is the training term
    count and V the distinct-term count. Higher scores mean rarer content.
    ``flag`` takes the top ``contamination`` share of the scores it gets.
    """

    kind = "rarity"
    contamination = 0.03

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.total = 0
        self.distinct = 0

    def fit(self, X, y=None, seed: int = 0):
        self.counts = _term_counts(X)
        self.total = sum(self.counts.values())
        self.distinct = len(self.counts)
        return self

    def score(self, X) -> np.ndarray:
        counts, denom = self.counts, self.total + self.distinct
        # with nothing counted in training, every term scores 0
        unseen = -math.log(1 / denom) if denom else 0.0
        return _mean_term_value(
            X, lambda t: -math.log((counts[t] + 1) / denom) if t in counts
            else unseen, unseen)

    def flag(self, scores) -> np.ndarray:
        return scores_to_labels(scores, self.contamination)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "total": self.total,
                "distinct": self.distinct,
                "counts": sorted(self.counts.items())}

    @classmethod
    def from_dict(cls, obj) -> "RarityDetector":
        model = cls()
        model.counts = {t: int(c) for t, c in obj["counts"]}
        model.total = int(obj["total"])
        model.distinct = int(obj["distinct"])
        return model


# ---------------------------------------------------------------------------
# training entry points and model persistence


DETECTORS = {cls.kind: cls for cls in (
    LogisticRegressionDetector, DecisionTreeDetector, KMeansDetector,
    IsolationForestDetector, OOVDetector, RarityDetector)}


def _registered(kind: str, supervised: bool) -> type[Detector]:
    if kind not in DETECTORS or DETECTORS[kind].supervised != supervised:
        raise ValueError(f"{kind!r} is not a detector kind with supervised="
                         f"{supervised}")
    return DETECTORS[kind]


def train_supervised(X, y, kind: str = "lr", seed: int = 0):
    """Fit a supervised detector of :data:`DETECTORS`: "lr" or "dt"."""
    return _registered(kind, True)().fit(X, y, seed=seed)


def train_unsupervised(X, kind: str = "kmeans", seed: int = 0,
                       contamination: float = 0.03):
    """Fit an unsupervised detector of :data:`DETECTORS`."""
    return _registered(kind, False).from_settings(contamination) \
        .fit(X, seed=seed)


def save_model(model, path) -> None:
    """Serialize any detector to JSON (kind, parameters, threshold)."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(model.to_dict(), f, ensure_ascii=False,
                  separators=(",", ":"))
        f.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as f:
        obj = json.load(f)
    if obj.get("kind") not in DETECTORS:
        raise ValueError(f"{path}: unknown model kind {obj.get('kind')!r}")
    return DETECTORS[obj["kind"]].from_dict(obj)
