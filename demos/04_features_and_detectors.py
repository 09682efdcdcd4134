"""Turn sequences into bag-of-words vectors and compare six detectors.

Two supervised models (logistic regression, decision tree) learn from
labeled training sequences; two unsupervised ones (k-means distance,
isolation forest) fit the training distribution and flag the far tail; two
term-statistics models (out-of-vocabulary rate, term rarity) score from the
matrix's column sums and out-of-vocabulary counts. All six read the same
matrices, come from one registry, and are scored once each: the same
scores give the predictions (``flag``) and the AUC.
"""

import argparse

from logbench import detectors, features, masking
from logbench.detectors import evaluate
from logbench.enhancers import add_normalized, add_tokens, aggregate_sequences
from logbench.synth import make_sequence_dataset
from logbench.tables import split_train_test


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sequences", type=int, default=400)
    ap.add_argument("--anomaly-rate", type=float, default=0.15)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    events, sequences = make_sequence_dataset(
        n_sequences=args.sequences, anomaly_rate=args.anomaly_rate,
        seed=args.seed)
    events = add_tokens(add_normalized(events, masking.default_rules()))
    seq = aggregate_sequences(events, sequences)
    train, test = split_train_test(seq, 0.5, seed=args.seed)

    train_docs = [list(w) for w in train["words"]]
    test_docs = [list(w) for w in test["words"]]
    vocab = features.fit_vocabulary(train_docs)
    X_train = features.vectorize(train_docs, vocab, binary=True)
    X_test = features.vectorize(test_docs, vocab, binary=True)
    print(f"vocabulary: {len(vocab.index)} terms; "
          f"train {X_train.matrix.shape}, test {X_test.matrix.shape}")
    print(f"{'detector':10s} {'f1':>6s} {'prec':>6s} {'rec':>6s} {'auc':>6s}")

    contamination = args.anomaly_rate
    for kind, cls in detectors.DETECTORS.items():
        y = train["label"] if cls.supervised else None
        model = cls.from_settings(contamination).fit(X_train, y, seed=0)
        scores = model.score(X_test)
        pred = model.flag(scores)
        rep = evaluate(pred, test["label"], scores=scores)
        auc = "n/a" if rep.auc_roc is None else f"{rep.auc_roc:.3f}"
        print(f"{kind:10s} {rep.f1_binary:6.3f} {rep.precision:6.3f} "
              f"{rep.recall:6.3f} {auc:>6s}")


if __name__ == "__main__":
    main()
