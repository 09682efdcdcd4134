import random
from collections import Counter

import numpy as np
import pytest

from logbench.loaders import load_hdfs, load_supercomputer, read_hdfs_labels
from logbench.masking import default_rules, normalize
from logbench.parsers import DrainParser
from logbench.synth import (generate_synthetic, make_sequence_dataset,
                            make_template_corpus, _build_templates)


def test_corpus_shape_and_determinism():
    corpus = make_template_corpus(n_templates=5, n_lines=40, seed=3)
    assert len(corpus["messages"]) == 40
    assert len(corpus["template_ids"]) == 40
    assert len(corpus["templates"]) == 5
    assert set(corpus["template_ids"]) == set(range(5))
    again = make_template_corpus(n_templates=5, n_lines=40, seed=3)
    assert again["messages"] == corpus["messages"]
    different = make_template_corpus(n_templates=5, n_lines=40, seed=4)
    assert different["messages"] != corpus["messages"]


def test_corpus_validation():
    with pytest.raises(ValueError):
        make_template_corpus(n_templates=11, n_lines=10, seed=0)
    with pytest.raises(ValueError):
        make_template_corpus(n_templates=0, n_lines=10, seed=0)
    with pytest.raises(ValueError):
        make_template_corpus(n_templates=3, n_lines=0, seed=0)


def test_template_structure_guarantees():
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        templates, pools = _build_templates(random.Random(seed * 7 + 1), n)
        lengths = [len(t) for t in templates]
        assert len(set(lengths)) == n  # pairwise distinct token counts
        for t, (template, slot_pools) in enumerate(zip(templates, pools)):
            param_positions = [i for i, tok in enumerate(template)
                               if tok is None]
            # constants in the first two routed positions
            assert 0 not in param_positions and 1 not in param_positions
            # strictly fewer parameter slots than half the positions
            assert len(param_positions) < len(template) / 2
            assert set(param_positions) == set(slot_pools)
            for tok in template:
                if tok is not None:
                    assert tok.endswith(f"_{t}")


def test_messages_match_their_template():
    corpus = make_template_corpus(n_templates=6, n_lines=100, seed=11)
    for msg, tid in zip(corpus["messages"], corpus["template_ids"]):
        tokens = msg.split(" ")
        template = corpus["templates"][tid]
        assert len(tokens) == len(template)
        for tok, expected in zip(tokens, template):
            if expected is not None:
                assert tok == expected


def test_drain_recovers_templates_exactly():
    corpus = make_template_corpus(n_templates=5, n_lines=200, seed=2)
    masked = normalize(corpus["messages"], default_rules())
    parser = DrainParser()
    ids = parser.parse(masked)
    assert len(parser.store) == 5
    # predicted ids must be a relabeling of the truth
    mapping = {}
    for pred, true in zip(ids, corpus["template_ids"]):
        assert mapping.setdefault(pred, true) == true
    assert len(mapping) == 5


def test_sequence_dataset_structure():
    events, sequences = make_sequence_dataset(n_sequences=40, n_templates=4,
                                              anomaly_rate=0.25, seed=5)
    assert len(sequences) == 40
    assert int(sequences["label"].sum()) == 10  # round(0.25 * 40)
    assert int(sequences["seq_len"].sum()) == len(events)
    assert len(set(sequences["seq_id"])) == 40

    by_seq = {}
    for sid, msg in zip(events["seq_id"], events["m_message"]):
        by_seq.setdefault(sid, []).append(msg)
    labels = dict(zip(sequences["seq_id"], sequences["label"]))

    fault_sequences = {sid for sid, msgs in by_seq.items()
                       if any("fault_marker" in m for m in msgs)}
    assert fault_sequences == {s for s, lab in labels.items() if lab}

    # every sequence covers all templates (first tokens are per-template
    # constants, so distinct first tokens count distinct templates)
    for msgs in by_seq.values():
        firsts = {m.split(" ")[0] for m in msgs if "fault_marker" not in m}
        assert len(firsts) == 4

    # anomaly marker tokens are unique to their sequence
    marker_owner = {}
    for sid, msgs in by_seq.items():
        for m in msgs:
            if "fault_marker" in m:
                unique = m.split(" ")[2]
                assert unique not in marker_owner
                marker_owner[unique] = sid

    # timestamps strictly increase
    ts = events["m_timestamp"].astype(np.int64)
    assert np.all(np.diff(ts) > 0)


def test_sequence_dataset_deterministic():
    a_events, a_seqs = make_sequence_dataset(n_sequences=20, seed=9)
    b_events, b_seqs = make_sequence_dataset(n_sequences=20, seed=9)
    assert a_events.equals(b_events)
    assert a_seqs.equals(b_seqs)


def test_generate_bgl_round_trips_through_loader(tmp_path):
    paths = generate_synthetic(tmp_path, format="bgl", n_templates=4,
                               n_lines=500, anomaly_rate=0.1, seed=1,
                               name="tiny")
    assert paths["log"].name == "tiny.log"
    events = load_supercomputer(paths["log"], "bgl")
    assert len(events) == 500
    assert events.meta["dropped_lines"] == 0
    assert events.meta["merged_continuations"] == 0

    truth_lines = paths["truth"].read_text().splitlines()
    assert truth_lines[0] == "line,template_id,label"
    assert len(truth_lines) == 501
    truth_labels = [row.split(",")[2] == "1" for row in truth_lines[1:]]
    assert list(events["label"]) == truth_labels
    assert any(truth_labels) and not all(truth_labels)

    # anomalous lines carry the fault template, normal ones never do
    for msg, lab in zip(events["m_message"], events["label"]):
        assert ("fault_marker" in msg) == lab


def test_generate_bgl_deterministic_bytes(tmp_path):
    a = generate_synthetic(tmp_path / "a", format="bgl", n_lines=300, seed=7)
    b = generate_synthetic(tmp_path / "b", format="bgl", n_lines=300, seed=7)
    assert a["log"].read_bytes() == b["log"].read_bytes()
    assert a["truth"].read_bytes() == b["truth"].read_bytes()
    c = generate_synthetic(tmp_path / "c", format="bgl", n_lines=300, seed=8)
    assert a["log"].read_bytes() != c["log"].read_bytes()


def test_generate_hdfs_round_trips_through_loader(tmp_path):
    paths = generate_synthetic(tmp_path, format="hdfs", n_templates=4,
                               n_lines=400, anomaly_rate=0.2, seed=2)
    events, sequences = load_hdfs(paths["log"], paths["labels"])
    assert len(events) == 400
    assert events.meta["dropped_lines"] == 0
    assert events.meta["rows_without_seq_id"] == 0

    labels = read_hdfs_labels(paths["labels"])
    # every block in the log is labeled (the label file may list one
    # trailing block whose lines were cut by the line budget)
    assert set(sequences["seq_id"]) <= set(labels)
    assert sequences.meta["sequences_unlabeled"] == 0
    assert sequences["label"].any()
    assert not sequences["label"].all()

    # per-line truth agrees with the per-block labels
    truth_rows = paths["truth"].read_text().splitlines()[1:]
    assert len(truth_rows) == 400
    line_label = [row.split(",")[2] == "1" for row in truth_rows]
    for i, sid in enumerate(events["seq_id"]):
        assert line_label[i] == labels[sid]


def test_generate_validation(tmp_path):
    with pytest.raises(ValueError):
        generate_synthetic(tmp_path, format="wat")
    with pytest.raises(ValueError):
        generate_synthetic(tmp_path, anomaly_rate=2.0)
