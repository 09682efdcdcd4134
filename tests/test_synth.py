import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from logbench import synth
from logbench.loaders import load_hdfs, load_supercomputer, read_hdfs_labels
from logbench.masking import default_rules, normalize
from logbench.parsers import DrainParser
from logbench.synth import (generate_synthetic, make_sequence_dataset,
                            make_template_corpus, _build_templates, _compile,
                            _message)


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


def test_compiled_template_keeps_a_literal_percent():
    compiled = _compile(["50%", "done", None, "%s"], {2: ["x%d", "y"]})
    rng = random.Random(0)
    got = {_message(compiled, rng.getrandbits) for _ in range(50)}
    assert got == {"50% done x%d %s", "50% done y %s"}


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
    for n_lines in (0, -5):
        with pytest.raises(ValueError, match="n_lines must be positive"):
            generate_synthetic(tmp_path, format="hdfs", n_lines=n_lines)
    with pytest.raises(ValueError, match="n_templates"):
        generate_synthetic(tmp_path / "out", n_templates=11)
    # nothing is written, not even the output directory
    assert not list(tmp_path.iterdir())


# sha256 of every file generate_synthetic writes, and of the in-memory
# corpora, as the generator wrote them before its draws and templates were
# rewritten for speed. These corpora feed the benchmark, the acceptance
# gates and the golden digests, so they must not move. The cases cover both
# layouts, anomaly rates 0 and 0.2, 1, 6 and 10 templates, a BGL corpus
# that crosses midnight and wraps the microsecond field, an HDFS corpus that
# wraps the pid field and whose line budget cuts its last block short, and
# a tiny chunk size so the chunk flush runs in mid-corpus.
_CUT_SHORT = ("hdfs", 6, 0.2, 9050, 7, None)
_PINNED_FILES = {
    # format, n_templates, anomaly_rate, n_lines, seed, _CHUNK or None
    ("bgl", 1, 0.0, 250, 1, None): {
        "log":
            "edc6ef653f5dd6e512f0688098d4f788ca2ba823ee25ce154997c04b6148b27c",
        "truth":
            "1999891ec88796301c21995f45ba629d77ab852e1ee4e716fedff2207b5e272a",
    },
    ("bgl", 6, 0.2, 5000, 3, None): {
        "log":
            "26f48687bbfa5e3b6bf12bc08f7323cd71cc697c4ab7ec19e2ded6114358a496",
        "truth":
            "2255332f580cd3ba0acc080f9b63d89fa516c3998d4119d6601e3376515cfeae",
    },
    ("bgl", 10, 0.2, 500, 5, 7): {
        "log":
            "d1076380a5ab6702c9bca3eaaca3f8de8b26e44dbdb3cdf816cf35a502a3fc4b",
        "truth":
            "5c7d401e492061162f1bac20b97020785948f651d4ae05152b61815186052047",
    },
    ("hdfs", 1, 0.0, 250, 1, None): {
        "log":
            "d2e6eabb7c01999241cb689a0fba5401fa43ae8a36b5b61c53119f2e38844941",
        "truth":
            "1999891ec88796301c21995f45ba629d77ab852e1ee4e716fedff2207b5e272a",
        "labels":
            "7b0cbc103c601ba163fb4a7e7407159ea2b43bf7251e1b323ee3319d15412ad1",
    },
    _CUT_SHORT: {
        "log":
            "6dfd874e4638866cddb44badfc317ebf02541ab7f08a72f364e546e650c37b82",
        "truth":
            "cfcb2d560ca9428947e924dda855b64c2c4b1b27b8109e53e8c73e8d897b520b",
        "labels":
            "aa11f9804e076bce3e409bb9435be5e337ba15e480cb9863f117241d2ccc5106",
    },
    ("hdfs", 10, 0.2, 600, 11, 5): {
        "log":
            "3a043d1e58de3ae9cdeaf1b637ddf8470fe8f46f777ddbd2dd15e239e3cdc19e",
        "truth":
            "8bc33cd7fe3eb5acfff628429521997f7f711a3e812bd4d3c9709071f72ae936",
        "labels":
            "dfdc3426ffcfad9a9ff703d666bd237cb8f81aca43d510b2ed555256c5572888",
    },
}

_PINNED_CORPORA = {
    # n_templates, n_lines, seed
    (1, 50, 0):
        "5b87529d78f4232ad10590f1e4851776cd6e06dab551ac2e3c467094e439ed64",
    (6, 500, 3):
        "413834ac5c61828af9a6cec0995735dd17ce5ba27cc0bc1fc11660433e426d66",
    (10, 1000, 4243):
        "507df2deaf36efdd4b3bf4a95c2025aabedd91629cb367fa599be9b70e623572",
}

_PINNED_SEQUENCE_DATASETS = {
    # n_sequences, n_templates, anomaly_rate, seed
    (60, 6, 0.2, 1):
        "6f2b952365fe153f9060f74ee5a4d2781c0b29cb7854690a180f784caaffd426",
    (40, 10, 0.0, 2):
        "d2f174f760b6f92e4f24123847067849f99a1479e6a68a533a4b6ca4515aced8",
    (30, 1, 1.0, 3):
        "0312e44c1b2273a55d28293bdc7ce70ff3697587e0cd25e68245acd055a028e5",
}


def _digest(*columns):
    h = hashlib.sha256()
    for column in columns:
        h.update("\n".join(map(str, column)).encode())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("case", list(_PINNED_FILES),
                         ids=lambda c: "-".join(map(str, c)))
def test_generated_bytes_are_pinned(tmp_path, monkeypatch, case):
    fmt, n_templates, anomaly_rate, n_lines, seed, chunk = case
    if chunk is not None:
        monkeypatch.setattr(synth, "_CHUNK", chunk)
    paths = generate_synthetic(tmp_path, format=fmt, n_templates=n_templates,
                               n_lines=n_lines, anomaly_rate=anomaly_rate,
                               seed=seed)
    got = {key: hashlib.sha256(path.read_bytes()).hexdigest()
           for key, path in paths.items() if path is not None}
    assert got == _PINNED_FILES[case]


def test_pinned_hdfs_budget_cuts_a_block_short(tmp_path):
    # one more line of budget continues the pinned corpus's last block
    fmt, n_templates, anomaly_rate, n_lines, seed, _ = _CUT_SHORT
    cut, more = (generate_synthetic(tmp_path / str(n), format=fmt,
                                    n_templates=n_templates, n_lines=n,
                                    anomaly_rate=anomaly_rate, seed=seed)
                 for n in (n_lines, n_lines + 1))
    cut_lines = cut["log"].read_text().splitlines()
    more_lines = more["log"].read_text().splitlines()
    assert more_lines[:n_lines] == cut_lines
    assert more_lines[n_lines].split(" ")[-1] == cut_lines[-1].split(" ")[-1]


@pytest.mark.parametrize("case", list(_PINNED_CORPORA))
def test_template_corpus_is_pinned(case):
    corpus = make_template_corpus(*case)
    assert _digest(corpus["messages"], corpus["template_ids"]) == \
        _PINNED_CORPORA[case]


@pytest.mark.parametrize("case", list(_PINNED_SEQUENCE_DATASETS))
def test_sequence_dataset_is_pinned(case):
    events, sequences = make_sequence_dataset(*case)
    got = _digest(events["seq_id"], events["m_message"],
                  events["m_timestamp"].astype(np.int64),
                  sequences["seq_id"], sequences["label"],
                  sequences["seq_len"])
    assert got == _PINNED_SEQUENCE_DATASETS[case]
