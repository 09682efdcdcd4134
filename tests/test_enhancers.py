import gc
import warnings

import numpy as np
import pytest

from logbench.enhancers import (add_event_ids, add_ngram_scores,
                                add_normalized, add_tokens,
                                aggregate_sequences)
from logbench.loaders import LoaderSpec, load
from logbench.ngram import ngram_train
from logbench.parsers import DrainParser
from logbench.synth import generate_synthetic
from logbench.tables import EventTable, SequenceTable, TokenColumn


def _ts(seconds):
    return (np.asarray(seconds, dtype=np.int64) * 1_000_000) \
        .view(np.dtype("datetime64[us]"))


def small_table():
    return EventTable({
        "seq_id": ["s1", "s2", "s1", None, "s2", "s1"],
        "m_message": ["send 100 bytes", "open file a", "send 2 bytes",
                      "noise 7", "open file b", "send 31 bytes"],
        "m_timestamp": _ts([0, 10, 5, 7, 12, 20]),
    })


def test_add_normalized_and_tokens():
    t = add_normalized(small_table())
    assert t["e_message_normalized"][0] == "send <NUM> bytes"
    t = add_tokens(t)
    assert t["e_words"][0] == ["send", "<NUM>", "bytes"]
    # without a normalized column, tokens come from the raw message
    raw = add_tokens(small_table())
    assert raw["e_words"][0] == ["send", "100", "bytes"]


def test_add_event_ids_continues_parser_state():
    parser = DrainParser()
    t = add_event_ids(add_normalized(small_table()), parser)
    ids = t["e_event_id"]
    assert ids.dtype == np.int64
    assert ids[0] == ids[2] == ids[5]  # the three send lines
    assert ids[1] == ids[4]
    n_before = len(parser.store)
    t2 = EventTable({"m_message": ["send 9 bytes"], "m_timestamp": _ts([0])})
    out = add_event_ids(add_normalized(t2), parser)
    assert out["e_event_id"][0] == ids[0]
    assert len(parser.store) == n_before


def _parsed(events):
    """The ids and templates ``add_event_ids`` gives with a fresh Drain."""
    parser = DrainParser()
    ids = add_event_ids(events, parser)["e_event_id"].tolist()
    return ids, parser.store.template_strings()


def _reference(messages):
    """The ids and templates of a fresh Drain parsing the messages as a
    plain list, coded and split anew."""
    parser = DrainParser()
    return parser.parse(list(messages)), parser.store.template_strings()


def test_add_event_ids_mines_the_text_it_parses():
    normalized = add_tokens(add_normalized(small_table()))
    want = _reference(normalized["e_message_normalized"])
    assert "send <NUM> bytes" in want[1].values()
    assert _parsed(normalized) == want
    # tokenize, normalize: the tokens hold "100", the parsed text "<NUM>"
    assert _parsed(add_normalized(add_tokens(small_table()))) == want
    # a replaced token column is never what the parser reads
    assert _parsed(normalized.with_column("e_words",
                                          [["x"]] * len(normalized))) == want
    # a replaced text column is parsed from its own text
    raw = normalized.with_column("e_message_normalized",
                                 normalized["m_message"])
    assert _parsed(raw) == _reference(raw["e_message_normalized"]) != want


def test_drain_parses_codes_without_per_entry_lists(monkeypatch):
    t = add_tokens(add_normalized(small_table()))
    params = [{}, {"depth": 3, "max_children": 1}]
    expected = [DrainParser(**p).parse(t["e_message_normalized"])
                for p in params]

    def refuse(self, *args):
        raise AssertionError("a list per entry was built")
    monkeypatch.setattr(TokenColumn, "tolist", refuse)
    monkeypatch.setattr(TokenColumn, "__iter__", refuse)
    for p, ids in zip(params, expected):
        out = add_event_ids(t, DrainParser(**p))
        assert out["e_event_id"].tolist() == ids


def test_aggregate_sequences():
    parser = DrainParser()
    t = add_event_ids(add_tokens(add_normalized(small_table())), parser)
    seqs = aggregate_sequences(t)
    assert isinstance(seqs, SequenceTable)
    assert list(seqs["seq_id"]) == ["s1", "s2"]  # first-seen order
    assert list(seqs["seq_len"]) == [3, 2]
    assert seqs["duration"][0] == np.timedelta64(20, "s")
    assert seqs["duration"][1] == np.timedelta64(2, "s")
    assert seqs["event_ids"][0] == [0, 0, 0]
    assert seqs["words"][1] == ["open", "file", "a", "open", "file", "b"]
    assert seqs.meta["events_without_seq_id"] == 1
    assert "label" not in seqs


def test_aggregate_duration_is_nat_when_a_timestamp_is(tmp_path):
    ts = _ts([0, 10, 5, 7, 12, 20, 3, 4])
    ts[[2, 6, 7]] = np.datetime64("NaT")
    t = EventTable({"seq_id": ["s1", "s2", "s1", "s2", "s2", "s1", "s3",
                               "s3"],
                    "m_message": ["m"] * 8, "m_timestamp": ts})
    # a table file keeps the NaT and loads it back
    t.save(tmp_path / "t.table.json")
    t = EventTable.load(tmp_path / "t.table.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seqs = aggregate_sequences(t)
    assert list(seqs["seq_id"]) == ["s1", "s2", "s3"]
    assert list(seqs["seq_len"]) == [3, 3, 2]
    assert np.isnat(seqs["duration"][0])  # one NaT among three
    assert seqs["duration"][1] == np.timedelta64(5, "s")
    assert np.isnat(seqs["duration"][2])  # all NaT
    assert seqs["duration"].dtype == np.dtype("timedelta64[us]")


def test_aggregate_against_dict_grouping():
    rng = np.random.default_rng(5)
    n = 3000
    sids = [None if k == 0 else f"s{k}" for k in rng.integers(0, 40, n)]
    ids = rng.integers(0, 9, n)
    words = [[f"w{i}"] * (i % 3) for i in range(n)]
    t = EventTable({"seq_id": sids, "m_message": ["x"] * n,
                    "m_timestamp": _ts(rng.integers(0, 10 ** 6, n)),
                    "e_event_id": ids, "e_words": words})
    groups = {}
    for i, s in enumerate(sids):
        if s is not None:
            groups.setdefault(s, []).append(i)
    seqs = aggregate_sequences(t)
    assert list(seqs["seq_id"]) == list(groups)  # first-seen order
    assert list(seqs["seq_len"]) == [len(g) for g in groups.values()]
    # each sequence's rows in row order
    assert list(seqs["event_ids"]) == \
        [ids[g].tolist() for g in groups.values()]
    assert list(seqs["words"]) == \
        [[w for i in g for w in words[i]] for g in groups.values()]
    ts = t["m_timestamp"]
    assert list(seqs["duration"]) == \
        [ts[g].max() - ts[g].min() for g in groups.values()]
    assert seqs.meta["events_without_seq_id"] == sids.count(None)
    # only null seq ids: no sequences
    empty = aggregate_sequences(t.take([i for i, s in enumerate(sids)
                                        if s is None]))
    assert len(empty) == 0 and empty["duration"].dtype.kind == "m"


def test_aggregate_labels_from_dict_and_table():
    t = small_table()
    seqs = aggregate_sequences(t, {"s1": True})
    assert list(seqs["label"]) == [True, False]
    assert seqs.meta["sequences_unlabeled"] == 1

    label_table = SequenceTable({"seq_id": ["s2", "s1"],
                                 "label": [True, False]})
    seqs = aggregate_sequences(t, label_table)
    assert list(seqs["label"]) == [False, True]
    assert seqs.meta["sequences_unlabeled"] == 0


def test_aggregate_requires_seq_id():
    t = EventTable({"m_message": ["x"], "m_timestamp": _ts([0])})
    with pytest.raises(ValueError):
        aggregate_sequences(t)


def test_add_ngram_scores():
    t = add_event_ids(add_normalized(small_table()), DrainParser())
    seqs = aggregate_sequences(t)
    model = ngram_train(seqs["event_ids"], n=2)
    scored = add_ngram_scores(seqs, model, p0=0.05)
    assert "e_ngram_score" in scored
    assert scored["e_ngram_score"].dtype == np.float64
    # trained on itself: every transition was seen
    assert scored["e_ngram_score"].max() == 0.0
    with pytest.raises(ValueError):
        add_ngram_scores(SequenceTable({"seq_id": ["a"], "seq_len": [1]}),
                         model)


def _tracked_objects_held(events, steps):
    """GC-tracked objects that the token and sequence tables built from
    ``events`` by ``steps`` hold while they are alive."""
    gc.collect()
    before = len(gc.get_objects())
    if "normalize" in steps:
        events = add_normalized(events)
    words = add_tokens(events)
    if "drain" in steps:  # the parser and its templates are dropped
        words = add_event_ids(words, DrainParser())
    sequences = aggregate_sequences(words)
    gc.collect()
    held = len(gc.get_objects()) - before
    del events, words, sequences
    return held


@pytest.mark.parametrize("steps", [("normalize", "tokenize"), ("tokenize",),
                                   ("normalize", "tokenize", "drain")],
                         ids="-".join)
def test_token_tables_hold_no_objects_per_row(tmp_path, steps):
    held = {}
    for n in (2_000, 20_000):
        paths = generate_synthetic(tmp_path / str(n), format="hdfs",
                                   n_templates=10, n_lines=n, seed=5)
        events, _ = load(LoaderSpec("hdfs", paths["log"]))
        _tracked_objects_held(events, steps)  # first calls may cache
        held[n] = _tracked_objects_held(events, steps)
    assert held[20_000] <= held[2_000] < 100, held
