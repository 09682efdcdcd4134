import gc
import json
import logging
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from logbench import detectors, enhancers, pipeline
from logbench.loaders import LoaderSpec, load
from logbench.parsers import make_parser
from logbench.pipeline import (ConfigError, PipelineConfig, StageError,
                               _documents, run_chain, run_pipeline, stage)
from logbench.synth import generate_synthetic
from logbench.tables import EventTable


def _write_config(path, log, labels, out_dir, detector="dt",
                  chain="normalize, tokenize, drain, ngram, aggregate",
                  source="event_ids", extra=""):
    path.write_text(f"""
[loader]
format = hdfs
log = {log}
labels = {labels}

[enhance]
chain = {chain}
ngram_n = 2

[features]
source = {source}

[detect]
kind = {detector}
seed = 0

[split]
fraction = 0.5
seed = 0

[output]
dir = {out_dir}
save_tables = true
{extra}
""")


@pytest.fixture(scope="module")
def synth_hdfs(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthdata")
    return generate_synthetic(root, format="hdfs", n_templates=4,
                              n_lines=1500, anomaly_rate=0.2, seed=4)


def test_full_pipeline_supervised(tmp_path, synth_hdfs):
    cfg_path = tmp_path / "pipeline.ini"
    out_dir = tmp_path / "out"
    _write_config(cfg_path, synth_hdfs["log"], synth_hdfs["labels"], out_dir)
    config = PipelineConfig.from_file(cfg_path)
    report = run_pipeline(config)

    # anomalous sequences all contain the fault template's event id, so a
    # tree on event-id counts separates them
    assert report.f1_binary >= 0.95
    assert report.auc_roc is not None

    for artifact in ("report.json", "report.csv", "model.json",
                     "templates.json", "ngram_model.json",
                     "events.table.json", "sequences.table.json"):
        assert (out_dir / artifact).exists(), artifact

    saved = json.loads((out_dir / "report.json").read_text())
    assert saved["tp"] + saved["fp"] + saved["fn"] + saved["tn"] > 0
    assert saved["f1_binary"] == report.f1_binary
    # one timing per chain step, next to the stages around the chain
    assert set(saved["wall_clock_ms"]) == {
        "load", "normalize", "tokenize", "drain", "aggregate", "split",
        "ngram", "features", "train", "evaluate"}


def test_pipeline_deterministic_artifacts(tmp_path, synth_hdfs):
    reports = []
    for run in ("a", "b"):
        cfg = tmp_path / f"p_{run}.ini"
        out = tmp_path / run
        _write_config(cfg, synth_hdfs["log"], synth_hdfs["labels"], out)
        run_pipeline(PipelineConfig.from_file(cfg))
        reports.append(out)
    a, b = reports
    for name in ("model.json", "templates.json", "ngram_model.json",
                 "events.table.json", "sequences.table.json", "report.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    ra.pop("wall_clock_ms")
    rb.pop("wall_clock_ms")
    assert ra == rb


@pytest.mark.parametrize("detector", ["lr", "kmeans", "iforest", "oov",
                                      "rarity"])
def test_pipeline_all_detectors_run(tmp_path, synth_hdfs, detector):
    cfg = tmp_path / "p.ini"
    out = tmp_path / "out"
    source = "words" if detector in ("oov", "rarity") else "event_ids"
    _write_config(cfg, synth_hdfs["log"], synth_hdfs["labels"], out,
                  detector=detector, source=source)
    report = run_pipeline(PipelineConfig.from_file(cfg))
    assert (out / "model.json").exists()
    assert report.tp + report.fn > 0  # test split contains true anomalies


def test_config_validation_errors(tmp_path):
    spec = LoaderSpec("raw", tmp_path / "x.log")

    def build(**kw):
        defaults = dict(loader_spec=spec, chain=["tokenize"],
                        out_dir=tmp_path / "o", feature_source="words")
        defaults.update(kw)
        return PipelineConfig(**defaults)

    build()  # valid baseline
    with pytest.raises(ConfigError):
        build(chain=["wat"])
    with pytest.raises(ConfigError):
        build(chain=["tokenize", "tokenize"])
    with pytest.raises(ConfigError):
        build(chain=["tokenize", "drain", "spell"])
    with pytest.raises(ConfigError):
        build(chain=["tokenize", "ngram", "aggregate"])  # ngram sans parser
    with pytest.raises(ConfigError):
        build(chain=["tokenize", "drain", "ngram"])  # ngram sans aggregate
    with pytest.raises(ConfigError):
        build(feature_source="event_ids")  # no parser in chain
    with pytest.raises(ConfigError):
        build(chain=[])  # words need tokenize
    with pytest.raises(ConfigError):
        build(detector="svm")
    with pytest.raises(ConfigError):
        build(split_fraction=1.0)
    with pytest.raises(ConfigError):
        build(ngram_n=1, chain=["tokenize", "drain", "ngram", "aggregate"])
    with pytest.raises(ConfigError):
        build(contamination=1.5)
    with pytest.raises(ConfigError):
        build(min_count=0)
    # parser parameters are checked before any data is loaded
    for kind, params in [("drain", {"depth": 1}),
                         ("drain", {"sim_threshold": 2.0}),
                         ("drain", {"max_children": 0}),
                         ("spell", {"tau": -1.0}),
                         ("lenma", {"threshold": 5.0}),
                         ("drain", {"wat": 1})]:
        with pytest.raises(ConfigError, match=kind):
            build(chain=["tokenize", kind], parser_params={kind: params})
    build(chain=["tokenize", "spell"], parser_params={"drain": {"depth": 1}})


@pytest.mark.parametrize("fmt", ["hdfs", "hadoop"])
def test_sequence_labelled_format_needs_aggregate(tmp_path, fmt):
    # refused up front: neither path exists, so nothing could have loaded
    spec = LoaderSpec(fmt, tmp_path / "nope", tmp_path / "labels.csv")
    for source, chain in [("words", ["normalize", "tokenize", "drain"]),
                          ("event_ids", ["tokenize", "spell"])]:
        with pytest.raises(ConfigError, match=rf"^{fmt} .*aggregate"):
            PipelineConfig(spec, chain, tmp_path / "o",
                           feature_source=source)
        PipelineConfig(spec, chain + ["aggregate"], tmp_path / "o",
                       feature_source=source)


def test_config_file_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        PipelineConfig.from_file(tmp_path / "missing.ini")

    bad = tmp_path / "bad.ini"
    bad.write_text("[loader]\nformat = hdfs\n")  # no log
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(bad)

    bad.write_text("[detect]\nkind = dt\n")  # no loader section
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(bad)

    bad.write_text("[loader]\nformat = wat\nlog = x.log\n")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(bad)


def test_config_rejects_unknown_sections_and_keys(tmp_path, synth_hdfs):
    cfg = tmp_path / "p.ini"
    _write_config(cfg, synth_hdfs["log"], synth_hdfs["labels"],
                  tmp_path / "out")
    good = cfg.read_text()
    assert PipelineConfig.from_file(cfg).detector == "dt"

    # a misspelt section would silently run the default detector
    cfg.write_text(good + "\n[detector]\nkind = kmeans\n")
    with pytest.raises(ConfigError, match=r"section \[detector\]"):
        PipelineConfig.from_file(cfg)

    cfg.write_text(good.replace("ngram_n = 2", "ngram_n = 2\ndrain_dept = 3"))
    with pytest.raises(ConfigError, match=r"\[enhance\] drain_dept"):
        PipelineConfig.from_file(cfg)

    cfg.write_text("[DEFAULT]\nsed = 3\n" + good)
    with pytest.raises(ConfigError, match=r"\[DEFAULT\] sed"):
        PipelineConfig.from_file(cfg)

    # a [DEFAULT] key some section reads is fine, and reaches every section
    cfg.write_text("[DEFAULT]\nseed = 3\n" + good.replace("seed = 0\n", ""))
    config = PipelineConfig.from_file(cfg)
    assert (config.detector_seed, config.split_seed) == (3, 3)


def test_bad_rules_file_is_config_error(tmp_path, synth_hdfs):
    rules = tmp_path / "rules.txt"
    rules.write_text("(?<=a)b\t<BAD>\n")
    cfg = tmp_path / "p.ini"
    _write_config(cfg, synth_hdfs["log"], synth_hdfs["labels"],
                  tmp_path / "out")
    # splice the rules key into the enhance section
    text = cfg.read_text().replace("[features]",
                                   f"rules = {rules}\n\n[features]")
    cfg.write_text(text)
    with pytest.raises(ConfigError):
        run_pipeline(PipelineConfig.from_file(cfg))


def test_stage_error_names_the_stage(tmp_path):
    # raw loader has no seq_id; the aggregate stage must fail as StageError
    log = tmp_path / "plain.log"
    log.write_text("alpha one\nbeta two\ngamma three\nliner four\n")
    config = PipelineConfig(
        loader_spec=LoaderSpec("raw", log),
        chain=["tokenize", "aggregate"],
        out_dir=tmp_path / "out",
        detector="kmeans",
    )
    with pytest.raises(StageError) as err:
        run_pipeline(config)
    assert err.value.stage == "aggregate"


def test_stage_error_names_the_failing_step(tmp_path, monkeypatch):
    def broken(events):
        raise RuntimeError("no tokens today")
    monkeypatch.setattr(enhancers, "add_tokens", broken)
    (tmp_path / "x.log").write_text("alpha one\nbeta two\n")
    config = PipelineConfig(
        loader_spec=LoaderSpec("raw", tmp_path / "x.log"),
        chain=["normalize", "tokenize"], out_dir=tmp_path / "out")
    with pytest.raises(StageError, match="no tokens today") as err:
        run_pipeline(config)
    assert err.value.stage == "tokenize"


@pytest.mark.parametrize("enabled", [True, False])
def test_stage_pauses_gc_and_restores_callers_state(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with stage("ok"):
            assert not gc.isenabled()
        assert gc.isenabled() == enabled
        with pytest.raises(StageError):
            with stage("fails"):
                raise ValueError("boom")
        assert gc.isenabled() == enabled
        with pytest.raises(OSError):
            with stage("io"):
                raise OSError("disk")
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("chain", [["tokenize", "drain"],
                                   ["normalize", "tokenize", "spell"],
                                   ["tokenize", "normalize", "drain"]],
                         ids="-".join)
def test_chain_splits_each_distinct_message_at_most_once(
        synth_hdfs, monkeypatch, chain):
    """The parser mines the tokens of the column it parses: those
    ``tokenize`` built from it, or ``normalize`` coded from its masked
    chunks, which splits no whole message. Its ids are those of a parser
    given the text alone."""
    from logbench import masking, tables
    split, seen = tables.split_tokens, []

    def counting(text):
        seen.append(text)
        return split(text)
    for module in (tables, masking):
        monkeypatch.setattr(module, "split_tokens", counting)
    events, _ = load(LoaderSpec("hdfs", synth_hdfs["log"]))
    message = events["m_message"]
    out, _, _ = run_chain(events, chain, None)
    monkeypatch.undo()
    # a masked chunk holds no space
    whole = [text for text in seen if " " in text]
    want = [m for m in message.dictionary if " " in m] \
        if chain[0] == "tokenize" else []
    assert whole == want
    text = out["e_message_normalized" if "normalize" in chain
               else "m_message"]
    assert out["e_event_id"].tolist() == \
        make_parser(chain[-1]).parse(list(text))


def test_each_step_logs_one_line(tmp_path, synth_hdfs, caplog):
    caplog.set_level(logging.INFO, logger="logbench.pipeline")
    run_pipeline(_hdfs_config(tmp_path, synth_hdfs))
    lines = [r.getMessage() for r in caplog.records
             if r.name == "logbench.pipeline" and r.levelname == "INFO"
             and r.getMessage().endswith(" ms")]
    steps = [line.split(":")[0] for line in lines]
    assert steps == ["load", "normalize", "tokenize", "drain", "aggregate",
                     "split", "features", "train", "evaluate"]
    for line in lines:
        assert re.fullmatch(r"\w+: \d+\.\d ms", line), line


def test_missing_log_file_is_oserror(tmp_path):
    config = PipelineConfig(
        loader_spec=LoaderSpec("raw", tmp_path / "nope.log"),
        chain=["tokenize"],
        out_dir=tmp_path / "out",
        detector="kmeans",
    )
    with pytest.raises(OSError):
        run_pipeline(config)


def test_split_empty_side_fails_in_stage(tmp_path):
    log = tmp_path / "one.log"
    log.write_text("only line\n")
    config = PipelineConfig(
        loader_spec=LoaderSpec("raw", log),
        chain=["tokenize"],
        out_dir=tmp_path / "out",
        detector="kmeans",
    )
    with pytest.raises(StageError) as err:
        run_pipeline(config)
    assert err.value.stage == "split"


def _hdfs_config(tmp_path, data, **kw):
    settings = dict(loader_spec=LoaderSpec("hdfs", data["log"],
                                           data["labels"]),
                    chain=["normalize", "tokenize", "drain", "aggregate"],
                    out_dir=tmp_path / "out", feature_source="event_ids")
    settings.update(kw)
    return PipelineConfig(**settings)


def _degenerate_warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "logbench.pipeline" and r.levelname == "WARNING"
            and r.getMessage().startswith("degenerate:")]


@pytest.mark.parametrize("settings, expected", [
    (dict(detector="oov", oov_threshold=-1.0), "predicted positive"),
    (dict(detector="oov", oov_threshold=1.0), "predicted negative"),
    (dict(detector="rarity", feature_source="words", min_count=10 ** 9),
     "every test document is out of vocabulary"),
], ids=["all-positive", "all-negative", "all-oov"])
def test_degenerate_outcome_warns(tmp_path, synth_hdfs, caplog, settings,
                                  expected):
    caplog.set_level(logging.WARNING, logger="logbench.pipeline")
    run_pipeline(_hdfs_config(tmp_path, synth_hdfs, **settings))
    warnings = _degenerate_warnings(caplog)
    assert len(warnings) == 1 and expected in warnings[0], warnings


def test_single_class_training_warns(tmp_path, caplog):
    data = generate_synthetic(tmp_path / "data", format="hdfs",
                              n_templates=4, n_lines=600, anomaly_rate=0.0,
                              seed=4)
    caplog.set_level(logging.WARNING, logger="logbench.pipeline")
    run_pipeline(_hdfs_config(tmp_path, data, detector="rarity"))
    assert _degenerate_warnings(caplog) == [
        "degenerate: training has a single class (all normal)",
        "degenerate: test has a single class (all normal); AUC is undefined"]


def test_single_class_test_side_warns(tmp_path, caplog):
    # two anomalous blocks, and the split puts both on the training side
    data = generate_synthetic(tmp_path / "data", format="hdfs",
                              n_templates=4, n_lines=600, anomaly_rate=0.02,
                              seed=9)
    caplog.set_level(logging.WARNING, logger="logbench.pipeline")
    report = run_pipeline(_hdfs_config(tmp_path, data, detector="dt"))
    warnings = _degenerate_warnings(caplog)
    assert "degenerate: test has a single class (all normal); AUC is " \
        "undefined" in warnings
    assert not any(w.startswith("degenerate: training") for w in warnings)
    assert report.auc_roc is None and report.tp + report.fn == 0
    # the warning leaves report.json as it was
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    assert saved["auc_roc"] is None
    assert set(saved) == {"tp", "fp", "fn", "tn", "accuracy", "precision",
                          "recall", "f1_binary", "auc_roc", "wall_clock_ms"}


def test_healthy_run_warns_nothing(tmp_path, synth_hdfs, caplog):
    caplog.set_level(logging.WARNING, logger="logbench.pipeline")
    report = run_pipeline(_hdfs_config(tmp_path, synth_hdfs, detector="dt"))
    assert report.f1_binary >= 0.95
    assert _degenerate_warnings(caplog) == []
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(saved) == {"tp", "fp", "fn", "tn", "accuracy", "precision",
                          "recall", "f1_binary", "auc_roc", "wall_clock_ms"}


def test_event_id_documents_share_one_list_per_id():
    ids = np.asarray([7, 3, 7, 12, 3, 7], dtype=np.int64)
    table = EventTable({"m_message": ["m"] * 6, "e_event_id": ids})
    docs = _documents(table, SimpleNamespace(feature_source="event_ids"))
    # a token column: each distinct id's term is coded once
    assert sorted(docs.tokens) == ["e12", "e3", "e7"]
    assert list(docs) == [[f"e{e}"] for e in ids.tolist()]
    lists = docs.tolist()
    assert lists == [[f"e{e}"] for e in ids.tolist()]
    for i in range(6):
        for j in range(6):
            assert (lists[i] is lists[j]) == (ids[i] == ids[j])


@pytest.mark.parametrize("detector", ["lr", "dt", "kmeans", "iforest", "oov",
                                      "rarity"])
def test_test_matrix_is_scored_once(tmp_path, synth_hdfs, monkeypatch,
                                    detector):
    matrices = []
    vectorize = pipeline.features.vectorize

    def recording_vectorize(*args, **kwargs):
        matrices.append(vectorize(*args, **kwargs))
        return matrices[-1]
    monkeypatch.setattr(pipeline.features, "vectorize", recording_vectorize)
    scored = []
    for cls in (detectors.LogisticRegressionDetector,
                detectors.DecisionTreeDetector, detectors.KMeansDetector,
                detectors.IsolationForestDetector, detectors.OOVDetector,
                detectors.RarityDetector):
        def counting_score(self, X, score=cls.score):
            scored.append(X)
            return score(self, X)
        monkeypatch.setattr(cls, "score", counting_score)
    for _ in range(2):
        matrices.clear()
        scored.clear()
        run_pipeline(_hdfs_config(tmp_path, synth_hdfs, detector=detector))
        _, X_test = matrices
        assert sum(X is X_test for X in scored) == 1
        # kmeans and iforest also score their training rows once, in fit
        assert len(scored) == (2 if detector in ("kmeans", "iforest") else 1)


@pytest.mark.parametrize("save_tables, renders", [(False, 0), (True, 1)])
def test_masked_text_is_rendered_only_when_read(tmp_path, synth_hdfs,
                                                monkeypatch, save_tables,
                                                renders):
    # hdfs-detect's chain reads the masked text's codes and tokens only;
    # saving the tables reads the text, and renders it once for both files
    from logbench import masking
    passes, rendered = [], []
    masked = masking._masked

    def counting_masked(pieces, kept, lengths):
        render, code = masked(pieces, kept, lengths)
        passes.append(len(lengths))

        def counting_render():
            rendered.append(len(lengths))
            return render()
        return counting_render, code
    monkeypatch.setattr(masking, "_masked", counting_masked)
    run_pipeline(_hdfs_config(
        tmp_path, synth_hdfs, feature_source="words", detector="dt",
        chain=["normalize", "tokenize", "drain", "ngram", "aggregate"],
        save_tables=save_tables))
    assert len(passes) == 1 and len(rendered) == renders


@pytest.mark.parametrize("save_tables", [False, True])
def test_event_table_is_freed_after_aggregation(tmp_path, synth_hdfs,
                                                monkeypatch, save_tables):
    # past aggregate only saving the tables reads the event table; without
    # that it must be gone, freed by reference counting alone, before the
    # features stage builds its matrices
    tables, alive = [], []
    aggregate = enhancers.aggregate_sequences

    def recording_aggregate(events, labels=None):
        tables.append(weakref.ref(events))
        return aggregate(events, labels)
    vectorize = pipeline.features.vectorize

    def checking_vectorize(*args, **kwargs):
        alive.append(tables[0]() is not None)
        return vectorize(*args, **kwargs)
    monkeypatch.setattr(enhancers, "aggregate_sequences", recording_aggregate)
    monkeypatch.setattr(pipeline.features, "vectorize", checking_vectorize)
    run_pipeline(_hdfs_config(
        tmp_path, synth_hdfs, feature_source="words", detector="dt",
        chain=["normalize", "tokenize", "drain", "ngram", "aggregate"],
        save_tables=save_tables))
    assert alive == [save_tables, save_tables]


@pytest.fixture(scope="module")
def hdfs_with_rare_terms(tmp_path_factory, synth_hdfs):
    """synth_hdfs plus 40 one-line blocks: blocks 2k and 2k + 1 share the
    term ``pair<k>``, once each, so a split that parts a pair leaves a
    training term seen once that the test side holds too."""
    root = tmp_path_factory.mktemp("rare")
    log, labels = root / "rare.log", root / "rare_labels.csv"
    lines = [f"081109 235959 99 INFO dfs.DataNode: served pair{b // 2} "
             f"blk_{9000000 + b}\n" for b in range(40)]
    log.write_text(synth_hdfs["log"].read_text() + "".join(lines))
    labels.write_text(synth_hdfs["labels"].read_text() + "".join(
        f"blk_{9000000 + b},Normal\n" for b in range(40)))
    return {"log": log, "labels": labels}


@pytest.mark.parametrize("detector", ["oov", "rarity"])
def test_feature_settings_reach_term_statistics_detectors(
        tmp_path, hdfs_with_rare_terms, monkeypatch, detector):
    cls = {"oov": detectors.OOVDetector,
           "rarity": detectors.RarityDetector}[detector]
    score = cls.score
    scored = []

    def recording_score(self, X):
        scored.append(score(self, X))
        return scored[-1]
    monkeypatch.setattr(cls, "score", recording_score)
    for settings in ({}, dict(binary_features=True), dict(min_count=2)):
        run_pipeline(_hdfs_config(tmp_path, hdfs_with_rare_terms,
                                  feature_source="words", detector=detector,
                                  **settings))
    default, binary, min_count_2 = scored
    assert not np.array_equal(binary, default)
    assert not np.array_equal(min_count_2, default)


@pytest.fixture(scope="module")
def hdfs_20k(tmp_path_factory):
    root = tmp_path_factory.mktemp("hdfs20k")
    return generate_synthetic(root, format="hdfs", n_lines=20000,
                              anomaly_rate=0.05, seed=5)


@pytest.mark.parametrize("source", ["words", "event_ids"])
@pytest.mark.parametrize("binary", [False, True], ids=["counts", "binary"])
def test_lr_representation_grid(tmp_path, hdfs_20k, source, binary):
    report = run_pipeline(_hdfs_config(tmp_path, hdfs_20k,
                                       feature_source=source,
                                       binary_features=binary,
                                       detector="lr"))
    assert report.auc_roc >= 0.99
    if source == "words" and not binary:
        # AUC only (ROADMAP item 3, block ids): each training sequence's
        # block id is a word of its own, counted once per line, and lr
        # puts part of that sequence's label on it. No test row holds it,
        # so test anomalies rank first but fall short of 0.5.
        return
    assert report.f1_binary >= 0.95
