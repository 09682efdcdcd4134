"""End-to-end pipeline: load, enhance, split, featurize, detect, evaluate.

The pipeline is configured from an INI file (see PipelineConfig.from_file)
and validated before any data is touched: a bad configuration raises
ConfigError up front. Failures inside a stage raise StageError naming the
stage, except plain I/O errors which pass through untouched.
"""

from __future__ import annotations

import configparser
import gc
import logging
import time
from pathlib import Path

import numpy as np

from . import detectors, enhancers, features, loaders, masking
from .ngram import ngram_train
from .parsers import PARSERS, make_parser
from .tables import TokenColumn, split_train_test, validate_event_table

logger = logging.getLogger("logbench.pipeline")

CHAIN_STEPS = ("normalize", "tokenize", *PARSERS, "ngram", "aggregate")
FEATURE_SOURCES = ("words", "event_ids")
_PARSER_KEYS = {"drain": ("depth", "sim_threshold", "max_children"),
               "spell": ("tau",),
               "lenma": ("threshold",)}
# every section and key from_file reads; anything else is a ConfigError
_CONFIG_KEYS = {
    "loader": {"format", "log", "labels"},
    "enhance": {"chain", "rules", "ngram_n"}
    | {f"{kind}_{key}" for kind, keys in _PARSER_KEYS.items()
       for key in keys},
    "features": {"source", "binary", "min_count"},
    "detect": {"kind", "seed", "contamination", "oov_threshold"},
    "split": {"fraction", "seed"},
    "output": {"dir", "save_tables"},
}


class ConfigError(Exception):
    """The pipeline configuration is invalid; nothing was run."""


class StageError(Exception):
    """A pipeline stage failed while running."""

    def __init__(self, stage: str, original: BaseException):
        super().__init__(f"stage {stage!r} failed: {original}")
        self.stage = stage
        self.original = original


class PipelineConfig:
    """Validated settings for one pipeline run."""

    def __init__(self, loader_spec: loaders.LoaderSpec, chain: list[str],
                 out_dir: Path, rules_path: Path | None = None,
                 parser_params: dict | None = None, ngram_n: int = 2,
                 feature_source: str = "words",
                 binary_features: bool = False, min_count: int = 1,
                 detector: str = "dt", detector_seed: int = 0,
                 contamination: float = 0.03, oov_threshold: float = 0.0,
                 split_fraction: float = 0.5, split_seed: int = 0,
                 save_tables: bool = False):
        self.loader_spec = loader_spec
        self.chain = list(chain)
        self.out_dir = Path(out_dir)
        self.rules_path = Path(rules_path) if rules_path else None
        self.parser_params = dict(parser_params or {})
        self.ngram_n = ngram_n
        self.feature_source = feature_source
        self.binary_features = binary_features
        self.min_count = min_count
        self.detector = detector
        self.detector_seed = detector_seed
        self.contamination = contamination
        self.oov_threshold = oov_threshold
        self.split_fraction = split_fraction
        self.split_seed = split_seed
        self.save_tables = save_tables
        self.validate()

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        validate_chain(self.chain)
        fmt = self.loader_spec.format
        if fmt in loaders.SEQUENCE_LABEL_FORMATS \
                and "aggregate" not in self.chain:
            raise ConfigError(
                f"{fmt} labels whole sequences, not events: the chain "
                f"needs aggregate to evaluate")
        if self.feature_source not in FEATURE_SOURCES:
            raise ConfigError(
                f"feature source must be one of {FEATURE_SOURCES}")
        if self.feature_source == "event_ids" and \
                not any(s in PARSERS for s in self.chain):
            raise ConfigError("event_ids features require a parser")
        if self.feature_source == "words" and "tokenize" not in self.chain:
            raise ConfigError("words features require tokenize in the chain")
        if self.detector not in detectors.DETECTORS:
            raise ConfigError(
                f"detector must be one of {tuple(detectors.DETECTORS)}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError("split fraction must be in (0, 1)")
        if self.ngram_n < 2:
            raise ConfigError("ngram n must be at least 2")
        if not 0.0 <= self.contamination <= 1.0:
            raise ConfigError("contamination must be in [0, 1]")
        if self.min_count < 1:
            raise ConfigError("min_count must be at least 1")
        # the parser's own constructor checks its parameters
        for step in self.chain:
            if step in PARSERS:
                try:
                    make_parser(step, **self.parser_params.get(step, {}))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{step}: {exc}") from exc

    # -- parsing ----------------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(f"config file not found: {path}")
        unknown = _unknown_keys(parser)
        if unknown:
            raise ConfigError(f"{path}: unknown config "
                              f"{', '.join(unknown)}")
        try:
            return cls._from_parser(parser)
        except (configparser.Error, ValueError, KeyError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    @classmethod
    def _from_parser(cls, cp: configparser.ConfigParser) -> "PipelineConfig":
        if not cp.has_section("loader"):
            raise ConfigError("missing [loader] section")
        fmt = cp.get("loader", "format", fallback=None)
        log = cp.get("loader", "log", fallback=None)
        if not fmt or not log:
            raise ConfigError("[loader] needs format and log")
        labels = cp.get("loader", "labels", fallback=None)
        try:
            spec = loaders.LoaderSpec(fmt, Path(log),
                                      Path(labels) if labels else None)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        chain = parse_chain(cp.get("enhance", "chain", fallback=""))
        parser_params: dict = {}
        for kind, keys in _PARSER_KEYS.items():
            params = {}
            for key in keys:
                raw = cp.get("enhance", f"{kind}_{key}", fallback=None)
                if raw is not None:
                    params[key] = int(raw) if key in ("depth", "max_children") \
                        else float(raw)
            if params:
                parser_params[kind] = params

        return cls(
            loader_spec=spec,
            chain=chain,
            out_dir=Path(cp.get("output", "dir", fallback="out")),
            rules_path=cp.get("enhance", "rules", fallback=None),
            parser_params=parser_params,
            ngram_n=cp.getint("enhance", "ngram_n", fallback=2),
            feature_source=cp.get("features", "source", fallback="words"),
            binary_features=cp.getboolean("features", "binary",
                                          fallback=False),
            min_count=cp.getint("features", "min_count", fallback=1),
            detector=cp.get("detect", "kind", fallback="dt"),
            detector_seed=cp.getint("detect", "seed", fallback=0),
            contamination=cp.getfloat("detect", "contamination",
                                      fallback=0.03),
            oov_threshold=cp.getfloat("detect", "oov_threshold",
                                      fallback=0.0),
            split_fraction=cp.getfloat("split", "fraction", fallback=0.5),
            split_seed=cp.getint("split", "seed", fallback=0),
            save_tables=cp.getboolean("output", "save_tables",
                                      fallback=False),
        )


def _unknown_keys(cp: configparser.ConfigParser) -> list[str]:
    """Sections and keys of ``cp`` that from_file does not read.

    A [DEFAULT] key counts as read when some section reads a key of that
    name; it is not reported again under each section it is inherited by.
    configparser does not say whether a section also sets such a key
    itself, so a section key named like a [DEFAULT] key is checked only as
    the [DEFAULT] key.
    """
    defaults = cp.defaults()
    read_anywhere = set().union(*_CONFIG_KEYS.values())
    unknown = [f"[{cp.default_section}] {key}" for key in defaults
               if key not in read_anywhere]
    for section in cp.sections():
        known = _CONFIG_KEYS.get(section)
        if known is None:
            unknown.append(f"section [{section}]")
            continue
        unknown += [f"[{section}] {key}" for key in cp.options(section)
                    if key not in known and key not in defaults]
    return unknown


def load_rules(path) -> list[masking.MaskingRule] | None:
    """The masking rules in ``path``, or None (the built-in rules) for no
    path. A malformed file raises ConfigError naming the file and line."""
    if path is None:
        return None
    try:
        return masking.load_masking_rules(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def stage(name: str, timings: dict | None = None):
    """Context manager: time a stage, log its milliseconds, record them in
    ``timings`` when given, and wrap non-I/O failures in StageError.

    The cyclic garbage collector is paused inside the stage and put back as
    the caller had it on exit, errors included. Stages build many token
    lists, row lists and tuples that hold no reference cycles; with the
    collector on, each one is walked again by every collection of the
    generation it sits in, up to full collections of the whole heap.
    Reference counting still frees everything at once.
    """
    class _Stage:
        def __enter__(self):
            self.gc_was_enabled = gc.isenabled()
            gc.disable()
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            ms = (time.perf_counter() - self.start) * 1000.0
            if self.gc_was_enabled:
                gc.enable()
            logger.info("%s: %.1f ms", name, ms)
            if timings is not None:
                timings[name] = ms
            if exc is None or isinstance(exc, (OSError, StageError)):
                return False
            raise StageError(name, exc) from exc
    return _Stage()


def parse_chain(text: str) -> list[str]:
    """The steps of a chain's text, separated by commas, spaces or both."""
    return text.replace(",", " ").split()


def validate_chain(chain, allow_ngram: bool = True) -> None:
    """Raise ConfigError unless ``chain`` is a list of known steps, none
    repeated, with at most one parser. ``ngram`` needs a parser and
    ``aggregate``, and is refused where ``allow_ngram`` is off: it trains
    on the training split, which only a full pipeline run makes."""
    unknown = [s for s in chain if s not in CHAIN_STEPS]
    if unknown:
        raise ConfigError(f"unknown chain steps: {unknown}")
    if len(chain) != len(set(chain)):
        raise ConfigError("chain steps may not repeat")
    parsers_in_chain = [s for s in chain if s in PARSERS]
    if len(parsers_in_chain) > 1:
        raise ConfigError("at most one parser may be in the chain")
    if "ngram" in chain:
        if not allow_ngram:
            raise ConfigError("ngram trains on the training split; run it "
                              "with `logbench detect`")
        if not parsers_in_chain:
            raise ConfigError("ngram requires a parser in the chain")
        if "aggregate" not in chain:
            raise ConfigError("ngram requires aggregate in the chain")


def run_chain(events, chain, rules, parser_params=None, labels=None,
              timings=None):
    """Run the event steps of ``chain`` in order, each in its own stage,
    then ``aggregate`` when listed. ``ngram`` is skipped: run_pipeline
    trains it after the split.

    Returns (events, sequences, store): the enhanced event table, the
    sequence table (None without ``aggregate``; ``labels`` are joined onto
    it) and the parser's template store (None without a parser).
    """
    parser_params = parser_params or {}
    sequences = store = None
    for step in chain:
        if step in ("ngram", "aggregate"):
            continue
        with stage(step, timings):
            if step == "normalize":
                events = enhancers.add_normalized(events, rules)
            elif step == "tokenize":
                events = enhancers.add_tokens(events)
            else:
                parser = make_parser(step, **parser_params.get(step, {}))
                events = enhancers.add_event_ids(events, parser)
                store = parser.store
    if "aggregate" in chain:
        with stage("aggregate", timings):
            sequences = enhancers.aggregate_sequences(events, labels)
    return events, sequences, store


def run_pipeline(config: PipelineConfig) -> detectors.EvalReport:
    """Run the configured pipeline and write its artifacts.

    Writes report.json, report.csv and model.json into the output directory,
    plus templates.json when a parser ran, ngram_model.json when an ngram
    step ran, and the enhanced tables when save_tables is on. Returns the
    evaluation report.
    """
    config.validate()
    timings: dict[str, float] = {}
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)

    with stage("load", timings):
        events, sequences = loaders.load(config.loader_spec)
        report = validate_event_table(events)
        if not report.is_valid:
            logger.warning("validation: %s", report.summary())

    events, seq_table, store = run_chain(
        events, config.chain, load_rules(config.rules_path),
        config.parser_params, labels=sequences, timings=timings)
    if store is not None:
        store.save(out / "templates.json")
    if seq_table is not None and not config.save_tables:
        events = None  # no later stage reads the event table

    with stage("split", timings):
        working = seq_table if seq_table is not None else events
        train, test = split_train_test(working, config.split_fraction,
                                       config.split_seed)
        if len(train) == 0 or len(test) == 0:
            raise ValueError("split produced an empty side; "
                             "not enough data to evaluate")

    if "ngram" in config.chain:
        with stage("ngram", timings):
            model = ngram_train(train["event_ids"], n=config.ngram_n)
            model.save(out / "ngram_model.json")

    with stage("features", timings):
        train_docs = _documents(train, config)
        test_docs = _documents(test, config)
        vocab = features.fit_vocabulary(train_docs,
                                        min_count=config.min_count)
        X_train = features.vectorize(train_docs, vocab,
                                     binary=config.binary_features)
        X_test = features.vectorize(test_docs, vocab,
                                    binary=config.binary_features)

    with stage("train", timings):
        model, predictions, scores = _detect(config, train, X_train, X_test)
        detectors.save_model(model, out / "model.json")
    _warn_degenerate(train, test, X_test, predictions)

    with stage("evaluate", timings):
        if "label" not in test:
            raise ValueError(
                "evaluation needs labels; this loader provides none")
        eval_report = detectors.evaluate(predictions, test["label"],
                                         scores=scores)

    # the evaluate timing lands in `timings` only once its stage exits
    eval_report.wall_clock_ms = dict(timings)
    eval_report.save_json(out / "report.json")
    eval_report.save_csv(out / "report.csv")
    if config.save_tables:
        write_tables(out, events, seq_table, csv=True)
    logger.info("pipeline done: %r", eval_report)
    return eval_report


def write_tables(out: Path, events, sequences=None, csv: bool = False) -> None:
    """Save each table given as ``out/<name>.table.json``, and as
    ``out/<name>.csv`` too with ``csv``."""
    for name, table in (("events", events), ("sequences", sequences)):
        if table is not None:
            table.save(out / f"{name}.table.json")
            if csv:
                table.write_csv(out / f"{name}.csv")


def _warn_degenerate(train, test, X_test, predictions) -> None:
    """Log outcomes that leave the report without meaning; the run goes on
    and report.json is unchanged."""
    for side, table, outcome in (("training", train, ""),
                                 ("test", test, "; AUC is undefined")):
        if "label" in table:
            labels = np.asarray(table["label"], dtype=bool)
            if labels.all() or not labels.any():
                logger.warning("degenerate: %s has a single class (%s)%s",
                               side, "all anomalous" if labels.any()
                               else "all normal", outcome)
    if X_test.matrix.nnz == 0 and X_test.oov_counts.sum() > 0:
        logger.warning("degenerate: every test document is out of "
                       "vocabulary (%d terms, none in the %d-term "
                       "vocabulary)", int(X_test.oov_counts.sum()),
                       len(X_test.vocabulary))
    predictions = np.asarray(predictions, dtype=bool)
    if predictions.all():
        logger.warning("degenerate: all %d test rows predicted positive",
                       len(predictions))
    elif not predictions.any():
        logger.warning("degenerate: all %d test rows predicted negative",
                       len(predictions))


def _documents(table, config: PipelineConfig) -> TokenColumn:
    """The features stage's documents of ``table``, as a token column: its
    words, or its event ids as terms ``e<id>``, per sequence
    (``event_ids``) or per event (``e_event_id``)."""
    if config.feature_source == "words":
        # the token column itself: the featurizer does not mutate documents
        return table["words" if "words" in table else "e_words"]
    ids = TokenColumn.of(
        table["event_ids" if "event_ids" in table else "e_event_id"])
    return TokenColumn([f"e{e}" for e in ids.tokens], ids.codes,
                       ids.offsets, ids.rows)


def _detect(config: PipelineConfig, train, X_train, X_test):
    """Fit the configured detector, score the test matrix once and flag
    those scores. Returns (model, predictions, scores)."""
    cls = detectors.DETECTORS[config.detector]
    if cls.supervised and "label" not in train:
        raise ValueError(f"detector {config.detector!r} is supervised and "
                         f"needs labels")
    model = cls.from_settings(config.contamination, config.oov_threshold) \
        .fit(X_train, train["label"] if cls.supervised else None,
             seed=config.detector_seed)
    scores = model.score(X_test)
    return model, model.flag(scores), scores
