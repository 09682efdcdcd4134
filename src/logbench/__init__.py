"""logbench: columnar log loading, template mining and anomaly detection.

The package is organized as a pipeline of small layers:

tables     columnar EventTable / SequenceTable, validation, splitting
loaders    raw, hdfs, bgl-family and hadoop readers
masking    regex masking rules and whitespace tokenization
parsers    Drain, Spell and LenMa template miners
ngram      next-event models over event id sequences
enhancers  derived columns and sequence aggregation
features   vocabularies and sparse count matrices
detectors  supervised / unsupervised detectors and evaluation
synth      seeded synthetic corpora and log files
bench      paired timings of the paper's two speed claims
pipeline   INI-configured end-to-end runs
cli        the ``logbench`` command
"""

from .tables import (EventTable, SequenceTable, Table, ValidationReport,
                     split_train_test, validate_event_table)
from .loaders import (LoaderSpec, load, load_hadoop, load_hdfs, load_raw,
                      load_supercomputer)
from .masking import (MaskingRule, default_rules, load_masking_rules,
                      normalize, tokenize)
from .parsers import DrainParser, LenMaParser, SpellParser, TemplateStore
from .ngram import NGramModel, ngram_score, ngram_train
from .enhancers import (add_event_ids, add_ngram_scores, add_normalized,
                        add_tokens, aggregate_sequences)
from .features import FeatureMatrix, Vocabulary, fit_vocabulary, vectorize
from .detectors import (DecisionTreeDetector, EvalReport,
                        IsolationForestDetector, KMeansDetector,
                        LogisticRegressionDetector, OOVDetector,
                        RarityDetector, auc_roc, evaluate, load_model,
                        save_model, scores_to_labels, train_supervised,
                        train_unsupervised)
from .synth import (generate_synthetic, make_sequence_dataset,
                    make_template_corpus)
from .bench import BenchReport, bench_loading, bench_masking_offload
from .pipeline import ConfigError, PipelineConfig, StageError, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "EventTable", "SequenceTable", "Table", "ValidationReport",
    "split_train_test", "validate_event_table",
    "LoaderSpec", "load", "load_hadoop", "load_hdfs", "load_raw",
    "load_supercomputer",
    "MaskingRule", "default_rules", "load_masking_rules", "normalize",
    "tokenize",
    "DrainParser", "LenMaParser", "SpellParser", "TemplateStore",
    "NGramModel", "ngram_score", "ngram_train",
    "add_event_ids", "add_ngram_scores", "add_normalized", "add_tokens",
    "aggregate_sequences",
    "FeatureMatrix", "Vocabulary", "fit_vocabulary", "vectorize",
    "DecisionTreeDetector", "EvalReport", "IsolationForestDetector",
    "KMeansDetector", "LogisticRegressionDetector", "OOVDetector",
    "RarityDetector", "auc_roc", "evaluate", "load_model", "save_model",
    "scores_to_labels", "train_supervised", "train_unsupervised",
    "generate_synthetic", "make_sequence_dataset", "make_template_corpus",
    "BenchReport", "bench_loading", "bench_masking_offload",
    "ConfigError", "PipelineConfig", "StageError", "run_pipeline",
    "__version__",
]
