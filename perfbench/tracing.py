"""Span tracing for the traced pass, installed from outside the package.

The tracer replaces the public callables that ``run_pipeline`` looks up
(module attributes and class methods) with wrappers that record one span
per call: pass number, name, start, end and parent span. Spans live in
memory until the run ends. A span's self time is its duration minus the
time covered by its direct children, so a call nested in another call of
the same name (``predict`` calling ``score``) is not counted twice.

Nothing here edits ``logbench``: ``install`` swaps attributes and
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict

# Layers whose peak memory is sampled while one of their spans is open.
_RSS_LAYER = "detectors."
_RSS_INTERVAL_S = 0.002
_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def current_rss_bytes() -> int:
    """Resident set size of this process, read from /proc/self/statm."""
    with open("/proc/self/statm", "rb") as f:
        return int(f.read().split()[1]) * _PAGE_BYTES


class _RssSampler:
    """Highest RSS seen by a background thread while started."""

    def __init__(self):
        self._stop = threading.Event()
        self._thread = None
        self.peak = 0

    def start(self) -> None:
        self._stop.clear()
        self.peak = max(self.peak, current_rss_bytes())
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(_RSS_INTERVAL_S):
            self.peak = max(self.peak, current_rss_bytes())

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, current_rss_bytes())


class Tracer:
    """In-memory spans plus per-pass counters for traced pipeline passes."""

    def __init__(self):
        # each span: [pass, name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pass = -1
        self._open_rss_spans = 0
        self._rss = _RssSampler()
        self._rss_before = None
        self.counts: dict = {}
        # time spent computing counters, kept out of every layer's time
        self.bookkeeping_s = 0.0
        self._saved: list[tuple] = []

    # -- passes -----------------------------------------------------------

    def begin_pass(self) -> None:
        self._pass += 1
        self.counts = defaultdict(int)
        self.bookkeeping_s = 0.0
        self._rss_before = None
        self._rss.peak = 0
        self._stack = [self._open("pipeline.pass")]

    def end_pass(self) -> None:
        self._close(self._stack.pop())

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._pass, name, time.perf_counter(), None,
                           parent])
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """A callable that runs ``fn`` inside a span called ``name``.

        ``count(counts, result, args)`` runs after the span closes and its
        cost goes to ``bookkeeping_s``.
        """
        rss = name.startswith(_RSS_LAYER)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rss:
                self._enter_rss_span()
            idx = self._open(name)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._stack.pop()
                if rss:
                    self._exit_rss_span()
            if count is not None:
                t0 = time.perf_counter()
                count(self.counts, result, args)
                self.bookkeeping_s += time.perf_counter() - t0
            return result
        return traced

    def _enter_rss_span(self) -> None:
        if self._open_rss_spans == 0:
            if self._rss_before is None:
                self._rss_before = current_rss_bytes()
            self._rss.start()
        self._open_rss_spans += 1

    def _exit_rss_span(self) -> None:
        self._open_rss_spans -= 1
        if self._open_rss_spans == 0:
            self._rss.stop()

    def rss_delta_bytes(self) -> int:
        """Peak RSS inside detector spans minus RSS before the first one."""
        if self._rss_before is None:
            return 0
        return max(0, self._rss.peak - self._rss_before)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering the original for ``uninstall``."""
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_times(self, pass_index: int) -> dict[str, float]:
        """Summed self time in seconds per span name, for one pass."""
        child_time: dict[int, float] = defaultdict(float)
        own = [(i, s) for i, s in enumerate(self.spans) if s[0] == pass_index]
        for _, (_, _, start, end, parent) in own:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (_, name, start, end, _) in own:
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def span_records(self) -> list[dict]:
        return [{"pass": p, "name": name, "start": start, "end": end,
                 "parent": parent}
                for p, name, start, end, parent in self.spans]


# ---------------------------------------------------------------------------
# where run_pipeline looks things up


def _count_rows(counts, result, args):
    counts["loaders.rows"] += len(result[0])


def _count_masking(counts, result, args):
    messages = args[0]
    counts["masking.rows"] += len(messages)
    counts["masking.distinct"] += len(set(messages))


def _count_sequences(counts, result, args):
    counts["enhancers.sequences"] += len(result)


def _count_vocab(counts, result, args):
    counts["features.vocab_size"] = len(result)


def _count_nnz(counts, result, args):
    counts["features.nnz"] += int(result.matrix.nnz)


def install(tracer: Tracer) -> None:
    """Wrap the layer calls of ``run_pipeline`` and of the table reload."""
    from logbench import (detectors, enhancers, features, loaders, masking,
                          pipeline, tables)

    t = tracer
    t.patch(loaders, "load", t.wrap("loaders.load", loaders.load,
                                    _count_rows))
    t.patch(pipeline, "validate_event_table",
            t.wrap("tables.validate", pipeline.validate_event_table))
    t.patch(masking, "normalize", t.wrap("masking.normalize",
                                         masking.normalize, _count_masking))
    t.patch(enhancers, "add_tokens", t.wrap("enhancers.add_tokens",
                                            enhancers.add_tokens))
    t.patch(enhancers, "aggregate_sequences",
            t.wrap("enhancers.aggregate", enhancers.aggregate_sequences,
                   _count_sequences))
    t.patch(enhancers, "add_ngram_scores",
            t.wrap("ngram.score", enhancers.add_ngram_scores))
    t.patch(pipeline, "ngram_train", t.wrap("ngram.train",
                                            pipeline.ngram_train))
    t.patch(pipeline, "split_train_test",
            t.wrap("tables.split", pipeline.split_train_test))

    make_parser = pipeline.make_parser

    def traced_make_parser(*args, **kwargs):
        parser = make_parser(*args, **kwargs)

        def count_templates(counts, result, args):
            counts["parsers.templates"] = len(parser.store)
        parser.parse = t.wrap("parsers.parse", parser.parse, count_templates)
        return parser
    t.patch(pipeline, "make_parser", traced_make_parser)

    t.patch(features, "fit_vocabulary",
            t.wrap("features.fit", features.fit_vocabulary, _count_vocab))
    t.patch(features, "vectorize",
            t.wrap("features.vectorize", features.vectorize, _count_nnz))

    for fn_name, span in (("train_supervised", "detectors.fit"),
                          ("train_unsupervised", "detectors.fit"),
                          ("scores_to_labels", "detectors.score"),
                          ("evaluate", "detectors.evaluate")):
        t.patch(detectors, fn_name,
                t.wrap(span, getattr(detectors, fn_name)))
    for cls in (detectors.LogisticRegressionDetector,
                detectors.DecisionTreeDetector, detectors.KMeansDetector,
                detectors.IsolationForestDetector, detectors.OOVDetector,
                detectors.RarityDetector):
        for method, span in (("fit", "detectors.fit"),
                             ("score", "detectors.score"),
                             ("predict", "detectors.score")):
            if method in cls.__dict__:
                t.patch(cls, method, t.wrap(span, cls.__dict__[method]))

    table = tables.Table
    for method, span in (("save", "tables.save"),
                         ("write_csv", "tables.write_csv")):
        t.patch(table, method, t.wrap(span, table.__dict__[method]))
    t.patch(table, "load", classmethod(
        t.wrap("tables.load", table.__dict__["load"].__func__)))
