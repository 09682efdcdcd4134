"""Seeded synthetic log generation.

Three layers, each driven by one seeded stdlib ``random.Random``:

* :func:`make_template_corpus` builds an in-memory corpus of messages with
  known template structure, for exercising and validating template miners.
* :func:`make_sequence_dataset` builds labeled event and sequence tables in
  memory; anomalous sequences carry both learnable fault tokens and a token
  unique to the sequence, and every normal sequence covers the full normal
  vocabulary, so vocabulary-based detectors behave predictably under any
  train/test split.
* :func:`generate_synthetic` writes loadable log files (bgl or hdfs layout)
  of arbitrary size plus truth sidecars, streaming so multi-million-line
  files do not need proportional memory.

Corpus structure: templates within a corpus have pairwise distinct token
counts, the first two tokens of a template are constants unique to it, and
parameter slots sit at positions two onward, always fewer than half of the
positions, with fixed-width value pools. That keeps the templates cleanly
recoverable by count-, prefix- and subsequence-based miners alike.

What the bytes depend on: the seed's Mersenne Twister output
(``getrandbits``, and ``random()``, whose floats Python keeps stable for a
seed) and :func:`_below`, the one rule by which every ``choice``,
``randrange`` and ``randint`` here draws from it. Two stdlib algorithms
remain, ``Random.sample`` (the templates' token counts, parameter positions
and value pools, and which sequences :func:`make_sequence_dataset` makes
anomalous) and ``Random.shuffle`` (the line order of
:func:`make_template_corpus` and each sequence's template order). Python
does not promise that those two draw alike across releases; the sha256 pins
in ``tests/test_synth.py`` would show it if they ever did not.
"""

from __future__ import annotations

import random
from datetime import date as _date
from pathlib import Path

import numpy as np

from .tables import EventTable, SequenceTable

_WORDS = [
    "accept", "alloc", "attach", "batch", "buffer", "cache", "channel",
    "client", "close", "commit", "config", "daemon", "detach", "device",
    "disk", "driver", "entry", "error", "fetch", "flush", "frame", "group",
    "handle", "index", "init", "input", "kernel", "link", "lookup", "merge",
    "mount", "node", "offset", "open", "packet", "page", "probe", "queue",
    "read", "ready", "reply", "report", "request", "retry", "route",
    "scan", "send", "server", "session", "slot", "socket", "start", "state",
    "status", "sync", "table", "thread", "timer", "update", "worker",
    "write",
]

FORMATS = ("bgl", "hdfs")


def _build_templates(rng: random.Random, n_templates: int):
    """Templates as token lists with None at parameter slots, plus pools.

    Token counts are sampled without replacement from 5..14, so a corpus can
    hold at most 10 templates. Constant tokens carry the template index as a
    suffix, which keeps the templates disjoint in vocabulary.
    """
    if not 1 <= n_templates <= 10:
        raise ValueError("n_templates must be in 1..10")
    counts = rng.sample(range(5, 15), n_templates)
    templates = []
    pools = []
    for t, length in enumerate(counts):
        # strictly fewer parameters than half the positions: a message then
        # shares fewer tokens with any other template (even counting masked
        # placeholders) than a half-length subsequence, so no miner that
        # requires half-overlap can merge across templates
        n_params = 1 + _below(max(1, (length - 1) // 2), rng.getrandbits)
        param_positions = set(rng.sample(range(2, length), n_params))
        tokens: list = []
        slot_pools: dict[int, list[str]] = {}
        for i in range(length):
            if i in param_positions:
                tokens.append(None)
                kind = ("num", "hex", "ip", "tok")[_below(4, rng.getrandbits)]
                pool = []
                for v in rng.sample(range(100), 6):
                    if kind == "num":
                        pool.append(str(10000 + t * 1000 + i * 100 + v))
                    elif kind == "hex":
                        pool.append(f"0x{t * 4096 + i * 256 + v:04x}")
                    elif kind == "ip":
                        pool.append(f"10.{t}.{i}.{v:02d}")
                    else:
                        pool.append(f"u{t}s{i}v{v:02d}")
                slot_pools[i] = pool
            else:
                word = _WORDS[_below(len(_WORDS), rng.getrandbits)]
                tokens.append(f"{word}_{t}")
        templates.append(tokens)
        pools.append(slot_pools)
    return templates, pools


def _below(n: int, getrandbits) -> int:
    """A uniform draw from ``range(n)``, ``n > 0``:
    ``getrandbits(n.bit_length())``, drawn again while it reaches ``n``, as
    CPython 3.11's ``Random._randbelow_with_getrandbits`` draws. Every
    ``choice``, ``randrange`` and ``randint`` here is this draw."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _compile(template, slot_pools):
    """A template as a ``%`` format string with a ``%s`` per parameter slot
    (a literal ``%`` escaped), and the slots' value pools in order."""
    fmt = " ".join("%s" if tok is None else tok.replace("%", "%%")
                   for tok in template)
    return fmt, [slot_pools[i] for i, tok in enumerate(template)
                 if tok is None]


def _message(compiled, getrandbits) -> str:
    """One message: a value drawn from each slot's pool, left to right."""
    fmt, slots = compiled
    values = []
    for pool in slots:
        values.append(pool[_below(len(pool), getrandbits)])
    return fmt % tuple(values)


def make_template_corpus(n_templates: int, n_lines: int, seed: int) -> dict:
    """A corpus with known template ids.

    Every template occurs at least once as long as n_lines >= n_templates.
    Returns a dict with ``messages``, ``template_ids`` and ``templates``
    (token lists with None marking parameter slots).
    """
    if n_lines < 1:
        raise ValueError("n_lines must be positive")
    rng = random.Random(seed)
    bits = rng.getrandbits
    templates, pools = _build_templates(rng, n_templates)
    compiled = list(map(_compile, templates, pools))
    ids = list(range(min(n_templates, n_lines)))
    ids += [_below(n_templates, bits) for _ in range(n_lines - len(ids))]
    rng.shuffle(ids)
    messages = [_message(compiled[t], bits) for t in ids]
    return {"messages": messages, "template_ids": ids,
            "templates": templates}


def make_sequence_dataset(n_sequences: int = 300, n_templates: int = 6,
                          anomaly_rate: float = 0.15, seed: int = 0):
    """Labeled (events, sequences) tables for detector benchmarks.

    Every sequence contains at least one event of every normal template, so
    the normal vocabulary of any train subset covers every normal test
    sequence. Anomalous sequences additionally contain one or two fault
    events whose tokens mix two constant markers with a token unique to the
    sequence; the unique token can never occur in training data, the constant
    markers make the anomalies learnable from counts.
    """
    if not 0.0 <= anomaly_rate <= 1.0:
        raise ValueError("anomaly_rate must be in [0, 1]")
    rng = random.Random(seed)
    bits = rng.getrandbits
    compiled = list(map(_compile, *_build_templates(rng, n_templates)))
    n_anomalous = round(anomaly_rate * n_sequences)
    anomalous = set(rng.sample(range(n_sequences), n_anomalous))

    seq_ids, seq_labels, seq_lens = [], [], []
    ev_seq, ev_msg, ev_ts = [], [], []
    epoch_us = 1254312000 * 1_000_000
    for s in range(n_sequences):
        sid = f"seq_{s:05d}"
        order = list(range(n_templates))
        rng.shuffle(order)
        order += [_below(n_templates, bits)
                  for _ in range(_below(5, bits))]
        events = [_message(compiled[t], bits) for t in order]
        if s in anomalous:
            for j in range(1 + _below(2, bits)):
                unique = f"q{s}z{j}q"
                events.insert(_below(len(events) + 1, bits),
                              f"fault_marker burst_marker {unique}")
        for msg in events:
            ev_seq.append(sid)
            ev_msg.append(msg)
            ev_ts.append(epoch_us)
            epoch_us += 1_000_000
        seq_ids.append(sid)
        seq_labels.append(s in anomalous)
        seq_lens.append(len(events))

    events = EventTable({
        "seq_id": ev_seq,
        "m_message": ev_msg,
        "m_timestamp": np.asarray(ev_ts, dtype=np.int64)
            .view(np.dtype("datetime64[us]")),
    }, meta={"source": f"synthetic(seed={seed})"})
    sequences = SequenceTable({
        "seq_id": seq_ids,
        "label": np.asarray(seq_labels, dtype=bool),
        "seq_len": np.asarray(seq_lens, dtype=np.int64),
    })
    return events, sequences


_FAULT = _compile(["fault_marker", "machine", "check", "interrupt", None],
                  {4: [f"0x{v:06x}" for v in range(16, 22)]})


# two-digit hours, minutes and seconds
_TWO = tuple(f"{v:02d}" for v in range(60))


def _bgl_day_strings(day: int):
    d = _date.fromordinal(day + _date(1970, 1, 1).toordinal())
    return (f"{d.year}.{d.month:02d}.{d.day:02d}",
            f"{d.year}-{d.month:02d}-{d.day:02d}")


def generate_synthetic(out_dir, format: str = "bgl", n_templates: int = 8,
                       n_lines: int = 10000, anomaly_rate: float = 0.0,
                       seed: int = 0, name: str | None = None) -> dict:
    """Write a synthetic log in a loadable layout, streaming.

    For ``bgl`` the output is ``<name>.log`` plus ``<name>_truth.csv``
    (``line,template_id,label``); anomalous lines use a dedicated fault
    template and a non ``-`` alert tag. For ``hdfs`` the output adds
    ``<name>_labels.csv`` (``BlockId,Label``) and the block id rides at the
    end of each message. Returns the paths. Same arguments, same bytes.
    """
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    if not 0.0 <= anomaly_rate <= 1.0:
        raise ValueError("anomaly_rate must be in [0, 1]")
    if n_lines < 1:
        raise ValueError("n_lines must be positive")
    rng = random.Random(seed)
    compiled = list(map(_compile, *_build_templates(rng, n_templates)))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = name or f"synthetic_{format}_{n_lines}"
    log_path = out_dir / f"{stem}.log"
    truth_path = out_dir / f"{stem}_truth.csv"

    if format == "bgl":
        _write_bgl(log_path, truth_path, compiled, rng, n_lines,
                   anomaly_rate)
        return {"log": log_path, "truth": truth_path, "labels": None}
    labels_path = out_dir / f"{stem}_labels.csv"
    _write_hdfs(log_path, truth_path, labels_path, compiled, rng, n_lines,
                anomaly_rate)
    return {"log": log_path, "truth": truth_path, "labels": labels_path}


_CHUNK = 100_000


def _write_bgl(log_path, truth_path, compiled, rng, n_lines,
               anomaly_rate) -> None:
    bits = rng.getrandbits
    n_templates = len(compiled)
    nodes = [f"R{_below(64, bits):02d}-M{_below(4, bits)}-N{_below(8, bits)}"
             for _ in range(12)]
    micros = [f"{v:06d}" for v in range(min(n_lines, 997))]
    base_epoch = 1117838570
    datestr, datedash = _bgl_day_strings(base_epoch // 86400)
    lines: list[str] = []
    truth: list[str] = ["line,template_id,label"]
    with open(log_path, "w", encoding="utf-8", newline="\n") as logf, \
            open(truth_path, "w", encoding="utf-8", newline="\n") as truthf:
        for i in range(n_lines):
            epoch = base_epoch + i
            sec = epoch % 86400
            if not sec:
                datestr, datedash = _bgl_day_strings(epoch // 86400)
            if anomaly_rate and rng.random() < anomaly_rate:
                tid = n_templates
                alert = "FAULT"
                level = "FATAL"
                msg = _message(_FAULT, bits)
                truth.append(f"{i},{tid},1")
            else:
                tid = _below(n_templates, bits)
                alert = "-"
                level = "INFO"
                msg = _message(compiled[tid], bits)
                truth.append(f"{i},{tid},0")
            node = nodes[i % len(nodes)]
            lines.append(f"{alert} {epoch} {datestr} {node} {datedash}-"
                         f"{_TWO[sec // 3600]}.{_TWO[sec // 60 % 60]}."
                         f"{_TWO[sec % 60]}.{micros[i % 997]} {node} "
                         f"RAS KERNEL {level} {msg}")
            if len(lines) >= _CHUNK:
                logf.write("\n".join(lines))
                logf.write("\n")
                truthf.write("\n".join(truth))
                truthf.write("\n")
                lines, truth = [], []
        if lines:
            logf.write("\n".join(lines))
            logf.write("\n")
        if truth:
            truthf.write("\n".join(truth))
            truthf.write("\n")


def _write_hdfs(log_path, truth_path, labels_path, compiled, rng, n_lines,
                anomaly_rate) -> None:
    bits = rng.getrandbits
    n_templates = len(compiled)
    components = ["dfs.DataNode$PacketResponder", "dfs.FSNamesystem",
                  "dfs.DataNode$DataXceiver", "dfs.DataBlockScanner"]
    lines: list[str] = []
    truth: list[str] = ["line,template_id,label"]
    label_rows: list[str] = ["BlockId,Label"]
    written = 0
    seq_index = 0
    with open(log_path, "w", encoding="utf-8", newline="\n") as logf, \
            open(truth_path, "w", encoding="utf-8", newline="\n") as truthf:
        while written < n_lines:
            block = f"blk_{10**9 + _below(9 * 10**9, bits)}"
            anomalous = bool(anomaly_rate) and rng.random() < anomaly_rate
            events = []
            for _ in range(4 + _below(9, bits)):
                tid = _below(n_templates, bits)
                events.append((tid, _message(compiled[tid], bits)))
            if anomalous:
                for j in range(1 + _below(2, bits)):
                    events.insert(_below(len(events) + 1, bits),
                                  (n_templates, "fault_marker burst_marker "
                                   f"q{seq_index}z{j}q"))
            label_rows.append(f"{block},{'Anomaly' if anomalous else 'Normal'}")
            label = int(anomalous)
            for tid, msg in events[:n_lines - written]:
                sec = written % 86400
                lines.append(f"081109 {_TWO[sec // 3600]}"
                             f"{_TWO[sec // 60 % 60]}{_TWO[sec % 60]} "
                             f"{written % 9000 + 100} INFO "
                             f"{components[written % len(components)]}: "
                             f"{msg} {block}")
                truth.append(f"{written},{tid},{label}")
                written += 1
            seq_index += 1
            if len(lines) >= _CHUNK:
                logf.write("\n".join(lines))
                logf.write("\n")
                truthf.write("\n".join(truth))
                truthf.write("\n")
                lines, truth = [], []
        if lines:
            logf.write("\n".join(lines))
            logf.write("\n")
        if truth:
            truthf.write("\n".join(truth))
            truthf.write("\n")
    with open(labels_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(label_rows))
        f.write("\n")
