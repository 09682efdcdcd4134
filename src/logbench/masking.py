"""Regex masking of volatile message fragments, plus whitespace tokenization.

Masking replaces things like addresses and counters with fixed placeholder
tokens before template mining, so that lines produced by the same code path
collapse onto one template. Rules apply in list order; the result is always
exactly what running each rule as a plain ``re.sub`` over the message gives
(``mask_one``).

Logs repeat heavily, and ``normalize`` exploits that at two grains. When
every rule is token-local (it can never match a space and behaves the same
at a space as at a string edge), a message is the space-joined masks of its
space-delimited chunks, so each distinct chunk of the column is masked once.
Otherwise each distinct message is masked once. Either way the result is a
``CodedColumn``: the distinct masked messages and each row's code, whose
cells are exactly ``[mask_one(m, rules) for m in messages]``.

The chunk pass codes each chunk in one dictionary probe, since nearly all
repeat one seen before; a message owns one chunk more than it has spaces,
and a chunk may hold newlines. It finds the distinct masked messages from
their masked-chunk codes, and renders their text only when it is read. It
also keeps what it needs to code their tokens on request
(``CodedColumn.tokens``), splitting each distinct masked chunk once.

Blob-safe rules run once over the distinct texts joined by newlines, and
each text takes its own lines back; only a rule that changes the blob's
line count sends the texts through ``mask_one`` one at a time.

A column cut at its keys (``CodedColumn.cut``: HDFS messages without the
chunk of their block id, plus those chunks) is masked by its parts: the
chunk pass runs over the distinct key-free messages and the distinct
keys, and each row's masked-chunk codes are its key-free message's with
its key's put back. The column's raw text is never built.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import accumulate, count, repeat

import numpy as np

from .tables import (CodedColumn, TokenColumn, _first_seen,
                     _first_seen_codes, object_column)

# messages whose chunks are split and coded at a time
_CHUNK_BLOCK = 4096

_TOKEN_RE = re.compile(r"^<[A-Za-z0-9_]+>$")
_LOOKAROUND_RE = re.compile(r"\(\?<?[=!]")

# Constructs that make it unsafe to join many messages with "\n" and run one
# sub over the blob: anchors that would bind to the blob instead of the line,
# anything that can match the \n separator itself (\s \D \W, negated
# classes, literal or escaped newlines, octal/hex escapes, inline flags), and
# \B, which never matches in an empty message but does match in the "\n\n"
# an empty message leaves in the blob. \b \d \w \S and the bare dot are
# fine: none of them can consume \n, and a word boundary falls next to \n
# exactly where one falls at a string edge. A rule that does consume a \n
# anyway changes the blob's line count, which ``_normalize_distinct`` checks.
_BLOB_UNSAFE_RE = re.compile(
    r"""
      \^ | \$
    | \\[AZsDWx0B]
    | \[\^
    | \n
    | \\n
    | \(\?(?!:)
    """,
    re.VERBOSE,
)

# Constructs that make a blob-safe rule unsafe to run on the space-delimited
# chunks of a message instead of on the whole message: anything that could
# match a space, namely a literal space, the bare dot, the escapes \N{...}
# \u \U, octal escapes and a class range starting below the space (\B is
# already blob-unsafe; inside the empty chunk a double space leaves, it
# behaves as in an empty message). \b is fine: a space is a non-word
# character, so a boundary falls next to it exactly where one falls at a
# chunk's edge. Backreferences look like octal escapes and are excluded too,
# conservatively.
_TOKEN_UNSAFE_RE = re.compile(
    r"""
      [ ]
    | (?<!\\)(?:\\\\)*\.
    | \\[NuU1-7]
    | (?:\\[abfrtv]|[\x00-\x1f])-
    """,
    re.VERBOSE,
)


class MaskingRule:
    """One substitution: a compiled regex and the placeholder it writes.

    Look-around constructs are rejected at construction time so that a bad
    rule file fails during configuration, never mid-run.
    """

    def __init__(self, pattern: str, token: str):
        if _LOOKAROUND_RE.search(pattern):
            raise ValueError(
                f"masking rule {token!r}: look-around is not supported")
        if not _TOKEN_RE.match(token):
            raise ValueError(
                f"masking token must look like <NAME>, got {token!r}")
        self.pattern = pattern
        self.token = token
        try:
            self.regex = re.compile(pattern)
        except re.error as exc:
            raise ValueError(
                f"masking rule {token!r}: bad pattern: {exc}") from exc
        # safe to apply over a newline-joined blob of messages?
        self.blob_safe = _BLOB_UNSAFE_RE.search(pattern) is None
        # safe to apply to each space-delimited chunk of a message alone?
        self.token_local = self.blob_safe \
            and _TOKEN_UNSAFE_RE.search(pattern) is None

    def apply(self, text: str) -> str:
        return self.regex.sub(self.token, text)

    def __repr__(self) -> str:
        return f"MaskingRule({self.pattern!r} -> {self.token})"


def default_rules() -> list[MaskingRule]:
    """Built-in rule set: IPv4 addresses, hex constants, decimal numbers.

    Order matters: the IP rule must run before the number rule eats the
    octets, and the hex rule only claims tokens that are unambiguously hex
    (0x prefix, or at least one a-f letter) so plain decimals fall through
    to <NUM>.
    """
    return [
        MaskingRule(r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "<IP>"),
        MaskingRule(
            r"\b(?:0[xX][0-9a-fA-F]+"
            r"|[0-9a-fA-F]*[a-fA-F][0-9a-fA-F]+"
            r"|[0-9a-fA-F]+[a-fA-F][0-9a-fA-F]*)\b",
            "<HEX>",
        ),
        MaskingRule(r"\b\d+\b", "<NUM>"),
    ]


def mask_one(text: str, rules: list[MaskingRule]) -> str:
    """Apply every rule, in order, to one message."""
    for rule in rules:
        text = rule.regex.sub(rule.token, text)
    return text


def _coded(messages) -> CodedColumn:
    """The messages as a coded column; a TypeError for a None message."""
    text = CodedColumn.of(messages)
    if len(text) and text.codes.min() < 0:
        raise TypeError("messages must be str, not None")
    return text


def normalize(messages, rules: list[MaskingRule] | None = None
              ) -> CodedColumn:
    """Apply masking rules to a whole message column.

    Returns a ``CodedColumn`` of the same length: the distinct masked
    messages in first-seen order and each row's code. Its cells are exactly
    ``[mask_one(m, rules) for m in messages]``, and the operation is
    idempotent for the built-in rules (placeholders do not match any rule).
    How it is computed depends on the rules:

    - When every rule is token-local, the distinct messages are split on
      single spaces, a block of them at a time, and each distinct chunk is
      masked once. Logs whose messages are nearly all distinct still share
      few chunks, so this is the fast path for the built-in rules.
      The distinct masked messages are found from their chunks' codes; the
      result renders them on first read, and its ``tokens`` codes them
      without splitting them again. A column cut at its keys
      (``CodedColumn.cut``, as ``load_hdfs`` builds its messages) takes
      this path over its parts: the distinct key-free messages and the
      distinct key chunks are split and masked, and each row's masked
      chunks are its key-free message's with its key's put back in place.
    - Otherwise each distinct message is masked once. When every rule is
      blob-safe, the rules run once over a newline-joined blob of the
      distinct messages; else a per-message loop.
    """
    if rules is None:
        rules = default_rules()
    token_local = rules and all(r.token_local for r in rules)
    # a cut column's codes are known before its text is rendered
    text = _coded(messages)
    if token_local and text.parts is not None:
        return CodedColumn(*_normalize_cut(*text.parts, rules))
    text = text.first_seen()
    if token_local:
        render, entry_of, code = _normalize_chunks(text.dictionary, rules)
        return CodedColumn(render, entry_of[text.codes], code)
    dictionary, entry_of = _first_seen_codes(
        _normalize_distinct(text.dictionary, rules))
    return CodedColumn(dictionary, entry_of[text.codes])


def _normalize_chunks(msgs: list[str], rules: list[MaskingRule]):
    """Mask each distinct space-delimited chunk of ``msgs`` once.

    Every rule must be token-local. Returns, for the distinct masked
    messages, a function rendering them in first-seen order, each message's
    code among them (``entry_of``) and a function coding their tokens, one
    compact entry per distinct masked message.

    A masked chunk holds no space, so a masked message is equal to another
    exactly when their sequences of masked-chunk codes are: the distinct
    masked messages are found from those codes, and only one message of
    each is rendered or split into tokens.
    """
    pieces, run, bounds = _chunk_runs(msgs, rules)
    # a message's key is its run as bytes
    entry_of = _first_seen_codes(_run_bytes(run, bounds))[1]
    # the first message of each distinct masked one stands for it
    kept, lengths = TokenColumn(pieces, run, bounds,
                                _first_seen(entry_of)[1]).flat()
    render, code = _masked(pieces, kept, lengths)
    return render, entry_of, code


def _run_bytes(run: np.ndarray, bounds: np.ndarray) -> list[bytes]:
    """Each run of codes, ``run[bounds[i]:bounds[i + 1]]``, as bytes."""
    blob, at = run.tobytes(), (bounds * run.itemsize).tolist()
    return list(map(blob.__getitem__, map(slice, at[:-1], at[1:])))


def _chunk_runs(msgs: list[str], rules: list[MaskingRule]):
    """The distinct masked chunks of ``msgs`` (``pieces``), every message's
    masked-chunk codes in one array (``run``), and where each message's
    codes start, plus the end (``bounds``). Message ``i`` owns
    ``msgs[i].count(" ") + 1`` chunks, which may hold newlines."""
    # the chunks are coded a block of messages at a time, in first-seen
    # order over all blocks: their strings are most of this pass's memory
    code_of, parts = defaultdict(count().__next__), [np.zeros(0, np.int32)]
    for a in range(0, len(msgs), _CHUNK_BLOCK):
        text = " ".join(msgs[a:a + _CHUNK_BLOCK])
        parts.append(np.fromiter(map(code_of.__getitem__, text.split(" ")),
                                 dtype=np.int32, count=text.count(" ") + 1))
    vocab, ids = list(code_of), np.concatenate(parts)
    # here and below, what is no longer needed goes before the next large
    # array is built: on mostly distinct messages, this pass sets a
    # pipeline run's peak memory
    del code_of, parts
    pieces, piece_of = _first_seen_codes(_normalize_distinct(vocab, rules))
    bounds = np.zeros(len(msgs) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(str.count, msgs, repeat(" ")), dtype=np.int64,
                          count=len(msgs)) + 1, out=bounds[1:])
    return pieces, piece_of[ids], bounds


def _normalize_cut(free: CodedColumn, keys: CodedColumn, at: np.ndarray,
                   pairs: np.ndarray, first: np.ndarray,
                   rules: list[MaskingRule]):
    """``_normalize_chunks`` of the column ``CodedColumn.cut(free, keys,
    at)``, whose rows' (free, at) pair codes are ``pairs``, pair ``p``
    first appearing at row ``first[p]``.

    The chunk pass runs over the distinct key-free messages and the
    distinct keys. A row's masked-chunk codes are its pair's run, the
    key-free message's codes with a hole (-1) in the chunk its key was cut
    from, and its key's code put in the hole. A row is coded by its shape,
    a run with at most one hole, and the code in the hole: its pair's run
    and its key's code, unless the run holds the masked chunk of some row's
    key. Then, so that rows holding one masked message share one shape,
    its own run has the hole at its first such chunk.

    Each key must be a whole chunk of its row: it holds no space and is
    cut at a chunk's edges, as ``load_hdfs`` cuts it. A row without a key,
    as ``load_hdfs`` keeps one that continuation lines were merged into,
    has no hole.
    """
    cells = free.dictionary
    pieces, run, bounds = _chunk_runs(cells + keys.dictionary, rules)
    n = len(pieces)
    # each pair's run, with a hole in the chunk its key was cut from
    free_of = free.codes[first]
    slot = np.array([-1 if a < 0 else cells[f].count(" ", 0, a) for f, a in
                     zip(free_of.tolist(), at[first].tolist())],
                    dtype=np.int64)
    flat, lengths = TokenColumn(pieces, run, bounds, free_of).flat()
    ends = np.cumsum(lengths)
    starts = ends - lengths
    flat[(starts + slot)[slot >= 0]] = -1
    # each row's code in its hole, its key's: a key is a message of one
    # chunk; a row without one holds -1
    key_piece = np.append(run[bounds[len(cells):-1]], -1)[keys.codes]
    is_key = np.zeros(n + 1, dtype=bool)
    is_key[key_piece] = True
    is_key[-1] = False  # the hole
    moved = np.flatnonzero(
        np.logical_or.reduceat(is_key[flat], starts)[pairs])
    runs, run_lengths = TokenColumn(pieces, flat, np.append(0, ends),
                                    pairs[moved]).flat()
    opens = np.cumsum(run_lengths) - run_lengths
    cut = slot[pairs[moved]]
    runs[(opens + cut)[cut >= 0]] = key_piece[moved][cut >= 0]
    hits = np.flatnonzero(is_key[runs])
    hole = hits[np.searchsorted(hits, opens)]
    key_piece[moved] = runs[hole]
    runs[hole] = -1
    # a row's shape: its pair's run, or its own
    shapes = np.concatenate((flat, runs))
    shape_bounds = np.concatenate(([0], ends,
                                   len(flat) + np.cumsum(run_lengths)))
    holes = np.concatenate((slot, hole - opens))
    shape = pairs.astype(np.int64)
    shape[moved] = len(first) + np.arange(len(moved))
    entry_of, rows = _first_seen(
        _first_seen_codes(_run_bytes(shapes, shape_bounds))[1][shape]
        .astype(np.int64) * (n + 1) + key_piece + 1)
    # the first row of each distinct masked message stands for it
    shape, key_piece = shape[rows], key_piece[rows]
    kept, lengths = TokenColumn(pieces, shapes, shape_bounds, shape).flat()
    fill = holes[shape] >= 0
    kept[(np.cumsum(lengths) - lengths + holes[shape])[fill]] = \
        key_piece[fill]
    render, code = _masked(pieces, kept, lengths)
    return render, entry_of, code


def _masked(pieces: list[str], kept: np.ndarray, lengths: np.ndarray):
    """The functions rendering and token-coding the masked messages whose
    masked-chunk codes ``kept`` holds, ``lengths[e]`` of them for message
    ``e``."""
    def render() -> list[str]:
        # a masked chunk may hold a newline: each message joins its own
        return _joined(" ", object_column(pieces)[kept].tolist(),
                       np.cumsum(lengths).tolist())

    def code() -> TokenColumn:
        # a message's tokens are its chunks' in order
        chunks = TokenColumn.of(map(split_tokens, pieces))
        return TokenColumn(chunks.tokens, chunks.codes, chunks.offsets,
                           kept).concat(lengths)
    return render, code


def _normalize_distinct(msgs: list[str], rules: list[MaskingRule]) -> list[str]:
    """``mask_one`` of each message. When every rule is blob-safe, the rules
    run once over the messages joined by newlines, and each message takes
    its own lines back: a blob-safe rule acts on a line as on a message.
    A rule that changed the blob's line count consumed a newline; then the
    messages are masked one at a time."""
    if msgs and rules and all(r.blob_safe for r in rules):
        blob = "\n".join(msgs)
        lines = blob.count("\n") + 1
        for rule in rules:
            blob = rule.regex.sub(rule.token, blob)
        out = blob.split("\n")
        if len(out) == lines:
            if lines == len(msgs):
                return out
            return _joined("\n", out, list(accumulate(
                m.count("\n") + 1 for m in msgs)))
    return [mask_one(m, rules) for m in msgs]


def _joined(sep: str, items: list, ends: list[int]) -> list[str]:
    """``sep.join`` of each run of ``items``: run ``i`` ends before
    ``ends[i]`` and starts where run ``i - 1`` ends, the first at 0."""
    return list(map(sep.join, map(items.__getitem__,
                                  map(slice, [0] + ends[:-1], ends))))


_WS_RE = re.compile(r"[ \t\r\n\f\v]+")


def split_tokens(text: str) -> list[str]:
    """Split one message on runs of ``[ \\t\\r\\n\\f\\v]``, dropping empty
    tokens. ``str.split`` would also split at ``\\x1c``-``\\x1f``."""
    if text.isascii() and not ("\x1f" in text or "\x1e" in text
                               or "\x1d" in text or "\x1c" in text):
        return text.split()
    return [p for p in _WS_RE.split(text) if p]


def token_column(messages, rules: list[MaskingRule] | None = None
                 ) -> TokenColumn:
    """``split_tokens`` of every message, masked by ``rules`` first when
    given, as codes: each distinct message is masked and split once and
    rows with equal messages share its entry. Without ``rules``, a
    ``normalize`` result gives the token column its masking pass kept."""
    text = _coded(messages)
    if not rules and text.tokens is not None:
        return text.tokens
    distinct = text.dictionary
    if rules:
        distinct = [mask_one(m, rules) for m in distinct]
    entries = TokenColumn.of(map(split_tokens, distinct))
    return TokenColumn(entries.tokens, entries.codes, entries.offsets,
                       text.codes)


def tokenize(messages) -> list[list[str]]:
    """``split_tokens`` of each message; equal messages share one list."""
    return token_column(messages).tolist()


def load_masking_rules(path) -> list[MaskingRule]:
    """Read rules from a text file, one ``PATTERN<TAB><TOKEN>`` per line.

    Blank lines and lines starting with ``#`` are ignored. A malformed line
    or an invalid pattern raises ValueError with the line number.
    """
    rules = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if "\t" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected PATTERN<TAB><TOKEN>")
            pattern, _, token = line.rpartition("\t")
            try:
                rules.append(MaskingRule(pattern, token.strip()))
            except (ValueError, re.error) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return rules


def save_masking_rules(rules: list[MaskingRule], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for rule in rules:
            f.write(f"{rule.pattern}\t{rule.token}\n")
