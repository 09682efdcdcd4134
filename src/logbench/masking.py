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

The chunk pass finds the distinct masked messages from their masked-chunk
codes, and renders their text only when it is read. It also keeps what it
needs to code their tokens on request (``CodedColumn.tokens``), splitting
each distinct masked chunk once.
"""

from __future__ import annotations

import re

import numpy as np

from .tables import (CodedColumn, TokenColumn, _first_seen_codes,
                     _first_seen_order, object_column)

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
    How it is computed depends on the rules and the messages:

    - When every rule is token-local and no message contains a newline, the
      distinct messages are split on single spaces, a block of them at a
      time, and each distinct chunk is masked once. Logs whose messages are
      nearly all distinct still share few chunks, so this is the fast path
      for the built-in rules.
      The distinct masked messages are found from their chunks' codes; the
      result renders them on first read, and its ``tokens`` codes them
      without splitting them again.
    - Otherwise each distinct message is masked once. When every rule is
      blob-safe and no message contains a newline, the rules run once over a
      newline-joined blob of the distinct messages; else a per-message loop.
    """
    if rules is None:
        rules = default_rules()
    text = _coded(messages).first_seen()
    if rules and all(r.token_local for r in rules):
        chunked = _normalize_chunks(text.dictionary, rules)
        if chunked is not None:
            render, entry_of, code = chunked
            return CodedColumn(render, entry_of[text.codes], code)
    dictionary, entry_of = _first_seen_codes(
        _normalize_distinct(text.dictionary, rules))
    return CodedColumn(dictionary, entry_of[text.codes])


def _normalize_chunks(msgs: list[str], rules: list[MaskingRule]):
    """Mask each distinct space-delimited chunk of ``msgs`` once.

    Every rule must be token-local. Returns, for the distinct masked
    messages, a function rendering them in first-seen order, each message's
    code among them (``entry_of``) and a function coding their tokens, one
    compact entry per distinct masked message; or None when a message
    contains a newline.

    A masked chunk holds no space, so a masked message is equal to another
    exactly when their sequences of masked-chunk codes are: the distinct
    masked messages are found from those codes, and only one message of
    each is rendered or split into tokens.
    """
    if not msgs:
        return None
    # the chunks are coded a block of messages at a time, in first-seen
    # order over all blocks: their strings are most of this pass's memory
    code_of, parts = {}, []
    for a in range(0, len(msgs), _CHUNK_BLOCK):
        block = msgs[a:a + _CHUNK_BLOCK]
        # each " \n " between messages leaves a chunk of its own, which
        # maps to itself: a rule that matches the empty string must not
        # rewrite it; a block after the first opens with the one before it
        text = ("\n " if a else "") + " \n ".join(block)
        if text.count("\n") != len(block) - (a == 0):
            return None
        chunks = text.split(" ")
        fresh = [c for c in dict.fromkeys(chunks) if c not in code_of]
        code_of.update(zip(fresh, range(len(code_of),
                                        len(code_of) + len(fresh))))
        parts.append(np.fromiter(map(code_of.__getitem__, chunks),
                                 dtype=np.int32, count=len(chunks)))
    vocab, ids = list(code_of), np.concatenate(parts)
    # here and below, what is no longer needed goes before the next large
    # array is built: on mostly distinct messages, this pass sets a
    # pipeline run's peak memory
    del code_of, chunks, parts
    # the first "\n" chunk ends the first message
    nl = vocab.index("\n") if len(msgs) > 1 else len(vocab)
    masked = _normalize_distinct(vocab[:nl] + vocab[nl + 1:], rules)
    masked.insert(nl, "\n")
    pieces, piece_of = _first_seen_codes(masked)
    # every message's masked-chunk codes, each run ended by the "\n" code
    # (the last run by one appended)
    run = np.append(piece_of[ids], piece_of[nl])
    bounds = np.concatenate(([0], np.flatnonzero(ids == nl) + 1, [len(run)]))
    # a message's key is its run as bytes
    keys, at = run.tobytes(), (bounds * run.itemsize).tolist()
    del ids
    keys = list(map(keys.__getitem__, map(slice, at[:-1], at[1:])))
    entry_of = _first_seen_codes(keys)[1]
    del keys
    # the first message of each distinct masked one stands for it
    kept, lengths = TokenColumn(pieces, run, bounds,
                                _first_seen_order(entry_of)[1]).flat()

    def render() -> list[str]:
        # the last run's "\n" is dropped; every other one splits two runs
        return " ".join(object_column(pieces)[kept[:-1]].tolist()) \
            .split(" \n ")

    def code() -> TokenColumn:
        # a message's tokens are its chunks' in order; "\n" has none
        return TokenColumn.of(map(split_tokens, pieces))[kept] \
            .concat(lengths)
    return render, entry_of, code


def _normalize_distinct(msgs: list[str], rules: list[MaskingRule]) -> list[str]:
    if msgs and rules and all(r.blob_safe for r in rules) \
            and not any("\n" in m for m in msgs):
        blob = "\n".join(msgs)
        for rule in rules:
            blob = rule.regex.sub(rule.token, blob)
        out = blob.split("\n")
        if len(out) == len(msgs):
            return out
        # a rule rewrote across what we thought were safe boundaries;
        # fall back to the exact path
    return [mask_one(m, rules) for m in msgs]


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
