"""Regex masking of volatile message fragments, plus whitespace tokenization.

Masking replaces things like addresses and counters with fixed placeholder
tokens before template mining, so that lines produced by the same code path
collapse onto one template. Rules apply in list order and each rule runs a
plain ``re.sub`` over the message.

Logs repeat heavily, so ``normalize`` masks each distinct message of a
column once and maps the result back to every row; the output is exactly
``[mask_one(m, rules) for m in messages]``.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"^<[A-Za-z0-9_]+>$")
_LOOKAROUND_RE = re.compile(r"\(\?<?[=!]")

# Constructs that make it unsafe to join many messages with "\n" and run one
# sub over the blob: anchors that would bind to the blob instead of the line,
# and anything that can match the \n separator itself (\s \D \W, negated
# classes, literal or escaped newlines, octal/hex escapes, inline flags).
# \b \B \d \w \S and the bare dot are fine: none of them can consume \n and
# word boundaries behave the same next to \n as at string edges.
_BLOB_UNSAFE_RE = re.compile(
    r"""
      \^ | \$
    | \\[AZsDWx0]
    | \[\^
    | \n
    | \\n
    | \(\?(?!:)
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


def normalize(messages, rules: list[MaskingRule] | None = None) -> list[str]:
    """Apply masking rules to a whole message column.

    Returns a new list of the same length; input order is preserved and the
    operation is idempotent for the built-in rules (placeholders do not match
    any rule). Masking is a pure function of the message, so each distinct
    message is masked once and the result is mapped back to every row that
    repeats it. When every rule is blob-safe and no message contains a
    newline, the rules run once over a newline-joined blob of the distinct
    messages, which is much faster than a per-message loop; otherwise it
    falls back to the loop with identical results.
    """
    if rules is None:
        rules = default_rules()
    msgs = list(messages)
    distinct = list(dict.fromkeys(msgs))
    masked = _normalize_distinct(distinct, rules)
    if len(distinct) == len(msgs):
        return masked
    lookup = dict(zip(distinct, masked))
    return [lookup[m] for m in msgs]


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


_NONASCII_WS_RE = re.compile(r"[ \t\r\n\f\v]+")


def split_tokens(text: str) -> list[str]:
    """Split one message on runs of ASCII whitespace, dropping empty tokens."""
    if text.isascii():
        return text.split()
    parts = _NONASCII_WS_RE.split(text)
    return [p for p in parts if p]


def tokenize(messages) -> list[list[str]]:
    """Token lists for a message column (ASCII whitespace splitting).

    Each list is copied to its exact size: ``str.split`` leaves room for 12
    tokens, which a table of short messages would keep for its lifetime.
    """
    return [list(split_tokens(m)) for m in messages]


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
