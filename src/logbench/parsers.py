"""Streaming log template miners: Drain, Spell and LenMa.

All three parsers consume messages one at a time, assign each message a dense
integer event id (first-seen order, starting at 0) and maintain a store of
templates in which volatile positions are replaced by the wildcard token
``<*>``. Parsing can continue across calls with the same parser object; the
template store only ever grows.

Masked placeholder tokens such as ``<IP>`` are ordinary tokens here. A parser
can optionally run masking rules itself (``masking_rules=...``), which is the
expensive way to do it; the intended flow masks the whole column once with
``masking.normalize`` and feeds the parser clean text.

``parse`` mines each distinct message once while the parser state stands
still. ``parse_one`` is a deterministic function of the parser state and the
message, and it bumps a state version at every point where it changes what
a later match reads: a new cluster, a Drain template token turned into a
wildcard, a new Spell template and state, a new LenMa length vector. Cluster
counts never influence a decision. So while the version is
unchanged, a message seen before gets the same event id, and ``parse`` takes
it from a memo and only increments the cluster count. The memo is cleared
whenever the version moves, which makes the batch result identical to a
fresh ``parse_one`` per message. Templates only move toward wildcards, so
changes stop once the store settles and memo hits then dominate.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import repeat
from operator import eq

from .masking import MaskingRule, mask_one, split_tokens

WILDCARD = "<*>"


class _Cluster:
    __slots__ = ("event_id", "template", "count")

    def __init__(self, event_id: int, template: list[str]):
        self.event_id = event_id
        self.template = template
        self.count = 1


class TemplateStore:
    """The templates discovered by one parser.

    ``templates`` maps event id to the current token list and ``counts`` to
    the number of matched messages. A store loaded from JSON can check
    membership via :meth:`matches` but cannot continue parsing; only the
    parser that owns the store can extend it.
    """

    def __init__(self, parser_kind: str):
        self.parser_kind = parser_kind
        self.clusters: list[_Cluster] = []

    def _new_cluster(self, template: list[str]) -> _Cluster:
        cluster = _Cluster(len(self.clusters), template)
        self.clusters.append(cluster)
        return cluster

    def __len__(self) -> int:
        return len(self.clusters)

    @property
    def templates(self) -> dict[int, list[str]]:
        return {c.event_id: list(c.template) for c in self.clusters}

    @property
    def counts(self) -> dict[int, int]:
        return {c.event_id: c.count for c in self.clusters}

    def template_strings(self) -> dict[int, str]:
        return {c.event_id: " ".join(c.template) for c in self.clusters}

    def matches(self, event_id: int, message: str) -> bool:
        """Would this message be an instance of the stored template?

        Positional match (equal length, token equal or wildcard) for drain
        and lenma; subsequence match of the non-wildcard tokens for spell.
        """
        template = self.clusters[event_id].template
        tokens = split_tokens(message)
        if self.parser_kind == "spell":
            it = iter(tokens)
            return all(t == WILDCARD or t in it for t in template)
        if len(tokens) != len(template):
            return False
        return all(t == WILDCARD or t == tok
                   for t, tok in zip(template, tokens))

    def save(self, path) -> None:
        obj = {
            "parser": self.parser_kind,
            "templates": [
                {"event_id": c.event_id, "template": list(c.template),
                 "count": c.count}
                for c in self.clusters
            ],
        }
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            json.dump(obj, f, ensure_ascii=False, separators=(",", ":"))
            f.write("\n")

    @classmethod
    def load(cls, path) -> "TemplateStore":
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
        store = cls(obj["parser"])
        entries = sorted(obj["templates"], key=lambda e: e["event_id"])
        for i, entry in enumerate(entries):
            if entry["event_id"] != i:
                raise ValueError(f"{path}: event ids are not dense")
            cluster = store._new_cluster(list(entry["template"]))
            cluster.count = int(entry["count"])
        return store


class _ParserBase:
    """Shared plumbing: optional internal masking, memoized batch parse."""

    kind = "base"

    def __init__(self, masking_rules: list[MaskingRule] | None = None):
        self.masking_rules = masking_rules
        self.store = TemplateStore(self.kind)
        # bumped by parse_one on every state change that can alter an answer
        self._version = 0
        # message -> event id, valid while _version == _memo_version
        self._memo: dict[str, int] = {}
        self._memo_version = 0

    def _prepare(self, message: str) -> list[str]:
        if self.masking_rules:
            message = mask_one(message, self.masking_rules)
        return split_tokens(message)

    def parse_one(self, message: str) -> int:
        """Assign an event id to one message, updating the store."""
        return self._mine(self._prepare(message))

    def _mine(self, tokens: list[str]) -> int:
        """``parse_one`` of the message these tokens were prepared from;
        the list is only read."""
        raise NotImplementedError

    def parse(self, messages, tokens=None) -> list[int]:
        """Assign an event id to every message, updating the store.

        Same ids and store as calling ``parse_one`` on each message in turn.
        ``tokens``, when given, holds one list per message: exactly what
        ``parse_one`` would prepare from it, the parser's own masking
        included. A message missing from the memo is then mined from its
        list instead of being split again. The lists are only read.
        """
        if tokens is not None and len(tokens) != len(messages):
            raise ValueError(f"{len(tokens)} token lists for "
                             f"{len(messages)} messages")
        memo = self._memo
        if self._memo_version != self._version:
            memo.clear()
        clusters = self.store.clusters
        mine = self._mine
        prepare = self._prepare
        ids = []
        append = ids.append
        for m, toks in zip(messages,
                           repeat(None) if tokens is None else tokens):
            event_id = memo.get(m)
            if event_id is None:
                version = self._version
                event_id = mine(prepare(m) if toks is None else toks)
                if self._version == version:
                    memo[m] = event_id
                else:
                    memo.clear()
            else:
                clusters[event_id].count += 1
            append(event_id)
        self._memo_version = self._version
        return ids


# ---------------------------------------------------------------------------
# Drain


class DrainParser(_ParserBase):
    """Fixed-depth prefix-tree template miner.

    Messages are routed by token count, then by their first ``depth - 2``
    tokens (tokens that are pure digits route through the wildcard branch),
    down to a leaf holding candidate clusters. The best cluster by positional
    similarity wins if it reaches ``sim_threshold``, with ties going to the
    oldest (lowest) event id; otherwise the message founds a new cluster.
    When an internal node already has ``max_children`` children, unseen
    tokens fall through to the wildcard child.

    The leaf of each (token count, first ``depth - 2`` tokens) key is
    memoized. The memo is exact: nodes are never removed and a full node
    stays full, so a key walks to the same leaf every time.
    """

    kind = "drain"

    def __init__(self, depth: int = 4, sim_threshold: float = 0.4,
                 max_children: int = 100,
                 masking_rules: list[MaskingRule] | None = None):
        if depth < 3:
            raise ValueError("depth must be at least 3")
        if not 0.0 < sim_threshold < 1.0:
            raise ValueError("sim_threshold must be in (0, 1)")
        if max_children < 1:
            raise ValueError("max_children must be positive")
        super().__init__(masking_rules)
        self.depth = depth
        self.sim_threshold = sim_threshold
        self.max_children = max_children
        self._token_levels = depth - 2
        self._root: dict = {}
        # (token count, first depth - 2 tokens) -> the leaf _leaf returns
        self._routes: dict[tuple, list] = {}

    def _leaf(self, tokens: list[str]) -> list:
        """Walk (and build) the routing path for these tokens."""
        path_len = min(self._token_levels, len(tokens))
        node = self._root
        child = node.get(len(tokens))
        if child is None:
            child = [] if path_len == 0 else {}
            node[len(tokens)] = child
        node = child
        for i in range(path_len):
            token = tokens[i]
            if token.isdigit():
                token = WILDCARD
            leaf_level = i == path_len - 1
            child = node.get(token)
            if child is None:
                if token != WILDCARD and len(node) >= self.max_children:
                    token = WILDCARD
                    child = node.get(token)
                if child is None:
                    child = [] if leaf_level else {}
                    node[token] = child
            node = child
        return node

    def _mine(self, tokens: list[str]) -> int:
        n = len(tokens)
        key = (n, *tokens[:self._token_levels])
        leaf = self._routes.get(key)
        if leaf is None:
            leaf = self._routes[key] = self._leaf(tokens)
        # positions where template and message hold the same token, less
        # those where both hold a wildcard (a literal <*> in the message)
        both_wild = WILDCARD in tokens
        best = None
        best_same = -1
        for cluster in leaf:
            template = cluster.template
            same = sum(map(eq, template, tokens))
            if both_wild:
                same -= sum(t == tok == WILDCARD
                            for t, tok in zip(template, tokens))
            if same > best_same:
                best_same = same
                best = cluster
        if best is not None \
                and (best_same / n if n else 1.0) >= self.sim_threshold:
            template = best.template
            # skip the rewrite when every non-wildcard position matches
            if best_same != n - template.count(WILDCARD):
                for i, tok in enumerate(tokens):
                    if template[i] != tok and template[i] != WILDCARD:
                        template[i] = WILDCARD
                        self._version += 1
            best.count += 1
            return best.event_id
        # a new routing node always ends in an empty leaf, so tree growth
        # happens only here
        cluster = self.store._new_cluster(list(tokens))
        leaf.append(cluster)
        self._version += 1
        return cluster.event_id


# ---------------------------------------------------------------------------
# Spell


class _SpellState:
    __slots__ = ("token_counts",)

    def __init__(self, template: list[str]):
        self.token_counts = Counter(template)


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Classic O(len(a)*len(b)) longest common subsequence length."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        append = cur.append
        best = 0
        for j, y in enumerate(b):
            if x == y:
                v = prev[j] + 1
            else:
                v = cur[j] if cur[j] >= prev[j + 1] else prev[j + 1]
            append(v)
        prev = cur
    return prev[-1]


def _lcs_keep_mask(message: list[str], template: list[str]) -> list[bool]:
    """For each template position, is it part of one LCS with the message?

    Uses the full DP table and backtracks once; only called when a template
    actually merges, so the quadratic table is off the hot path.
    """
    n, m = len(message), len(template)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        mi = message[i - 1]
        row = dp[i]
        prev = dp[i - 1]
        for j in range(1, m + 1):
            if mi == template[j - 1]:
                row[j] = prev[j - 1] + 1
            else:
                row[j] = row[j - 1] if row[j - 1] >= prev[j] else prev[j]
    keep = [False] * m
    i, j = n, m
    while i > 0 and j > 0:
        if message[i - 1] == template[j - 1] \
                and dp[i][j] == dp[i - 1][j - 1] + 1:
            keep[j - 1] = True
            i -= 1
            j -= 1
        elif dp[i - 1][j] >= dp[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return keep


class SpellParser(_ParserBase):
    """Longest-common-subsequence template miner.

    A message joins the cluster whose template shares the longest common
    subsequence with it, provided that LCS covers at least ``tau`` of the
    message's tokens; ties go to the lowest event id. On a join, template
    tokens outside the LCS turn into wildcards and runs of consecutive
    wildcards collapse to one. Otherwise the message starts a new cluster.

    A cheap multiset bound (LCS cannot exceed the number of shared tokens
    counted with multiplicity) skips most LCS computations.
    """

    kind = "spell"

    def __init__(self, tau: float = 0.5,
                 masking_rules: list[MaskingRule] | None = None):
        if not 0.0 < tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        super().__init__(masking_rules)
        self.tau = tau
        self._states: list[_SpellState] = []
        self._empty_id: int | None = None

    def _mine(self, tokens: list[str]) -> int:
        if not tokens:
            # empty messages form their own cluster
            if self._empty_id is None:
                cluster = self.store._new_cluster([])
                self._states.append(_SpellState([]))
                self._empty_id = cluster.event_id
                self._version += 1
            else:
                self.store.clusters[self._empty_id].count += 1
            return self._empty_id

        need = self.tau * len(tokens)
        message_counts = Counter(tokens)
        best = None
        best_len = 0
        for cluster, state in zip(self.store.clusters, self._states):
            bound = 0
            for tok, c in state.token_counts.items():
                mc = message_counts.get(tok)
                if mc:
                    bound += c if c < mc else mc
            if bound <= best_len or bound < need:
                continue
            lcs = _lcs_length(tokens, cluster.template)
            if lcs > best_len:
                best_len = lcs
                best = cluster
        if best is not None and best_len >= need:
            keep = _lcs_keep_mask(tokens, best.template)
            new_template: list[str] = []
            for kept, tok in zip(keep, best.template):
                out = tok if kept else WILDCARD
                if out == WILDCARD and new_template \
                        and new_template[-1] == WILDCARD:
                    continue
                new_template.append(out)
            if new_template != best.template:
                best.template[:] = new_template
                self._states[best.event_id] = _SpellState(new_template)
                self._version += 1
            best.count += 1
            return best.event_id
        cluster = self.store._new_cluster(list(tokens))
        self._states.append(_SpellState(tokens))
        self._version += 1
        return cluster.event_id


# ---------------------------------------------------------------------------
# LenMa


class _LenState:
    __slots__ = ("lengths", "norm")

    def __init__(self, tokens: list[str]):
        self.lengths = [len(t) for t in tokens]
        self.norm = math.sqrt(sum(x * x for x in self.lengths))


class LenMaParser(_ParserBase):
    """Word-length clustering.

    Messages are keyed by token count; within a key, a message joins the
    cluster whose length vector has cosine similarity at least ``threshold``
    with the message's own word-length vector (ties to the lowest event id).
    Joining wildcards the positions whose tokens differ and the cluster's
    length vector follows the most recent member, so real token lengths are
    kept even at wildcard positions.
    """

    kind = "lenma"

    def __init__(self, threshold: float = 0.9,
                 masking_rules: list[MaskingRule] | None = None):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        super().__init__(masking_rules)
        self.threshold = threshold
        self._by_count: dict[int, list[tuple[_Cluster, _LenState]]] = {}

    def _mine(self, tokens: list[str]) -> int:
        lengths = [len(t) for t in tokens]
        norm = math.sqrt(sum(x * x for x in lengths))
        bucket = self._by_count.setdefault(len(tokens), [])

        best = None
        best_sim = -1.0
        for cluster, state in bucket:
            if not lengths:
                sim = 1.0  # two empty messages are identical
            elif state.norm == 0.0 or norm == 0.0:
                sim = 1.0 if state.norm == norm else 0.0
            else:
                dot = 0
                for x, y in zip(lengths, state.lengths):
                    dot += x * y
                sim = dot / (norm * state.norm)
            if sim > best_sim:
                best_sim = sim
                best = (cluster, state)
        if best is not None and best_sim >= self.threshold:
            cluster, state = best
            template = cluster.template
            # matching reads only the length vectors, so a template rewrite
            # is not a state change here
            for i, tok in enumerate(tokens):
                if template[i] != tok:
                    template[i] = WILDCARD
            if state.lengths != lengths:
                state.lengths = lengths
                state.norm = norm
                self._version += 1
            cluster.count += 1
            return cluster.event_id
        cluster = self.store._new_cluster(list(tokens))
        bucket.append((cluster, _LenState(tokens)))
        self._version += 1
        return cluster.event_id


PARSERS = {
    "drain": DrainParser,
    "spell": SpellParser,
    "lenma": LenMaParser,
}


def make_parser(kind: str, masking_rules=None, **params) -> _ParserBase:
    try:
        cls = PARSERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown parser {kind!r}, expected one of {sorted(PARSERS)}")
    return cls(masking_rules=masking_rules, **params)
