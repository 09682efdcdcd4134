"""Streaming log template miners: Drain, Spell and LenMa.

All three parsers consume messages one at a time, assign each message a dense
integer event id (first-seen order, starting at 0) and maintain a store of
templates in which volatile positions are replaced by the wildcard token
``<*>``. Parsing can continue across calls with the same parser object; the
template store only ever grows.

Masked placeholder tokens such as ``<IP>`` are ordinary tokens here: the
parsers do not mask, and a column is masked once, before parsing, by
``masking.normalize``.

``parse`` reads the messages' ``TokenColumn``, ``CodedColumn.tokens``. It
gives the ids and store of ``parse_one`` per message, because
``parse_one`` is a deterministic function of the parser state and the
message and cluster counts never influence a decision, so while the state
stands still a message's id depends on its tokens alone. Drain matches
whole stretches of unchanged state on codes with numpy and mines only the
rows that change the store. Spell and LenMa mine each entry of the column
once: ``_mine`` bumps a state version wherever it changes what a later
match reads (a new Spell template and state, a new LenMa length vector), a
repeat of an entry takes its id from a memo that is cleared whenever the
version moves, and only bumps the cluster count.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from operator import eq

import numpy as np

from .tables import CodedColumn, TokenColumn, split_tokens

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
    """Shared plumbing: the template store and batch parse of a token
    column."""

    kind = "base"

    def __init__(self):
        self.store = TemplateStore(self.kind)
        # bumped by _mine on every state change that can alter an answer;
        # read by the memo of _parse_column, which Drain replaces
        self._version = 0

    def parse_one(self, message: str) -> int:
        """Assign an event id to one message, updating the store."""
        return self._mine(split_tokens(message))

    def _mine(self, tokens: list[str]) -> int:
        """``parse_one`` of the message these tokens were split from; the
        list is only read."""
        raise NotImplementedError

    def parse(self, messages) -> list[int]:
        """Assign an event id to every message, updating the store.

        Same ids and store as calling ``parse_one`` on each message in turn.
        The parser mines the messages' ``CodedColumn.tokens``: the token
        column a ``masking.normalize`` result kept, or the one a column
        builds and keeps by splitting each distinct message once, so a
        column is split at most once however often it is read.
        """
        return self._parse_column(CodedColumn.of(messages).tokens)

    def _parse_column(self, col: TokenColumn) -> list[int]:
        """Mine each entry once while the version stands still: a repeat
        only bumps its cluster's count, and an entry's list is built only
        when it is mined."""
        memo: dict[int, int] = {}
        clusters = self.store.clusters
        mine = self._mine
        ids = []
        append = ids.append
        for e in col.rows.tolist():
            event_id = memo.get(e)
            if event_id is None:
                version = self._version
                event_id = mine(col.entry(e))
                if self._version == version:
                    memo[e] = event_id
                else:
                    memo.clear()
            else:
                clusters[event_id].count += 1
            append(event_id)
        return ids


# ---------------------------------------------------------------------------
# Drain

# Drain's batch parse reads rows in windows: the first has _WINDOW_START
# rows, and each window none of whose rows changes the store is followed by
# one _WINDOW_GROWTH times larger, up to _WINDOW_MAX rows.
_WINDOW_START = 16
_WINDOW_GROWTH = 4
_WINDOW_MAX = 1 << 16
# message x template x position comparisons made in one numpy call, at most
_COMPARE_CELLS = 1 << 22


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

    ``parse`` matches on codes. A message leaves the store as it is exactly
    when its leaf exists, its best cluster reaches the threshold and every
    non-wildcard template position equals the message's token (nothing to
    rewrite). While the store stands still each message's id is a function
    of its codes alone, so ``parse`` scores the distinct entries of a
    window of rows with numpy, one call per route key, accepts the rows
    before the first one that would change the store, mines that row alone
    with ``_mine`` and starts the next window after it.
    """

    kind = "drain"

    def __init__(self, depth: int = 4, sim_threshold: float = 0.4,
                 max_children: int = 100):
        if depth < 3:
            raise ValueError("depth must be at least 3")
        if not 0.0 < sim_threshold < 1.0:
            raise ValueError("sim_threshold must be in (0, 1)")
        if max_children < 1:
            raise ValueError("max_children must be positive")
        super().__init__()
        self.depth = depth
        self.sim_threshold = sim_threshold
        self.max_children = max_children
        self._token_levels = depth - 2
        self._root: dict = {}
        # (token count, first depth - 2 tokens) -> the leaf _leaf returns
        self._routes: dict[tuple, list] = {}

    def _leaf(self, tokens: list[str], build: bool = True) -> list | None:
        """Walk the routing path for these tokens, building the missing
        nodes; without ``build`` the walk builds nothing and gives None
        where it would build a node."""
        path = tokens[:self._token_levels]
        node = self._root
        for level, token in enumerate([len(tokens), *path]):
            if level:  # below the root, which is keyed by token count
                if token.isdigit():
                    token = WILDCARD
                if token not in node and len(node) >= self.max_children:
                    token = WILDCARD
            child = node.get(token)
            if child is None:
                if not build:
                    return None
                child = node[token] = [] if level == len(path) else {}
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
            best.count += 1
            return best.event_id
        # a new routing node always ends in an empty leaf, so tree growth
        # happens only here
        cluster = self.store._new_cluster(list(tokens))
        leaf.append(cluster)
        return cluster.event_id

    def _parse_column(self, col: TokenColumn) -> list[int]:
        rows = col.rows
        lengths = np.diff(col.offsets)
        keys = self._route_keys(col, lengths)
        # a template token the column lacks never equals a message code,
        # and neither does a wildcard, not even a literal <*> in a message
        code_of = dict(zip(col.tokens, range(len(col.tokens))))
        code_of[WILDCARD] = -1
        # each entry's event id and whether it leaves the store as it is,
        # under the store as it stands in the current window
        event = np.zeros(len(lengths), dtype=np.int32)
        settled = np.zeros(len(lengths), dtype=bool)
        ids = np.empty(len(rows), dtype=np.int32)
        mined = []
        start, size = 0, _WINDOW_START
        while start < len(rows):
            window = rows[start:start + size]
            entries = np.sort(window)
            # distinct; np.unique would hash, many times slower here
            entries = entries[np.r_[True, entries[1:] != entries[:-1]]]
            event[entries], settled[entries] = self._match(
                col, entries, keys[entries], lengths, code_of)
            ok = settled[window]
            first = int(ok.argmin())  # the first row that changes the store
            if ok[first]:
                ids[start:start + len(window)] = event[window]
                start += len(window)
                size = min(size * _WINDOW_GROWTH, _WINDOW_MAX)
                continue
            end = start + first
            ids[start:end] = event[rows[start:end]]
            ids[end] = self._mine(col.entry(rows[end]))
            mined.append(end)
            start, size = end + 1, _WINDOW_START
        # the mined rows counted themselves; cluster counts never steer a
        # match, so the accepted rows are counted at the end
        counts = np.bincount(np.delete(ids, mined),
                             minlength=len(self.store)).tolist()
        for cluster, count in zip(self.store.clusters, counts):
            cluster.count += count
        return ids.tolist()

    def _route_keys(self, col: TokenColumn, lengths: np.ndarray) -> np.ndarray:
        """An int64 per entry, equal for entries of equal token count and
        equal first ``depth - 2`` codes. Keys are ranked down whenever one
        more level could overflow."""
        base = len(col.tokens) + 1
        limit = (np.iinfo(np.int64).max - base) // base
        starts = col.offsets[:-1]
        key = lengths.astype(np.int64)
        for i in range(self._token_levels):
            if len(key) and key.max() > limit:
                key = np.unique(key, return_inverse=True)[1]
            has = lengths > i
            level = np.zeros(len(key), dtype=np.int64)
            level[has] = col.codes[starts[has] + i] + 1
            key = key * base + level
        return key

    def _match(self, col: TokenColumn, entries, keys, lengths, code_of
               ) -> tuple[np.ndarray, np.ndarray]:
        """The event id ``_mine`` gives each entry under the current store,
        and whether it would leave the store as it is."""
        event = np.zeros(len(entries), dtype=np.int64)
        settled = np.zeros(len(entries), dtype=bool)
        order = np.argsort(keys)
        cuts = np.flatnonzero(np.diff(keys[order])) + 1
        for group in np.split(order, cuts):
            leaf = self._leaf(col.entry(entries[group[0]]), build=False)
            if not leaf:  # a message here founds a cluster
                continue
            n = int(lengths[entries[group[0]]])
            templates = np.array(
                [[code_of.get(t, -2) for t in c.template] for c in leaf],
                dtype=col.codes.dtype).reshape(len(leaf), n)
            non_wild = (templates != -1).sum(1)
            cluster_ids = np.array([c.event_id for c in leaf])
            # row k is codes[k:k + n]: indexing it by the entries' offsets
            # gathers their codes
            runs = np.lib.stride_tricks.sliding_window_view(col.codes, n)
            step = max(1, _COMPARE_CELLS // (len(leaf) * max(n, 1)))
            for a in range(0, len(group), step):
                part = group[a:a + step]
                codes = runs[col.offsets[entries[part]]]
                same = (codes[:, None, :] == templates[None]).sum(-1)
                # argmax takes the first best: the lowest event id
                best = same.argmax(1)
                best_same = same[np.arange(len(part)), best]
                ok = best_same == non_wild[best]
                if n:
                    ok &= best_same / n >= self.sim_threshold
                event[part] = cluster_ids[best]
                settled[part] = ok
        return event, settled


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

    def __init__(self, tau: float = 0.5):
        if not 0.0 < tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        super().__init__()
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

    def __init__(self, threshold: float = 0.9):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        super().__init__()
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


def make_parser(kind: str, **params) -> _ParserBase:
    try:
        cls = PARSERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown parser {kind!r}, expected one of {sorted(PARSERS)}")
    return cls(**params)
