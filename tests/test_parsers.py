import random

import numpy as np
import pytest

from logbench.masking import split_tokens, token_column
from logbench.parsers import (WILDCARD, DrainParser, LenMaParser, SpellParser,
                              TemplateStore, make_parser)

# ---------------------------------------------------------------------------
# Drain


def test_drain_reference_example():
    parser = DrainParser()
    assert parser.parse(["send 100 bytes", "send 250 bytes",
                         "open file x"]) == [0, 0, 1]
    store = parser.store
    assert store.template_strings()[0] == "send <*> bytes"
    assert store.template_strings()[1] == "open file x"
    assert store.counts == {0: 2, 1: 1}


def test_drain_param_validation():
    with pytest.raises(ValueError):
        DrainParser(depth=2)
    with pytest.raises(ValueError):
        DrainParser(sim_threshold=0.0)
    with pytest.raises(ValueError):
        DrainParser(sim_threshold=1.0)
    with pytest.raises(ValueError):
        DrainParser(max_children=0)


def test_drain_length_routing():
    parser = DrainParser(sim_threshold=0.4)
    assert parser.parse(["a b", "a b c", "a b"]) == [0, 1, 0]


def test_drain_tie_prefers_lowest_event_id():
    # depth 3 routes on the first token only, so all three messages share a
    # leaf; "a b y" is equally similar (2/3) to "a b x" and "a c y"
    parser = DrainParser(depth=3, sim_threshold=0.5)
    assert parser.parse(["a b x", "a c y"]) == [0, 1]
    assert parser.parse_one("a b y") == 0
    assert parser.store.template_strings()[0] == "a b <*>"
    assert parser.store.template_strings()[1] == "a c y"


def test_drain_wildcard_not_counted_as_match():
    parser = DrainParser(depth=3, sim_threshold=0.6)
    assert parser.parse(["a b c", "a b d"]) == [0, 0]
    assert parser.store.template_strings()[0] == "a b <*>"
    # matches at a,b only: 2/3 >= 0.6 joins
    assert parser.parse_one("a b e") == 0
    # same leaf (depth 3 ignores the second token): matches only "a",
    # 1/3 < 0.6, and the wildcard position must not help
    assert parser.parse_one("a x y") == 1


def test_drain_digit_tokens_route_together():
    # same first token level after digit wildcarding, different literals
    parser = DrainParser(depth=3, sim_threshold=0.4)
    ids = parser.parse(["100 units left", "250 units left"])
    assert ids == [0, 0]
    assert parser.store.template_strings()[0] == "<*> units left"


def test_drain_max_children_overflow():
    parser = DrainParser(depth=3, sim_threshold=0.4, max_children=2)
    ids = parser.parse(["a x", "b x", "c x", "d x"])
    # c and d overflow into the wildcard branch and meet there
    assert ids == [0, 1, 2, 2]
    assert parser.store.template_strings()[2] == "<*> x"


# ---------------------------------------------------------------------------
# Spell


def test_spell_reference_example():
    parser = SpellParser()
    assert parser.parse(["open file alpha", "open file beta"]) == [0, 0]
    assert parser.store.template_strings()[0] == "open file <*>"


def test_spell_consecutive_wildcards_collapse():
    parser = SpellParser()
    assert parser.parse(["a b c d", "a b x y"]) == [0, 0]
    assert parser.store.template_strings()[0] == "a b <*>"


def test_spell_below_tau_splits():
    # shared prefix of 1 out of 3 tokens < tau=0.5
    assert SpellParser().parse(["a b c", "a x y"]) == [0, 1]


def test_spell_empty_messages_form_own_cluster():
    parser = SpellParser()
    assert parser.parse(["", "a b", ""]) == [0, 1, 0]
    assert parser.store.templates[0] == []
    assert parser.store.counts[0] == 2


def test_spell_repeated_tokens_multiset_bound():
    # the bound must count multiplicity: "a a" vs template "a" shares one a
    parser = SpellParser(tau=0.9)
    assert parser.parse_one("a") == 0
    # LCS("a a", "a") = 1 < 0.9*2: must split, even though both tokens
    # appear in the template's vocabulary
    assert parser.parse_one("a a") == 1


def test_spell_tau_validation():
    with pytest.raises(ValueError):
        SpellParser(tau=0.0)
    with pytest.raises(ValueError):
        SpellParser(tau=1.5)
    SpellParser(tau=1.0)


def _naive_spell(messages, tau=0.5):
    """Reference Spell without the multiset prefilter.

    Same decision rule: best LCS, first cluster on ties, join when the LCS
    covers tau of the message tokens; template keeps one LCS (backtrack
    prefers consuming the message token, like the production code) and
    collapses wildcard runs.
    """
    templates, counts, ids = [], [], []
    empty_id = None
    for msg in messages:
        tokens = split_tokens(msg)
        if not tokens:
            if empty_id is None:
                empty_id = len(templates)
                templates.append([])
                counts.append(0)
            counts[empty_id] += 1
            ids.append(empty_id)
            continue
        need = tau * len(tokens)
        best, best_len = None, 0
        for idx, tmpl in enumerate(templates):
            n, m = len(tokens), len(tmpl)
            dp = [[0] * (m + 1) for _ in range(n + 1)]
            for i in range(1, n + 1):
                for j in range(1, m + 1):
                    if tokens[i - 1] == tmpl[j - 1]:
                        dp[i][j] = dp[i - 1][j - 1] + 1
                    else:
                        dp[i][j] = max(dp[i][j - 1], dp[i - 1][j])
            if dp[n][m] > best_len:
                best_len = dp[n][m]
                best = (idx, dp)
        if best is not None and best_len >= need:
            idx, dp = best
            tmpl = templates[idx]
            keep = [False] * len(tmpl)
            i, j = len(tokens), len(tmpl)
            while i > 0 and j > 0:
                if tokens[i - 1] == tmpl[j - 1] \
                        and dp[i][j] == dp[i - 1][j - 1] + 1:
                    keep[j - 1] = True
                    i -= 1
                    j -= 1
                elif dp[i - 1][j] >= dp[i][j - 1]:
                    i -= 1
                else:
                    j -= 1
            new = []
            for kept, tok in zip(keep, tmpl):
                out = tok if kept else WILDCARD
                if out == WILDCARD and new and new[-1] == WILDCARD:
                    continue
                new.append(out)
            templates[idx] = new
            counts[idx] += 1
            ids.append(idx)
        else:
            ids.append(len(templates))
            templates.append(list(tokens))
            counts.append(1)
    return ids, templates, counts


def test_spell_prefilter_matches_naive_reference():
    rng = random.Random(1234)
    vocab = ["a", "b", "c", "d", "e", "f", "g", "h"]
    for trial in range(40):
        msgs = []
        for _ in range(60):
            k = rng.randint(0, 8)
            msgs.append(" ".join(rng.choice(vocab) for _ in range(k)))
        tau = rng.choice([0.3, 0.5, 0.7, 1.0])
        parser = SpellParser(tau=tau)
        ids, store = parser.parse(msgs), parser.store
        ref_ids, ref_templates, ref_counts = _naive_spell(msgs, tau=tau)
        assert ids == ref_ids, f"trial {trial}"
        assert [store.templates[i] for i in range(len(store))] == \
            ref_templates
        assert [store.counts[i] for i in range(len(store))] == ref_counts


# ---------------------------------------------------------------------------
# LenMa


def test_lenma_reference_example():
    parser = LenMaParser()
    # cosine((4,4,5),(4,4,9)) ~ 0.9594 >= 0.9
    assert parser.parse(["open file alpha", "open file wordcount"]) == [0, 0]
    assert parser.store.template_strings()[0] == "open file <*>"


def test_lenma_distant_lengths_split():
    ids = LenMaParser().parse(["open file alpha",
                               "open file aaaaaaaaaaaaaaaaaaaa"])
    # cosine((4,4,5),(4,4,20)) ~ 0.841 < 0.9
    assert ids == [0, 1]


def test_lenma_length_vector_follows_latest_member():
    parser = LenMaParser()
    assert parser.parse(["open file alpha", "open file wordcount"]) == [0, 0]
    # cosine against the latest member (4,4,9) is ~0.971; against the
    # founder (4,4,5) it would be ~0.865 and split
    assert parser.parse_one("open file abcdefghijklmnopq") == 0


def test_lenma_token_count_buckets():
    assert LenMaParser().parse(["ab cd", "ab cd ef"]) == [0, 1]


def test_lenma_empty_messages():
    assert LenMaParser().parse(["", ""]) == [0, 0]


def test_lenma_threshold_validation():
    with pytest.raises(ValueError):
        LenMaParser(threshold=0.0)
    with pytest.raises(ValueError):
        LenMaParser(threshold=1.0001)


# ---------------------------------------------------------------------------
# shared behaviour


def _random_corpus(rng, n):
    vocab = ["alpha", "beta", "gamma", "delta", "x1", "y22", "zzz",
             "<NUM>", "<HEX>", "longtokenword"]
    out = []
    for _ in range(n):
        k = rng.randint(0, 7)
        out.append(" ".join(rng.choice(vocab) for _ in range(k)))
    return out


@pytest.mark.parametrize("kind", ["drain", "spell", "lenma"])
def test_parser_invariants(kind):
    rng = random.Random(hash(kind) % 100_000)
    for trial in range(15):
        msgs = _random_corpus(rng, 50)
        parser = make_parser(kind)
        ids = parser.parse(msgs)
        store = parser.store

        # dense ids, first-seen order
        seen = []
        for i in ids:
            if i not in seen:
                seen.append(i)
        assert seen == list(range(len(store)))
        assert sum(store.counts.values()) == len(msgs)

        # every member still matches the final template of its cluster
        for msg, event_id in zip(msgs, ids):
            assert store.matches(event_id, msg), \
                f"{kind} trial {trial}: {msg!r} vs " \
                f"{store.templates[event_id]!r}"

        # determinism
        parser2 = make_parser(kind)
        assert parser2.parse(msgs) == ids
        assert parser2.store.template_strings() == store.template_strings()


def _parse_one_each(kind, msgs):
    parser = make_parser(kind)
    return [parser.parse_one(m) for m in msgs], parser.store


@pytest.mark.parametrize("kind", ["drain", "spell", "lenma"])
def test_memoized_parse_matches_parse_one(kind):
    # a small pool drawn with replacement: exact repeats arrive both before
    # and after the templates they hit generalize
    rng = random.Random(kind)
    for trial in range(15):
        pool = _random_corpus(rng, 25)
        msgs = [rng.choice(pool) for _ in range(300)]
        ref_ids, ref = _parse_one_each(kind, msgs)

        parser = make_parser(kind)
        assert parser.parse(msgs) == ref_ids, f"{kind} trial {trial}"
        assert parser.store.templates == ref.templates
        assert parser.store.counts == ref.counts

        # parse -> parse_one -> parse on one parser
        parser = make_parser(kind)
        ids = parser.parse(msgs[:100])
        ids += [parser.parse_one(m) for m in msgs[100:150]]
        ids += parser.parse(msgs[150:])
        assert ids == ref_ids, f"{kind} trial {trial}"
        assert parser.store.templates == ref.templates
        assert parser.store.counts == ref.counts


@pytest.mark.parametrize("msgs,expected", [
    # "a b x y z" generalizes cluster 0 to "a b <*> <*> <*>", so the
    # repeated "a b c s t" now matches cluster 1 better (3/5 against 2/5)
    (["a b c d e", "a q r s t", "a b c s t", "a b x y z", "a b c s t"],
     [0, 1, 0, 0, 1]),
    # the repeat joins cluster 0 at 2/4; "a q c d" founds cluster 1, which
    # matches the repeat at 3/4
    (["a b x y", "a b z w", "a b c d", "a q c d", "a b c d"],
     [0, 0, 0, 1, 1]),
], ids=["rewrite", "new-cluster"])
def test_drain_memo_drops_stale_answer(msgs, expected):
    # depth 3 routes on the first token only, so all messages share a leaf
    parser = DrainParser(depth=3, sim_threshold=0.4)
    assert [parser.parse_one(m) for m in msgs] == expected
    assert DrainParser(depth=3, sim_threshold=0.4).parse(msgs) == expected


def test_spell_memo_drops_stale_answer():
    # "a b x y" generalizes cluster 0 to "a b <*>" without founding a
    # cluster; the repeated "a b c d" must then move to cluster 1 (LCS 3)
    msgs = ["a b c d", "b c d q r s t u", "a b c d", "a b x y", "a b c d"]
    assert _parse_one_each("spell", msgs)[0] == [0, 1, 0, 0, 1]
    assert SpellParser().parse(msgs) == [0, 1, 0, 0, 1]

    parser = SpellParser()
    assert parser.parse(msgs[:3]) == [0, 1, 0]
    assert parser.parse_one("a b x y") == 0
    assert parser.parse(["a b c d"]) == [1]


def test_lenma_memo_follows_length_vector():
    # position 1 is already a wildcard, so the joins below change only the
    # cluster's length vector; it drifts from (5, 1) to (5, 6) and the
    # repeated "hello u" no longer reaches the threshold
    msgs = ["hello w", "hello v", "hello u", "hello uu", "hello uuu",
            "hello uuuu", "hello uuuuuu", "hello u"]
    expected = [0, 0, 0, 0, 0, 0, 0, 1]
    assert _parse_one_each("lenma", msgs)[0] == expected
    assert LenMaParser().parse(msgs) == expected


def test_lenma_memo_skips_message_that_founded_a_cluster():
    # cosine of (9, 5) with itself rounds to just below 1.0, so at
    # threshold 1.0 every repeat founds a new cluster; a memo entry for
    # the founding message would wrongly send repeats to cluster 0
    msgs = ["abcdefghi abcde"] * 3
    parser = LenMaParser(threshold=1.0)
    assert [parser.parse_one(m) for m in msgs] == [0, 1, 2]
    assert LenMaParser(threshold=1.0).parse(msgs) == [0, 1, 2]


def _token_corpus(rng, n):
    """Messages with literal wildcards, digit tokens and many distinct
    first tokens (which overflow ``max_children=2``)."""
    vocab = ["alpha", "beta", "gamma", WILDCARD, WILDCARD, "12", "345",
             "x1", "<NUM>", "f" + str(rng.randint(0, 9))]
    out = []
    for _ in range(n):
        head = [rng.choice(["a", "b", "c", "d", "7", WILDCARD])]
        tail = [rng.choice(vocab) for _ in range(rng.randint(0, 6))]
        out.append(" ".join(head + tail) if rng.random() > 0.05 else "")
    return out


_TOKEN_PARSERS = [("drain", {}), ("drain", {"max_children": 2}),
                  ("drain", {"depth": 3, "max_children": 2}),
                  ("drain", {"depth": 5, "sim_threshold": 0.7}),
                  ("spell", {}), ("lenma", {})]


@pytest.mark.parametrize("kind,params", _TOKEN_PARSERS)
def test_parse_with_tokens_matches_parse_one(kind, params):
    rng = random.Random(f"{kind}{params}")
    for trial in range(15):
        pool = _token_corpus(rng, 40)
        msgs = [rng.choice(pool) for _ in range(300)]
        ref = make_parser(kind, **params)
        ref_ids = [ref.parse_one(m) for m in msgs]

        parser = make_parser(kind, **params)
        assert parser.parse(msgs) == ref_ids, f"{kind} {trial}"
        assert parser.store.templates == ref.store.templates
        assert parser.store.counts == ref.store.counts


class _DrainReference(DrainParser):
    """Drain without the route memo and the counting shortcuts: walk the
    tree, score every position in Python, always run the rewrite loop."""

    def _mine(self, tokens):
        leaf = self._leaf(tokens)
        best, best_sim = None, -1.0
        for cluster in leaf:
            same = sum(1 for t, tok in zip(cluster.template, tokens)
                       if t == tok and t != WILDCARD)
            sim = same / len(cluster.template) if cluster.template else 1.0
            if sim > best_sim:
                best, best_sim = cluster, sim
        if best is not None and best_sim >= self.sim_threshold:
            for i, tok in enumerate(tokens):
                if best.template[i] != tok and best.template[i] != WILDCARD:
                    best.template[i] = WILDCARD
                    self._version += 1
            best.count += 1
            return best.event_id
        cluster = self.store._new_cluster(list(tokens))
        leaf.append(cluster)
        self._version += 1
        return cluster.event_id


def _tree(node):
    """A Drain routing tree with event ids at its leaves."""
    if isinstance(node, list):
        return [c.event_id for c in node]
    return {key: _tree(child) for key, child in node.items()}


@pytest.mark.parametrize("params", [p for k, p in _TOKEN_PARSERS
                                    if k == "drain"])
def test_drain_matches_unmemoized_reference(params):
    rng = random.Random(str(params))
    for trial in range(20):
        pool = _token_corpus(rng, 60)
        msgs = [rng.choice(pool) for _ in range(400)]
        ref = _DrainReference(**params)
        parser = DrainParser(**params)
        assert [parser.parse_one(m) for m in msgs] == \
            [ref.parse_one(m) for m in msgs], f"trial {trial}"
        assert parser.store.templates == ref.store.templates
        assert _tree(parser._root) == _tree(ref._root)


@pytest.mark.parametrize("params", [{}, {"depth": 5, "max_children": 1},
                                    {"depth": 3, "max_children": 2}])
def test_drain_walk_without_building_finds_the_built_leaf(params):
    # the batch parse finds leaves with _leaf(build=False): it must give
    # the leaf the building walk reaches, or None exactly where that walk
    # grows the tree
    rng = random.Random(str(params))
    vocab = ["a", "b", "c", "d", "12", "7", WILDCARD]
    parser = DrainParser(**params)
    found_some = grew = 0
    for _ in range(600):
        tokens = [rng.choice(vocab) for _ in range(rng.randrange(6))]
        found = parser._leaf(tokens, build=False)
        before = _tree(parser._root)
        built = parser._leaf(tokens)
        if found is None:
            assert _tree(parser._root) != before
            grew += 1
        else:
            assert found is built and _tree(parser._root) == before
            found_some += 1
        if rng.random() < 0.3:
            parser._mine(tokens)
    assert found_some > 100 and grew > 10


def _assert_batch_is_sequential(parser, steps, params):
    """Run ``steps`` on ``parser``, each ``("parse", msgs)`` or
    ``("one", msgs)``, and compare ids, templates, counts and the routing
    tree with ``parse_one`` and ``_DrainReference`` per message. ``parse``
    must mine in Python exactly the rows that change the store."""
    mine, mined = parser._mine, []
    parser._mine = lambda tokens: (mined.append(tokens), mine(tokens))[1]
    ids, msgs, batched = [], [], []
    for step in steps:
        if step[0] == "parse":
            ids += parser.parse(step[1])
        else:
            ids += [parser.parse_one(m) for m in step[1]]
        msgs += list(step[1])
        batched += [step[0] == "parse"] * len(step[1])
    ref, one = _DrainReference(**params), DrainParser(**params)
    ref_ids, changes = [], 0
    for m, in_batch in zip(msgs, batched):
        version = ref._version
        ref_ids.append(ref.parse_one(m))
        changes += ref._version != version or not in_batch
    assert ids == ref_ids == [one.parse_one(m) for m in msgs]
    assert len(mined) == changes
    for other in (ref, one):
        assert parser.store.templates == other.store.templates
        assert parser.store.counts == other.store.counts
        assert _tree(parser._root) == _tree(other._root)
    return ids


def test_drain_batch_change_after_long_settled_stretch():
    # 5,000 rows settle on one template; a new template founds a cluster
    # at row 5,000 and a rewrite comes at row 9,000, both deep inside a
    # window that has grown large
    rng = random.Random(5)
    msgs = [f"open file f{rng.randrange(300)} mode r" for _ in range(5000)]
    msgs.append("close file f1 now")
    msgs += [rng.choice([f"open file f{rng.randrange(300)} mode r",
                         f"close file f{rng.randrange(300)} now"])
             for _ in range(3999)]
    msgs.append("open file f2 mode w")
    msgs += [f"open file f{rng.randrange(300)} mode r" for _ in range(3000)]
    parser = DrainParser()
    ids = _assert_batch_is_sequential(
        parser, [("parse", msgs)], {})
    assert ids[5000] == 1 and ids[5001:9000].count(1) > 1000
    assert parser.store.template_strings() == {
        0: "open file <*> mode <*>", 1: "close file <*> now"}


def test_drain_batch_continues_across_columns_and_parse_one():
    # the second column's dictionary lacks "r", which the first column put
    # into a template, and the tokens its messages hold at wildcards
    first = ["open file x mode r", "open file y mode r",
             "read block x of 3 bytes", "read block y of 4 bytes"] * 50
    second = ["open file z mode w", "open file q mode w",
              "read block z of 5 bytes", "write block z of 6 bytes"] * 50
    assert not {"r", "x", "y", "3", "4"} & set(token_column(second).tokens)
    parser = DrainParser()
    _assert_batch_is_sequential(
        parser, [("parse", first), ("parse", second)], {})
    assert parser.store.template_strings() == {
        0: "open file <*> mode <*>", 1: "read block <*> of <*> bytes",
        2: "write block z of 6 bytes"}
    # "r" is missing from the second column, where "x" holds code 0:
    # "x y x" must rewrite the template, not match it as it stands
    parser = DrainParser()
    _assert_batch_is_sequential(
        parser, [("parse", ["x y r"] * 3), ("parse", ["x y x"] * 3)], {})
    assert parser.store.template_strings() == {0: "x y <*>"}
    for params in ({}, {"depth": 3, "max_children": 2}):
        rng = random.Random(str(params))
        pool = _token_corpus(rng, 40)
        msgs = [rng.choice(pool) for _ in range(600)]
        _assert_batch_is_sequential(DrainParser(**params), [
            ("parse", msgs[:200]), ("one", msgs[200:300]),
            ("parse", msgs[300:])], params)


@pytest.mark.parametrize("params", [{"depth": 8},
                                    {"depth": 8, "max_children": 1}])
def test_drain_batch_deep_routes_over_a_large_vocabulary(params):
    # 2,047 tokens make a code base of 2**11: six levels of codes times
    # the token count would wrap int64, and a wrapped key drops the count
    vocab = [f"w{i}" for i in range(2047)]
    head = vocab[:6]
    rng = random.Random(8)
    pool = [" ".join(vocab[i:i + 9]) for i in range(0, len(vocab), 9)]
    pool += [" ".join(head + rng.sample(vocab, k)) for k in range(4)] * 3
    pool += [" ".join(rng.sample(vocab[:3], 2) + rng.sample(vocab, 6))
             for _ in range(100)]
    pool += [" ".join(rng.sample(vocab, rng.randrange(10)))
             for _ in range(100)]
    msgs = pool + [rng.choice(pool) for _ in range(2000)]
    col = token_column(msgs)
    assert len(col.tokens) == 2047
    entries = range(len(col.offsets) - 1)
    routes = [(len(col.entry(e)), *col.entry(e)[:6]) for e in entries]

    def wrapped(route):
        key = route[0]
        for t in route[1:] + (None,) * (7 - len(route)):
            key = (key * 2048 + (0 if t is None else int(t[1:]) + 1)) % 2**64
        return key
    assert len({wrapped(r) for r in routes}) < len(set(routes))
    parser = DrainParser(**params)
    keys = parser._route_keys(col, np.diff(col.offsets)).tolist()
    assert len(set(zip(routes, keys))) == len(set(routes)) == len(set(keys))
    _assert_batch_is_sequential(parser, [("parse", msgs)], params)


def test_drain_batch_empty_messages_digit_heads_literal_wildcards():
    # "6789 a b" routes through the wildcard "12 a b" and "345 a b" made
    # and changes nothing, so the batch must not mine it
    base = ["", "", "12 a b", "345 a b", "6789 a b", "<*> a b", "a <*> c",
            "a b c", "<*> <*>", "<*> x", "7", "8", "a <*> <*>", ""]
    rng = random.Random(3)
    msgs = base + [rng.choice(base) for _ in range(500)]
    for params in ({}, {"depth": 3}, {"max_children": 1},
                   {"sim_threshold": 0.9}):
        _assert_batch_is_sequential(DrainParser(**params),
                                    [("parse", msgs)], params)


def test_drain_batch_ties_go_to_the_lowest_event_id():
    # "a b x" matches "a <*> x" and "a b <*>" at 2 of 3 positions each,
    # and neither needs a rewrite
    msgs = ["a p x", "a q x", "a b y", "a b z"] + ["a b x", "a r x"] * 50
    ids = _assert_batch_is_sequential(
        DrainParser(depth=3), [("parse", msgs)], {"depth": 3})
    assert ids[:6] == [0, 0, 1, 1, 0, 0]


def test_matches_positional_and_subsequence():
    drain = TemplateStore("drain")
    drain._new_cluster(["a", WILDCARD, "c"])
    assert drain.matches(0, "a b c")
    assert drain.matches(0, "a zz c")
    assert not drain.matches(0, "a b d")
    assert not drain.matches(0, "a b c d")

    spell = TemplateStore("spell")
    spell._new_cluster(["a", WILDCARD, "b"])
    assert spell.matches(0, "x a y b")
    assert spell.matches(0, "a b")
    assert not spell.matches(0, "b a")


def test_store_save_load_round_trip(tmp_path):
    parser = DrainParser()
    parser.parse(["send 100 bytes", "send 250 bytes", "open f x"])
    store = parser.store
    p = tmp_path / "templates.json"
    store.save(p)
    back = TemplateStore.load(p)
    assert back.parser_kind == "drain"
    assert back.template_strings() == store.template_strings()
    assert back.counts == store.counts


def test_store_load_rejects_sparse_ids(tmp_path):
    p = tmp_path / "templates.json"
    p.write_text('{"parser":"drain","templates":'
                 '[{"event_id":0,"template":["a"],"count":1},'
                 '{"event_id":2,"template":["b"],"count":1}]}')
    with pytest.raises(ValueError):
        TemplateStore.load(p)


def test_make_parser_rejects_unknown():
    with pytest.raises(ValueError):
        make_parser("nosuch")
    assert make_parser("drain", depth=5).depth == 5
