import re

import pytest

from logbench.masking import (MaskingRule, default_rules, load_masking_rules,
                              mask_one, normalize, save_masking_rules,
                              split_tokens, token_column, tokenize)


def test_reference_example():
    rules = default_rules()
    assert mask_one("took 35 ms block 0xF3A2", rules) == \
        "took <NUM> ms block <HEX>"
    # masking already-masked output changes nothing
    assert mask_one("took <NUM> ms block <HEX>", rules) == \
        "took <NUM> ms block <HEX>"


def test_rule_order_matters():
    rules = default_rules()
    # 10.0.0.1 must be one <IP>, not four <NUM>
    assert mask_one("from 10.0.0.1 port 88", rules) == \
        "from <IP> port <NUM>"


def test_hex_needs_marker():
    rules = default_rules()
    # bare digits are numbers, not hex
    assert mask_one("id 1234", rules) == "id <NUM>"
    # a-f letter promotes to hex
    assert mask_one("id 12a4", rules) == "id <HEX>"
    assert mask_one("id 0x1234", rules) == "id <HEX>"
    # a standalone all-hex-letter word is claimed (known trade-off), but a
    # word containing any non-hex letter is left alone
    assert mask_one("fee deadline fees", rules) == "<HEX> deadline fees"


def test_rule_validation():
    with pytest.raises(ValueError):
        MaskingRule(r"\d+", "NUM")          # token must be <...>
    with pytest.raises(ValueError):
        MaskingRule(r"(?<=x)\d+", "<NUM>")  # look-behind
    with pytest.raises(ValueError):
        MaskingRule(r"(?=x)\d+", "<NUM>")   # look-ahead
    with pytest.raises(ValueError):
        MaskingRule(r"[0-9", "<NUM>")       # bad regex


def test_blob_safety_classification():
    assert MaskingRule(r"\b\d+\b", "<NUM>").blob_safe
    assert MaskingRule(r"[0-9a-f]+", "<HEX>").blob_safe
    assert not MaskingRule(r"^\d+", "<NUM>").blob_safe
    assert not MaskingRule(r"\d+$", "<NUM>").blob_safe
    assert not MaskingRule(r"\s+\d", "<NUM>").blob_safe
    assert not MaskingRule(r"[^x]+", "<T>").blob_safe
    assert not MaskingRule(r"\D+", "<T>").blob_safe
    assert not MaskingRule(r"\B\d", "<T>").blob_safe
    assert MaskingRule(r"\b", "<T>").blob_safe
    for rule in default_rules():
        assert rule.blob_safe


def test_token_local_classification():
    for rule in default_rules():
        assert rule.token_local
    assert MaskingRule(r"\b\d+\b", "<NUM>").token_local
    assert MaskingRule(r"x*", "<T>").token_local
    assert MaskingRule(r"\t\d", "<T>").token_local   # a tab is in-chunk
    assert MaskingRule(r"\d+\.\d+", "<F>").token_local  # escaped dot
    assert MaskingRule(r"[0-9a-f]+", "<HEX>").token_local
    for pattern in (
            r"user \d+",           # a literal space
            r"[ ]+",
            r"a.b",                # the bare dot
            r"\\.",                # an escaped backslash, then a bare dot
            r"\N{SPACE}",          # escapes that can spell a space
            r"\u0020",
            r"\U00000020",
            r"[\40]",              # an octal escape
            r"(a)\1",              # a backreference, conservatively
            r"[\t-!]",             # a class range across the space
            "[\t-!]",              # the same with a literal tab
    ):
        assert MaskingRule(pattern, "<T>").blob_safe, pattern
        assert not MaskingRule(pattern, "<T>").token_local, pattern
    # \B differs inside an empty message or chunk
    for pattern in (r"^\d+", r"\d+$", r"\s+\d", r"[^x]+", r"\D+", r"\x20",
                    r"\W", r"(?i)a", r"\B\d+", r"\B"):
        assert not MaskingRule(pattern, "<T>").blob_safe, pattern
        assert not MaskingRule(pattern, "<T>").token_local, pattern


# messages that stress the chunk path: leading, trailing and double spaces,
# tabs, empty and non-ASCII messages, placeholders and repeats
_CHUNKY = [
    "took 35 ms block 0xF3A2", " lead 1", "trail 2 ", "double  space 3",
    "  ", " ", "", "tabs\tand 4\t5", "caf\u00e9 12 na\u00efve 0xab",
    "\u00fcber\u00a0 7", "user 42 x", "a.b a b axb", "<NUM> already",
    "xx x", "x", "deadbeef 10.0.0.1", "took 35 ms block 0xF3A2", "",
]
_NEWLINE_ROWS = ["two\nparts 0xff", "x\n", "\n", "end 3", "a \n b", "x \n",
                 " \n", "\n\n7", "a\r\nb 0x1f"]

_RULE_SETS = {
    "defaults": default_rules,
    "empty-match": lambda: [MaskingRule(r"x*", "<T>")],
    "word-boundary": lambda: [MaskingRule(r"\b", "<W>")],
    "non-boundary": lambda: [MaskingRule(r"\B", "<NB>")],
    "holds-space": lambda: [MaskingRule(r"user \d+", "<USER>")]
    + default_rules(),
    "bare-dot": lambda: [MaskingRule(r"a.b", "<AB>")],
}


@pytest.mark.parametrize("rule_set", sorted(_RULE_SETS))
@pytest.mark.parametrize("msgs", [
    _CHUNKY,
    _CHUNKY + _NEWLINE_ROWS,
    [""],
    ["  "],
], ids=["chunks", "newline-rows", "one-empty", "one-double-space"])
def test_normalize_rule_sets_match_mask_one(rule_set, msgs):
    rules = _RULE_SETS[rule_set]()
    out = normalize(msgs, rules)
    assert out.tolist() == \
        [mask_one(m, rules) for m in msgs]
    if all(r.token_local for r in rules):
        assert out.tokens.tolist() == [split_tokens(m) for m in out]


def test_chunk_path_never_masks_the_row_separator():
    # an empty match beside "\n" must stay on its own row
    rules = [MaskingRule(r"x*", "<T>")]
    assert rules[0].token_local
    assert normalize(["a", "", "xb"], rules).tolist() == \
        ["<T>a<T>", "<T>", "<T><T>b<T>"]


def test_default_rules_mask_chunks(monkeypatch):
    # the default rules take the chunk path: the rules only ever see
    # single, space-free chunks, each distinct one once
    import logbench.masking as masking_module
    seen = []
    real = masking_module._normalize_distinct

    def spy(msgs, rules):
        seen.append(list(msgs))
        return real(msgs, rules)

    monkeypatch.setattr(masking_module, "_normalize_distinct", spy)
    msgs = ["took 35 ms", "took 36 ms", "took  35 ms "]
    assert normalize(msgs, default_rules()).tolist() == \
        ["took <NUM> ms", "took <NUM> ms", "took  <NUM> ms "]
    assert seen == [["took", "35", "ms", "36", ""]]


def test_normalize_matches_mask_one_on_synthetic_hdfs(tmp_path):
    from logbench import loaders, synth
    paths = synth.generate_synthetic(tmp_path, format="hdfs", n_templates=10,
                                     n_lines=20000, anomaly_rate=0.05,
                                     seed=3)
    events, _ = loaders.load(loaders.LoaderSpec("hdfs", paths["log"]))
    msgs = list(events["m_message"])
    rules = default_rules()
    assert normalize(msgs, rules).tolist() == \
        [mask_one(m, rules) for m in msgs]


def test_normalize_matches_mask_one():
    rules = default_rules()
    msgs = [
        "took 35 ms block 0xF3A2",
        "from 10.0.0.1 port 88",
        "",
        "plain words only",
        "hex deadbeef and cafe4",
        "tabs\tand  runs   of spaces 7",
    ]
    assert normalize(msgs, rules).tolist() == \
        [mask_one(m, rules) for m in msgs]


def test_normalize_fallback_on_newlines():
    rules = default_rules()
    msgs = ["line one 12", "two\nparts 0xff", "end 3"]
    out = normalize(msgs, rules)
    assert out.tolist() == [mask_one(m, rules) for m in msgs]
    assert out[1] == "two\nparts <HEX>"


_REPEATED = ["took 35 ms block 0xF3A2", "from 10.0.0.1 port 88",
             "took 35 ms block 0xF3A2", "", "took 36 ms block 0xF3A2", ""]


@pytest.mark.parametrize("msgs", [
    _REPEATED * 50,                                  # heavy repeats
    _REPEATED * 3 + ["two\nparts 0xff", "end 3"] * 3,  # newline rows
    [],
], ids=["repeats", "newline", "empty"])
def test_normalize_dedup_matches_mask_one(msgs):
    rules = default_rules()
    assert normalize(msgs, rules).tolist() == \
        [mask_one(m, rules) for m in msgs]


def test_a_rule_that_consumes_a_newline_masks_one_message_at_a_time():
    # blob-safe by its text, yet it matches the newlines that join the blob
    rules = [MaskingRule(r"[\t-\r]", "<CTL>")]
    assert rules[0].blob_safe and not rules[0].token_local
    msgs = ["a", "b\nc", "d\te", "", "f 1"]
    assert normalize(msgs, rules).tolist() == \
        ["a", "b<CTL>c", "d<CTL>e", "", "f 1"]


def test_normalize_fallback_unsafe_rule():
    rules = [MaskingRule(r"^\d+", "<LEAD>")]
    msgs = ["12 x", "y 34"]
    assert normalize(msgs, rules).tolist() == ["<LEAD> x", "y 34"]


def test_normalize_property_vs_per_message():
    # random messages: blob path and scalar path must agree exactly
    import random
    rng = random.Random(42)
    vocab = ["alpha", "35", "0xF3A2", "10.1.2.3", "beef", "x9",
             "q", "777", "cafe", "0", "a1b2", "<NUM>"]
    rules = default_rules()
    for _ in range(50):
        msgs = [" ".join(rng.choice(vocab)
                         for _ in range(rng.randint(0, 8)))
                for _ in range(rng.randint(1, 20))]
        assert normalize(msgs, rules).tolist() == \
            [mask_one(m, rules) for m in msgs]


def test_split_tokens():
    assert split_tokens("a b  c") == ["a", "b", "c"]
    assert split_tokens("") == []
    assert split_tokens("  ") == []
    assert split_tokens("a\tb\nc") == ["a", "b", "c"]
    # non-ascii whitespace is NOT a separator; only the explicit set is
    assert split_tokens("a\u00a0b") == ["a\u00a0b"]
    # nor are the information separators, which str.split() splits at;
    # ASCII and non-ASCII messages split alike
    for sep in "\x1c\x1d\x1e\x1f":
        assert split_tokens(f"a{sep}b c") == [f"a{sep}b", "c"]
        assert split_tokens(f"a{sep}b c \u00fc") == [f"a{sep}b", "c", "\u00fc"]
    assert split_tokens("\x1f") == ["\x1f"]
    assert split_tokens(" a\x0bb\x0cc\rd ") == ["a", "b", "c", "d"]


def test_tokenize():
    out = tokenize(normalize(["took 35 ms", "x 0xff"], default_rules()))
    assert out == [["took", "<NUM>", "ms"], ["x", "<HEX>"]]
    assert tokenize(["a  b", ""]) == [["a", "b"], []]


def test_tokenize_shares_one_list_per_distinct_message():
    msgs = ["a b", "", "x \u00fc", "a b", "p\x1fq r", "", "a b", "x \u00fc",
            "p\x1fq r", "a  b", "a\tb"]
    out = tokenize(iter(msgs))
    assert out == [split_tokens(m) for m in msgs]
    assert out[4] == ["p\x1fq", "r"]
    for i, m in enumerate(msgs):
        for j, n in enumerate(msgs):
            # equal messages share one list; different ones never do, even
            # when their tokens are equal ("a b", "a  b" and "a\tb")
            assert (out[i] is out[j]) == (m == n), (m, n)
    # all distinct: one fresh list per message
    distinct = tokenize(["a", "b c", ""])
    assert distinct == [["a"], ["b", "c"], []]
    assert len({id(t) for t in distinct}) == 3


def test_rules_file_round_trip(tmp_path):
    rules = default_rules()
    p = tmp_path / "rules.txt"
    save_masking_rules(rules, p)
    back = load_masking_rules(p)
    assert [(r.pattern, r.token) for r in back] == \
        [(r.pattern, r.token) for r in rules]


def test_rules_file_format(tmp_path):
    p = tmp_path / "rules.txt"
    p.write_text("# comment\n"
                 "\n"
                 "\\d+\t<NUM>\n"
                 "[a-f0-9]+\t<HEX>\n")
    rules = load_masking_rules(p)
    assert len(rules) == 2
    assert rules[0].token == "<NUM>"

    p.write_text("no-tab-here\n")
    with pytest.raises(ValueError) as err:
        load_masking_rules(p)
    assert ":1" in str(err.value)

    p.write_text("\\d+\t<NUM>\n(?<=a)b\t<BAD>\n")
    with pytest.raises(ValueError) as err:
        load_masking_rules(p)
    assert ":2" in str(err.value)


def test_pattern_with_tab_in_it(tmp_path):
    # rpartition: the LAST tab separates pattern from token
    p = tmp_path / "rules.txt"
    p.write_text("a\\tb\td\t<T>\n")
    rules = load_masking_rules(p)
    assert rules[0].token == "<T>"
    assert rules[0].pattern == "a\\tb\td"


_ORACLE_WORDS = ["a", "35", "0xF3A2", "10.1.2.3", "beef", "ü", "ü7",
                 "x\ty", "\t", "", "a\xa0b", "<NUM>", "blk_-42", "z\x1c9"]
# fixed messages the random ones are drawn next to: empty ones, space runs,
# leading and trailing spaces, tabs, non-ASCII text, and chunk sequences
# that are prefixes of one another
_ORACLE_FIXED = ["", " ", "  ", "a", "a ", "a  ", " a", "a 35", "a 35 ",
                 "a\t35", "\t", "ü 12 ü", "  lead and trail  "]


def _first_seen(cells):
    return list(dict.fromkeys(cells))


@pytest.mark.parametrize("block", [1, 3, None], ids=["block-1", "block-3",
                                                    "block-default"])
@pytest.mark.parametrize("seed", range(8))
def test_normalize_codes_against_mask_one(seed, block, monkeypatch):
    import random

    from logbench import masking
    if block:  # chunks are coded a few messages at a time
        monkeypatch.setattr(masking, "_CHUNK_BLOCK", block)
    rng = random.Random(seed)
    rules = default_rules()
    for size in (1, 2, 7, 60):
        pool = _ORACLE_FIXED + [" ".join(rng.choice(_ORACLE_WORDS)
                                         for _ in range(rng.randint(0, 6)))
                                for _ in range(20)]
        # repeated rows, and a single message when size is 1
        msgs = [rng.choice(pool) for _ in range(size)]
        expected = [mask_one(m, rules) for m in msgs]
        out = normalize(msgs, rules)
        assert out.tokens is not None  # the chunk path ran
        assert out.tolist() == expected
        assert out.tokens.tolist() == list(map(split_tokens, expected))
        # the codes number the distinct masked messages in first-seen order
        assert out.dictionary == _first_seen(expected)
        assert out.codes.tolist() == \
            [out.dictionary.index(m) for m in expected]
        assert [out[i] for i in range(size)] == expected
        # a gather of a column whose text was not rendered yet
        idx = [rng.randrange(size) for _ in range(size)][::-1]
        gathered = normalize(msgs, rules)[idx]
        assert gathered.tolist() == [expected[i] for i in idx]
        assert gathered.first_seen().tolist() == [expected[i] for i in idx]
        assert gathered.first_seen().dictionary == \
            _first_seen(expected[i] for i in idx)
    # a newline stays inside its chunk: the column keeps the chunk path
    msgs.append("x\ny 7")
    out = normalize(msgs, rules)
    assert out.tokens.tolist() == \
        [split_tokens(mask_one(m, rules)) for m in msgs]
    assert out.tolist() == [mask_one(m, rules) for m in msgs]


def test_first_seen_of_a_normalize_result_does_not_render(monkeypatch):
    # the render counter of test_masked_text_is_rendered_only_when_read
    from logbench import masking
    rendered = []
    masked = masking._masked

    def counting_masked(pieces, kept, lengths):
        render, code = masked(pieces, kept, lengths)

        def counting_render():
            rendered.append(len(lengths))
            return render()
        return counting_render, code
    monkeypatch.setattr(masking, "_masked", counting_masked)
    msgs = ["a 1", "b 2", "a 3", "", "b 4", "c 0x5", "a 1"]
    out = normalize(msgs)
    assert out.first_seen() is out
    assert rendered == []
    # the rendered dictionary is in first-seen order with no unused entry
    expected = [mask_one(m, default_rules()) for m in msgs]
    assert out.dictionary == _first_seen(expected)
    assert rendered == [len(set(expected))]
    assert out.first_seen() is out
    assert out.tolist() == expected


_PARITY_MESSAGES = [
    "send 100 bytes", "a\tb  c", "  lead and trail  ", "", "", " ",
    "tab\t\tend\t", "x\x1cy 7", "\x1c", "no\xa0break 0xff", "\xa0",
    "a b  c", "send 100 bytes", "10.0.0.1 a\t5", "ü 12 ü",
    "cr\rlf 3", "blk_-42 x", "trailing\t"]

_PARITY_RULES = {
    "defaults": default_rules(),
    # token-local, and it rewrites the tabs that split tokens
    "tab-rule": [MaskingRule(r"\t", "<TAB>"), MaskingRule(r"\d+", "<N>")],
    # not token-local: normalize masks whole messages instead of chunks
    "non-token-local": [MaskingRule(r"a b", "<AB>"),
                        MaskingRule(r"\s\d+", "<SN>")],
}


@pytest.mark.parametrize("name", sorted(_PARITY_RULES))
def test_token_codes_match_split_of_masked_text(name):
    from logbench.enhancers import add_normalized, add_tokens
    from logbench.tables import EventTable

    rules = _PARITY_RULES[name]
    assert all(r.token_local for r in rules) == (name != "non-token-local")
    msgs = _PARITY_MESSAGES
    expected = [split_tokens(mask_one(m, rules)) for m in msgs]
    out = normalize(msgs, rules)
    assert out.tolist() == [mask_one(m, rules) for m in msgs]
    if name == "non-token-local":
        assert out.tokens is None
    else:
        assert [out.tokens[i] for i in range(len(msgs))] == expected
        assert out.tokens.tolist() == expected
    table = EventTable({"m_message": msgs, "m_timestamp": [0] * len(msgs)})
    words = add_tokens(add_normalized(table, rules))["e_words"]
    assert [words[i] for i in range(len(msgs))] == expected
    assert list(words) == expected
    # tokenize alone splits the raw messages
    raw = add_tokens(table)["e_words"]
    assert [raw[i] for i in range(len(msgs))] == \
        [split_tokens(m) for m in msgs]
    assert tokenize(msgs) == [split_tokens(m) for m in msgs]


def test_token_column_of_a_normalize_result_is_its_kept_column():
    out = normalize(_PARITY_MESSAGES)
    assert token_column(out) is out.tokens
    assert out.tokens.tolist() == [split_tokens(m) for m in out]
    # plain text, rules still to apply, or a pass that kept no codes
    assert token_column(list(out)).tolist() == out.tokens.tolist()
    rules = _PARITY_RULES["tab-rule"]
    assert token_column(out, rules).tolist() == \
        [split_tokens(mask_one(m, rules)) for m in out]
    other = normalize(_PARITY_MESSAGES, _PARITY_RULES["non-token-local"])
    assert other.tokens is None
    assert token_column(other).tolist() == [split_tokens(m) for m in other]


def test_tokenize_after_normalize_takes_its_codes(monkeypatch):
    from logbench import masking
    from logbench.enhancers import add_normalized, add_tokens
    from logbench.tables import EventTable

    table = EventTable({"m_message": _PARITY_MESSAGES,
                        "m_timestamp": [0] * len(_PARITY_MESSAGES)})
    normalized = add_normalized(table)

    def no_split(messages):
        raise AssertionError("the normalized text was split again")
    monkeypatch.setattr(masking, "token_column", no_split)
    words = add_tokens(normalized)["e_words"]
    assert list(words) == [split_tokens(m) for m in
                           normalized["e_message_normalized"]]
    # a replaced text column has no codes, so it is split
    replaced = normalized.with_column("e_message_normalized",
                                      list(normalized["m_message"]))
    with pytest.raises(AssertionError, match="split again"):
        add_tokens(replaced)


# messages as an HDFS log holds them, the block id chunk cut out at load
_CUT_SETS = {
    "one id each": [
        "blk_1 at the start", "in the blk_2 middle", "at the end blk_3",
        "negative blk_-123 id", "punctuation blk_12, in the chunk",
        "(blk_-4) wrapped", "no block id 7", "blk_1 at the start",
        "in  the blk_8 middle", " lead blk_9", "trail blk_10 ", "blk_13",
        "ids:blk_14,blk_15 0x1f", "in the blk_16 middle",
        # one key-free message, cut in different chunks
        "dbl blk_31  space", "dbl  blk_31 space"],
    # the second id masks to no row's key: the cut path stays exact
    "two ids": [
        "two ids blk_5 and blk_6", "x blk_11 blk_-12", "blk_1 at the start",
        "at the end blk_3"],
    # a key's masked chunk outside its own chunk, and rows without a key
    # that mask to a keyed row's message: rows holding one masked message
    # may hold their keys in different chunks, or none
    "a key elsewhere": [
        "blk_6 keyed", "two ids blk_5 and blk_6", "blk_21 <BLK>",
        "<BLK> blk_22", "at the end blk_3", "<BLK> <BLK>", "<BLK> keyed",
        "blk_6 blk_6", "blk_3 blk_6 blk_-7"],
}
_CUT_RULES = {
    "defaults": default_rules(),
    "blk-rule": [MaskingRule(r"blk_-?\d+", "<BLK>"), *default_rules()],
    "non-token-local": [MaskingRule(r"\s\d+", "<SN>")],
}


@pytest.mark.parametrize("block_chars", [1, 7, 64, 1 << 20])
@pytest.mark.parametrize("merged", [False, True], ids=["whole", "merged"])
@pytest.mark.parametrize("rules_name", sorted(_CUT_RULES))
@pytest.mark.parametrize("set_name", sorted(_CUT_SETS))
def test_normalize_of_cut_hdfs_messages_matches_mask_one(
        tmp_path, monkeypatch, set_name, rules_name, merged, block_chars):
    from logbench import loaders, masking
    from logbench.loaders import load_hdfs
    monkeypatch.setattr(loaders, "_HDFS_BLOCK_CHARS", block_chars)
    taken = []
    cut = masking._normalize_cut

    def recording_cut(*args):
        out = cut(*args)
        taken.append(out is not None)
        return out
    monkeypatch.setattr(masking, "_normalize_cut", recording_cut)

    lines, raw = ["dropped: no event before it"], []
    for i, msg in enumerate(_CUT_SETS[set_name]):
        lines.append(f"081109 2036{i % 60:02d} 148 INFO dfs.A: {msg}")
        raw.append(msg)
        if merged and i % 2 == 0:
            # continuations, one with a block id of its own and one that
            # opens with a space
            more = ["\tat java.lang.Thread.run", f"continued blk_9{i} x",
                    " 12 spaced"][:1 + i % 6 // 2]
            lines += more
            raw[-1] = "\n".join([msg, *more])
    log = tmp_path / "t.log"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    events, _ = load_hdfs(log)
    message = events["m_message"]
    assert message.parts is not None
    rules = _CUT_RULES[rules_name]
    out = normalize(message, rules)
    token_local = rules_name != "non-token-local"
    # the cut path masks the parts, merged rows too, and never renders
    # the whole column
    assert taken == ([True] if token_local else [])
    assert ("dictionary" in message.__dict__) == (not token_local)
    want = [mask_one(m, rules) for m in raw]
    assert out.tolist() == want
    assert out.dictionary == list(dict.fromkeys(want))
    assert (out.tokens is not None) == token_local
    if token_local:
        assert out.tokens.tolist() == [split_tokens(m) for m in want]
    assert message.tolist() == raw
    assert message.dictionary == list(dict.fromkeys(raw))


def test_only_a_cut_column_takes_the_cut_path(tmp_path, monkeypatch):
    import numpy as np

    from logbench import masking
    from logbench.loaders import load_hdfs, load_supercomputer
    from logbench.synth import generate_synthetic

    def no_cut(*args):
        raise AssertionError("took the cut path")
    monkeypatch.setattr(masking, "_normalize_cut", no_cut)
    bgl = generate_synthetic(tmp_path / "bgl", "bgl", n_templates=3,
                             n_lines=300, seed=2)
    hdfs = generate_synthetic(tmp_path / "hdfs", "hdfs", n_templates=3,
                              n_lines=300, seed=2)
    column = load_supercomputer(bgl["log"], "bgl")["m_message"]
    assert column.parts is None
    # a gather of a cut column drops its parts
    gathered = load_hdfs(hdfs["log"])[0]["m_message"][np.arange(300)]
    assert gathered.parts is None
    for col in (column, gathered):
        text = col.tolist()
        want = [mask_one(m, default_rules()) for m in text]
        for messages in (col, text, np.asarray(text, dtype=object)):
            assert normalize(messages).tolist() == want


def test_normalize_refuses_a_none_message_of_a_cut_column():
    from logbench.tables import CodedColumn

    # rows 1 and 3 are None: no key-free message and no cut
    cut = CodedColumn.cut(CodedColumn(["a 12 b", "x 3"], [0, -1, 1, -1, 0]),
                          CodedColumn(["k7"], [0, -1, -1, -1, 0]),
                          [2, -1, -1, -1, 2])
    assert cut.tolist() == ["a k712 b", None, "x 3", None, "a k712 b"]
    for messages in (cut, cut.tolist()):
        with pytest.raises(TypeError, match="messages must be str"):
            normalize(messages)


def test_normalize_of_an_empty_column_is_empty(tmp_path):
    import numpy as np

    from logbench.enhancers import add_normalized, add_tokens
    from logbench.loaders import load_hdfs
    empty, rejected = tmp_path / "empty.log", tmp_path / "rejected.log"
    empty.write_text("")
    rejected.write_text("not an event\nnor this blk_1 7\n")
    tables = [load_hdfs(path)[0] for path in (empty, rejected)]
    assert all(t["m_message"].parts is not None for t in tables)
    for messages in ([], np.array([], dtype=object),
                     *(t["m_message"] for t in tables)):
        out = normalize(messages)
        assert len(out) == 0
        assert out.tolist() == [] and out.dictionary == []
    for table in tables:
        words = add_tokens(add_normalized(table))["e_words"]
        assert len(words) == 0 and words.tolist() == []
        assert add_tokens(table)["e_words"].tolist() == []


def _with_continuations(path, every, line):
    """Rewrite a log with ``line`` after every ``every``-th line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for i in range(len(lines) - len(lines) % every, 0, -every):
        lines.insert(i, line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_messages_holding_newlines_are_masked_in_one_blob(tmp_path,
                                                         data_dir,
                                                         monkeypatch):
    # a newline stays inside its chunk and the blob is masked line by
    # line, so the default rules never mask a message on its own
    from logbench import masking
    from logbench.loaders import load_hadoop, load_hdfs, load_supercomputer
    from logbench.synth import generate_synthetic

    trace = "\tat org.apache.hadoop.Foo.bar(Foo.java:12) 0x1f"
    bgl = generate_synthetic(tmp_path / "bgl", "bgl", n_templates=3,
                             n_lines=300, seed=2)
    hdfs = generate_synthetic(tmp_path / "hdfs", "hdfs", n_templates=3,
                              n_lines=300, seed=2)
    for paths in (bgl, hdfs):
        _with_continuations(paths["log"], 7, trace)
    hdfs_message = load_hdfs(hdfs["log"])[0]["m_message"]
    assert hdfs_message.parts is not None
    columns = {
        "list": _CHUNKY + _NEWLINE_ROWS,
        "bgl": load_supercomputer(bgl["log"], "bgl")["m_message"],
        "hadoop": load_hadoop(data_dir / "hadoop_tree",
                              data_dir / "hadoop_labels.csv")[0]["m_message"],
        "hdfs": hdfs_message,
    }
    rules = default_rules()
    want = {name: [mask_one(m, rules) for m in col]
            for name, col in columns.items()}
    for name, col in columns.items():
        assert any("\n" in m for m in col), name

    def no_mask_one(text, rules):
        raise AssertionError("a message was masked on its own")
    monkeypatch.setattr(masking, "mask_one", no_mask_one)
    for name, col in columns.items():
        out = normalize(col, rules)
        assert out.tolist() == want[name], name
        assert out.tokens is not None, name
