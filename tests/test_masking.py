import re

import pytest

from logbench.masking import (MaskingRule, default_rules, load_masking_rules,
                              mask_one, normalize, save_masking_rules,
                              split_tokens, tokenize)


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
    for rule in default_rules():
        assert rule.blob_safe


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
    assert normalize(msgs, rules) == [mask_one(m, rules) for m in msgs]


def test_normalize_fallback_on_newlines():
    rules = default_rules()
    msgs = ["line one 12", "two\nparts 0xff", "end 3"]
    out = normalize(msgs, rules)
    assert out == [mask_one(m, rules) for m in msgs]
    assert out[1] == "two\nparts <HEX>"


_REPEATED = ["took 35 ms block 0xF3A2", "from 10.0.0.1 port 88",
             "took 35 ms block 0xF3A2", "", "took 36 ms block 0xF3A2", ""]


@pytest.mark.parametrize("msgs", [
    _REPEATED * 50,                                  # heavy repeats
    _REPEATED * 3 + ["two\nparts 0xff", "end 3"] * 3,  # loop fallback
    [],
], ids=["repeats", "newline", "empty"])
def test_normalize_dedup_matches_mask_one(msgs):
    rules = default_rules()
    assert normalize(msgs, rules) == [mask_one(m, rules) for m in msgs]


def test_normalize_fallback_unsafe_rule():
    rules = [MaskingRule(r"^\d+", "<LEAD>")]
    msgs = ["12 x", "y 34"]
    assert normalize(msgs, rules) == ["<LEAD> x", "y 34"]


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
        assert normalize(msgs, rules) == [mask_one(m, rules) for m in msgs]


def test_split_tokens():
    assert split_tokens("a b  c") == ["a", "b", "c"]
    assert split_tokens("") == []
    assert split_tokens("  ") == []
    assert split_tokens("a\tb\nc") == ["a", "b", "c"]
    # non-ascii whitespace is NOT a separator; only the explicit set is
    assert split_tokens("a\u00a0b") == ["a\u00a0b"]


def test_tokenize():
    out = tokenize(normalize(["took 35 ms", "x 0xff"], default_rules()))
    assert out == [["took", "<NUM>", "ms"], ["x", "<HEX>"]]
    assert tokenize(["a  b", ""]) == [["a", "b"], []]


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
