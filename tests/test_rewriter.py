import random
import tracemalloc

import numpy as np
import pytest

from kgsynth import kg as kgmod, rewriter
from kgsynth.rewriter import build_index, find_keys, rewrite_text, select, spans


def quadratic_rewrite(mapping, text):
    """Reference rewriter: try every key at every boundary position, longest first."""
    keys = sorted(mapping, key=len, reverse=True)
    out = []
    i = 0
    while i < len(text):
        if i == 0 or not text[i - 1].isalnum():
            replaced = False
            for key in keys:
                j = i + len(key)
                if text[i:j] == key and (j == len(text) or not text[j].isalnum()):
                    out.append(mapping[key])
                    i = j
                    replaced = True
                    break
            if replaced:
                continue
        out.append(text[i])
        i += 1
    return "".join(out)


def brute_force_scan(keys, text):
    """Reference scanner: try every key at every boundary position. Each
    match as (start, end, key), by start and, at one start, shorter key first."""
    matches = []
    for i in range(len(text)):
        if i and text[i - 1].isalnum():
            continue
        for key in keys:
            j = i + len(key)
            if text[i:j] == key and (j == len(text) or not text[j].isalnum()):
                matches.append((i, j, key))
    return sorted(matches)


def scanned(index, text):
    """``spans``' matches as (start, end, key), the key read by its number."""
    starts, ends, keys = spans(index, text)
    assert starts.dtype == ends.dtype == keys.dtype == np.int64
    return list(zip(starts.tolist(), ends.tolist(), map(index.keys.__getitem__, keys.tolist())))


def scan_keys(keys, text):
    return scanned(build_index({k: k for k in keys}), text)


def random_keys(rng, alphabet):
    return sorted({
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
        for _ in range(rng.randint(1, 8))
    })


def test_longest_match_wins():
    index = build_index({"New York": "X1", "York": "X2"})
    assert rewrite_text(index, "born in New York City") == "born in X1 City"


def test_hyphen_is_a_boundary():
    index = build_index({"york": "X2"})
    assert rewrite_text(index, "york-shire") == "X2-shire"


def test_no_match_inside_words():
    index = build_index({"art": "X"})
    assert rewrite_text(index, "part of the apartment") == "part of the apartment"
    assert rewrite_text(index, "state of the art.") == "state of the X."


def test_case_sensitive():
    index = build_index({"Basel": "X"})
    assert rewrite_text(index, "basel and Basel") == "basel and X"


def test_empty_map_is_identity():
    index = build_index({})
    assert rewrite_text(index, "anything at all") == "anything at all"


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        build_index({"": "X"})


def test_replacement_not_rescanned():
    index = build_index({"a": "b", "b": "c"})
    assert rewrite_text(index, "a b") == "b c"


def test_text_edges_count_as_boundaries():
    index = build_index({"end": "X"})
    assert rewrite_text(index, "end") == "X"
    assert rewrite_text(index, "end to end") == "X to X"


def test_find_keys_reports_all_boundary_occurrences():
    index = build_index({"New York": "a", "York": "b", "Basel": "c"})
    found = find_keys(index, "New York and York, not newYork")
    assert found == {"New York", "York"}


def test_fuzz_equality_with_quadratic_reference():
    rng = random.Random(2024)
    alphabet = "ab xy-"
    for _ in range(500):
        keys = {
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5))).strip("-")
            for _ in range(rng.randint(1, 8))
        }
        keys.discard("")
        mapping = {k: f"<{i}>" for i, k in enumerate(sorted(keys))}
        if not mapping:
            continue
        index = build_index(mapping)
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        assert rewrite_text(index, text) == quadratic_rewrite(mapping, text), (mapping, text)


def test_fuzz_rewrite_text_against_reference_on_non_ascii_text():
    # Non-ASCII letters (é, ß) and digits (٣, ７) count as word characters at
    # key boundaries; "_", "-" and "." do not.
    rng = random.Random(808)
    alphabet = "aé ٣-ß.７_"
    for _ in range(800):
        keys = random_keys(rng, alphabet)
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        mapping = {k: f"<{i}>" for i, k in enumerate(keys)}
        assert rewrite_text(build_index(mapping), text) == quadratic_rewrite(mapping, text), \
            (mapping, text)


def test_fuzz_spans_against_brute_force():
    # Texts are glued from keys and single characters, so keys nest, overlap
    # and share starts.
    rng = random.Random(909)
    alphabet = "aé ٣-ß.７_"
    found = nested = 0
    for _ in range(800):
        keys = random_keys(rng, alphabet)
        text = "".join(rng.choice(keys + list(alphabet)) for _ in range(rng.randint(0, 20)))
        index = build_index({k: k for k in keys})
        matches = scanned(index, text)
        assert matches == brute_force_scan(keys, text), (keys, text)
        assert find_keys(index, text) == {key for _, _, key in matches}
        found += len(matches)
        nested += sum(after[0] < before[1] for before, after in zip(matches, matches[1:]))
    assert found > 800 and nested > 50, (found, nested)



@pytest.mark.parametrize("keys, text", [
    # a punctuation-led key's first span takes in the word where a letter-led key starts
    (["(foo", "foo"], "x (foo) foo"),
    (["(foo", "foo", "(foo) foo"], "(foo) foo (foo(foo"),
    (["-", ".", "(", "'"], "a - b. (c) -- .'- '"),
    (["_", "_foo", "_foo bar", "foo"], "x_foo _foo __foo _foo bar_ _"),
    (["\nfoo", "foo", "\n"], "a \nfoo\n\nfoo a\nfoo"),
    (["]x", "^y", "\\z", "x"], "]x ^y \\z x]x"),
    (["é", "éa-b", "٣x", "7"], "é éa-b ٣x 7 x7 é٣x"),
    # an alphanumeric and a non-alphanumeric code point outside the BMP
    (["\U0001d538", "\U0001d538b", "\U0001f600", "\U0001f600 x", "x\U0001f600"],
     "\U0001d538 \U0001d538b\U0001f600 x x\U0001f600 \U0001f600\U0001d538 a\U0001d538"),
    # keys that begin or end with punctuation or a space
    (["(a)", "a.", " a", "a ", "- -", " "], "(a) a. a  a - - -(a).  a"),
], ids=["paren-then-word", "paren-nested", "one-char-punctuation", "underscore",
        "newline", "class-metacharacters", "non-ascii", "non-bmp", "punctuation-edges"])
def test_spans_against_brute_force_on_key_starts(keys, text):
    assert scan_keys(keys, text) == brute_force_scan(keys, text)


def test_fuzz_spans_against_brute_force_on_non_bmp_text():
    # An alphanumeric (𝔸) and a non-alphanumeric (😀) code point outside the
    # BMP, and keys that begin or end with punctuation or a space.
    rng = random.Random(910)
    alphabet = "a\U0001d538 \U0001f600-."
    found = 0
    for _ in range(600):
        keys = random_keys(rng, alphabet)
        text = "".join(rng.choice(keys + list(alphabet)) for _ in range(rng.randint(0, 20)))
        matches = scan_keys(keys, text)
        assert matches == brute_force_scan(keys, text), (keys, text)
        found += len(matches)
    assert found > 600, found


def test_spans_of_a_text_longer_than_a_block():
    # longer than the mention table's block of characters, and than many
    # rows of the powers a scan hashes with
    rng = random.Random(911)
    keys = ["ka lo", "ka", "lo mi", "(re)", "su-", "\U0001d538 ka"]
    words = keys + ["mi", "tan", "\U0001f600", "x"]
    text = " ".join(rng.choice(words) for _ in range(kgmod._SCAN_CHARS // 3))
    assert len(text) > kgmod._SCAN_CHARS
    matches = scan_keys(keys, text)
    assert matches == brute_force_scan(keys, text)
    assert len(matches) > 10_000


def test_hash_collisions_cost_time_never_a_match(monkeypatch):
    # With base 1 a span's hash is the sum of its code points, so "ab" and
    # "ba", or "a b" and "b a", collide, as do keys and unrelated spans;
    # checking each hashed match against its key's text keeps the matches,
    # the rewrite and the found keys exact.
    keys = ["ab", "ba", "a b", "b a", "ab ba", "c"]
    text = "ab ba a b b a ab ba ba ab c b-a a-b ab  ba"
    rng = random.Random(912)
    cases = [(keys, text)] + [
        (random_keys(rng, "ab -"), "".join(rng.choice("ab -") for _ in range(40)))
        for _ in range(300)]
    monkeypatch.setattr(rewriter, "_HASH_BASE", 1)
    index = build_index({k: k for k in keys})
    assert (index.last - index.first).max() > 1  # distinct keys share a hash
    for case_keys, case_text in cases:
        mapping = {k: f"<{i}>" for i, k in enumerate(case_keys)}
        index = build_index(mapping)
        want = brute_force_scan(case_keys, case_text)
        assert scanned(index, case_text) == want, (case_keys, case_text)
        assert rewrite_text(index, case_text) == quadratic_rewrite(mapping, case_text)
        assert find_keys(index, case_text) == {key for _, _, key in want}


def test_spans_against_brute_force_on_long_texts_of_generated_names():
    rng = random.Random(1234)
    syllables = ["ka", "lo", "mi", "re", "su", "tan", "vel", "é", "٣"]
    leads = ["", "", "", "(", "-", "_", "'", ".", "7"]
    glue = [" ", " ", ", ", ". ", " (", ") ", "-", "_", "'"]
    found = 0
    for _ in range(20):
        names = sorted({rng.choice(leads) + " ".join(
            "".join(rng.choice(syllables) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))) for _ in range(60)})
        words = names + ["the", "ka", "of", "mire"]
        text = "".join(rng.choice(words) + rng.choice(glue) for _ in range(400))
        matches = scan_keys(names, text)
        assert matches == brute_force_scan(names, text)
        found += len(matches)
    assert found > 2000, found


def test_spans_return_key_numbers():
    index = build_index({"New York": "NY", "York": "Y", "Yorkshire": "YS"})
    assert index.keys == ("New York", "York", "Yorkshire")
    assert index.values == ("NY", "Y", "YS")
    starts, ends, keys = spans(index, "New York, York and Yorkshire")
    assert (starts.tolist(), ends.tolist(), keys.tolist()) \
        == ([0, 4, 10, 19], [8, 8, 14, 28], [0, 1, 1, 2])
    assert all(not len(found) for found in spans(index, "no mention here"))
    assert all(not len(found) for found in spans(build_index({}), "York"))


def test_select_takes_the_longest_key_and_skips_nested_matches():
    text = "New York, York and Yorkshire"
    index = build_index({"New York": "NY", "York": "Y"})
    starts, ends, _ = spans(index, text)
    assert list(select(starts.tolist(), ends.tolist())) == [1, 0, 1]
    assert rewrite_text(index, text) == "NY, Y and Yorkshire"
    # spans that already are a greedy selection are all taken
    assert list(select([0, 10], [8, 14])) == [1, 1]
    assert select([], []) == bytearray()
    # at one start the shorter key comes first; the longer one wins
    index = build_index({"aa": "1", "aa aaa": "2", "aaa": "3"})
    starts, ends, _ = spans(index, "aa aaa")
    assert (starts.tolist(), ends.tolist()) == ([0, 0, 3], [2, 6, 6])
    assert list(select(starts.tolist(), ends.tolist())) == [0, 1, 0]
    assert rewrite_text(index, "aa aaa") == "2"


def test_fuzz_long_texts_against_reference():
    rng = random.Random(77)
    words = ["alpha", "beta", "gamma", "beta gamma", "delta", "al", "alphabet"]
    mapping = {w: w.upper() for w in words}
    index = build_index(mapping)
    for _ in range(60):
        text = " ".join(rng.choice(words + ["unrelated", "al-pha", "x"]) for _ in range(400))
        assert rewrite_text(index, text) == quadratic_rewrite(mapping, text)


def rewrite_all(kg, mapping):
    index = build_index(mapping)
    return {eid: rewrite_text(index, text) for eid, text in kg.descriptions.items()}


def test_identity_map_keeps_descriptions(family_kg):
    identity = {name: name for _, name in family_kg.entities}
    assert rewrite_all(family_kg, identity) == family_kg.descriptions


def test_rewritten_descriptions_mention_new_names(family_kg):
    mapping = {"Johann Bernoulli": "Leonhard Euler", "Basel": "Zurich"}
    rewritten = rewrite_all(family_kg, mapping)
    assert rewritten["e2"] == "Daniel Bernoulli, son of Leonhard Euler, worked in Saint Petersburg."
    assert rewritten["e1"] == "Leonhard Euler was a mathematician born in Zurich."
    assert rewritten["e4"] == family_kg.descriptions["e4"]
    assert rewritten == {eid: quadratic_rewrite(mapping, text)
                         for eid, text in family_kg.descriptions.items()}


def test_rewrite_changes_only_descriptions_mentioning_a_key(family_kg):
    rewritten = rewrite_all(family_kg, {"Basel": "X"})
    assert list(rewritten) == list(family_kg.descriptions)
    assert {eid for eid, text in rewritten.items() if text != family_kg.descriptions[eid]} \
        == {eid for eid, text in family_kg.descriptions.items() if "Basel" in text}


def test_single_pass_spans_never_overlap():
    # Each output chunk comes from exactly one input span: rewriting with
    # markers and lengths lets us reconstruct the consumed spans.
    mapping = {"aa": "1", "aaa": "2"}
    index = build_index(mapping)
    assert rewrite_text(index, "aaa aa aaaa") == "2 1 aaaa"


def test_index_scales_to_many_keys():
    mapping = {f"entity number {i} name": str(i) for i in range(20000)}
    index = build_index(mapping)
    assert index.values[index.keys.index("entity number 19999 name")] == "19999"
    assert find_keys(index, "entity number 20000 name") == set()
    text = "we saw entity number 137 name near entity number 9999 name today"
    assert rewrite_text(index, text) == "we saw 137 near 9999 today"


def test_index_memory_per_key_character():
    # On these names a trie with one dict per character node allocates about
    # 55 bytes per key character (140-175 on generated graph names); the map
    # of keys and boundary-ended prefixes allocates about 5.
    mapping = {f"entity number {i} name": str(i) for i in range(20000)}
    chars = sum(map(len, mapping))
    build_index({"warm up": ""})
    tracemalloc.start()
    try:
        index = build_index(mapping)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rewrite_text(index, "entity number 7 name") == "7"
    assert allocated / chars < 25, allocated / chars
