import random
import string
import tracemalloc
from array import array

import pytest

from kgsynth.rewriter import (
    build_index,
    find_keys,
    join,
    rewrite_descriptions,
    rewrite_text,
    scan,
)


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
    """Reference scanner: try every key at every boundary position."""
    matches = []
    for i in range(len(text)):
        if i and text[i - 1].isalnum():
            continue
        for key in keys:
            j = i + len(key)
            if text[i:j] == key and (j == len(text) or not text[j].isalnum()):
                matches.append((i, j))
    return [bound for match in sorted(matches) for bound in match]


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


def test_lookup_membership_exactness():
    mapping = {f"name {i}": f"repl {i}" for i in range(500)}
    index = build_index(mapping)
    for key, value in mapping.items():
        assert index.lookup(key) == value
    rng = random.Random(4)
    for _ in range(500):
        probe = "".join(rng.choice(string.ascii_lowercase + " ") for _ in range(8))
        assert (index.lookup(probe) == mapping.get(probe)) or probe not in mapping
    assert sum(value is not None for value in index.values()) == 500


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


def test_fuzz_scan_and_join_against_reference():
    # Non-ASCII letters (é, ß) and digits (٣, ７) count as word characters at
    # key boundaries; "_", "-" and "." do not.
    rng = random.Random(808)
    alphabet = "aé ٣-ß.７_"
    for _ in range(800):
        keys = random_keys(rng, alphabet)
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        mapping = {k: f"<{i}>" for i, k in enumerate(keys)}
        matches = scan(build_index(mapping), text)
        got = join(text, matches, mapping.__getitem__)
        assert got == quadratic_rewrite(mapping, text), (mapping, text)


def test_fuzz_scan_against_brute_force():
    # Texts are glued from keys and single characters, so keys nest, overlap
    # and share starts.
    rng = random.Random(909)
    alphabet = "aé ٣-ß.７_"
    found = nested = 0
    for _ in range(800):
        keys = random_keys(rng, alphabet)
        text = "".join(rng.choice(keys + list(alphabet)) for _ in range(rng.randint(0, 20)))
        index = build_index({k: k for k in keys})
        matches = scan(index, text)
        assert list(matches) == brute_force_scan(keys, text), (keys, text)
        assert find_keys(index, text) == {text[s:e] for s, e in zip(matches[::2], matches[1::2])}
        found += len(matches) // 2
        nested += sum(matches[k + 2] < matches[k + 1] for k in range(0, len(matches) - 2, 2))
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
], ids=["paren-then-word", "paren-nested", "one-char-punctuation", "underscore",
        "newline", "class-metacharacters", "non-ascii"])
def test_scan_against_brute_force_on_key_starts(keys, text):
    assert list(scan(build_index({k: k for k in keys}), text)) == brute_force_scan(keys, text)


def test_scan_against_brute_force_on_long_texts_of_generated_names():
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
        matches = scan(build_index({name: name for name in names}), text)
        assert list(matches) == brute_force_scan(names, text)
        found += len(matches) // 2
    assert found > 2000, found


def test_scan_returns_flat_matches():
    index = build_index({"New York": "", "York": ""})
    text = "New York, York and Yorkshire"
    assert list(scan(index, text)) == [0, 8, 4, 8, 10, 14]
    assert not scan(index, "no mention here")
    assert not scan(build_index({}), text)


def test_scan_records_the_value_of_each_match():
    index = build_index({"New York": 0, "York": 1, "Yorkshire": 2})
    index.record = array("i")
    assert list(scan(index, "New York, York and Yorkshire")) == [0, 8, 4, 8, 10, 14, 19, 28]
    assert list(index.record) == [0, 1, 1, 2]


def test_join_takes_the_longest_key_and_skips_nested_matches():
    text = "New York, York and Yorkshire"
    replace = {"New York": "NY", "York": "Y"}.__getitem__
    assert join(text, [0, 8, 4, 8, 10, 14], replace) == "NY, Y and Yorkshire"
    # greedy spans are valid input too
    assert join(text, [0, 8, 10, 14], replace) == "NY, Y and Yorkshire"
    assert join(text, [], replace) == text
    # at one start the shorter key comes first; the longer one wins
    assert join("aa aaa", [0, 2, 0, 6, 3, 6], {"aa": "1", "aa aaa": "2", "aaa": "3"}.__getitem__) \
        == "2"


def test_fuzz_long_texts_against_reference():
    rng = random.Random(77)
    words = ["alpha", "beta", "gamma", "beta gamma", "delta", "al", "alphabet"]
    mapping = {w: w.upper() for w in words}
    index = build_index(mapping)
    for _ in range(60):
        text = " ".join(rng.choice(words + ["unrelated", "al-pha", "x"]) for _ in range(400))
        assert rewrite_text(index, text) == quadratic_rewrite(mapping, text)


def test_rewrite_descriptions_identity_map(family_kg):
    identity = {name: name for _, name in family_kg.entities}
    assert rewrite_descriptions(family_kg, identity) == family_kg.descriptions


def test_rewrite_descriptions_mentions_new_names(family_kg):
    mapping = {"Johann Bernoulli": "Leonhard Euler", "Basel": "Zurich"}
    rewritten = rewrite_descriptions(family_kg, mapping)
    assert rewritten["e2"] == "Daniel Bernoulli, son of Leonhard Euler, worked in Saint Petersburg."
    assert rewritten["e1"] == "Leonhard Euler was a mathematician born in Zurich."
    assert rewritten["e4"] == family_kg.descriptions["e4"]


def test_rewrite_descriptions_keeps_ids_and_order(family_kg):
    rewritten = rewrite_descriptions(family_kg, {"Basel": "X"})
    assert list(rewritten) == list(family_kg.descriptions)


def test_single_pass_spans_never_overlap():
    # Each output chunk comes from exactly one input span: rewriting with
    # markers and lengths lets us reconstruct the consumed spans.
    mapping = {"aa": "1", "aaa": "2"}
    index = build_index(mapping)
    assert rewrite_text(index, "aaa aa aaaa") == "2 1 aaaa"


def test_index_scales_to_many_keys():
    mapping = {f"entity number {i} name": str(i) for i in range(20000)}
    index = build_index(mapping)
    assert index.lookup("entity number 19999 name") == "19999"
    assert index.lookup("entity number 20000 name") is None
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
    assert index.lookup("entity number 7 name") == "7"
    assert allocated / chars < 25, allocated / chars
