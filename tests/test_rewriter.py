import random
import string

import pytest

from kgsynth.rewriter import (
    build_index,
    find_keys,
    join,
    rewrite_descriptions,
    rewrite_text,
    segment,
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
    assert index.size == 500


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


def test_fuzz_segment_and_join_against_reference():
    # Non-ASCII letters (é, ß) and digits (٣, ７) count as word characters at
    # key boundaries; "_", "-" and "." do not.
    rng = random.Random(808)
    alphabet = "aé ٣-ß.７_"
    for _ in range(800):
        keys = {
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 8))
        }
        mapping = {k: f"<{i}>" for i, k in enumerate(sorted(keys))}
        index = build_index(mapping)
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        spans = segment(index, text)
        assert all(text[s:e] in mapping for s, e in zip(spans[::2], spans[1::2]))
        assert list(spans) == sorted(spans), (mapping, text, spans)
        got = join(text, spans, mapping.__getitem__)
        assert got == quadratic_rewrite(mapping, text), (mapping, text)


def test_segment_returns_flat_spans():
    index = build_index({"New York": "", "York": ""})
    text = "New York, York and Yorkshire"
    assert list(segment(index, text)) == [0, 8, 10, 14]
    assert not segment(index, "no mention here")
    assert not segment(build_index({}), text)


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
