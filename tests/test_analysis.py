import math
import random

import numpy as np
import pytest

from kgsynth.analysis import (
    description_leakage,
    iqr_outliers,
    pearson_matrix,
    relation_distribution,
)
from kgsynth.kg import SPLITS, from_triples
from kgsynth.transform import apply_recipe

from conftest import make_kg, random_kg


# --- relation_distribution ------------------------------------------------------

def test_single_relation_per_entity_is_all_bucket_one():
    kg = make_kg(
        entities=["e1", "e2", "e3", "e4"],
        relations=["r1", "r2"],
        train=[("e1", "r1", "e2"), ("e3", "r2", "e4")],
    )
    table = relation_distribution(kg)
    assert table.percentages["train"]["1"] == 100.0
    assert table.percentages["total"]["1"] == 100.0


def test_relation_distribution_hand_case(family_kg):
    # Train incidences: e1 carries r1,r2,r3; e2 r1,r3,r4; e3 r1,r2; e4 r1; e5 r4.
    table = relation_distribution(family_kg)
    train = table.percentages["train"]
    assert train["1"] == pytest.approx(40.0)
    assert train["2"] == pytest.approx(20.0)
    assert train["3"] == pytest.approx(40.0)
    assert train["Over"] == 0.0


def test_relation_distribution_matches_naive_recount():
    rng = random.Random(404)
    for _ in range(10):
        kg = random_kg(rng, n_entities=30, n_relations=6, n_train=50, n_valid=8, n_test=8)
        table = relation_distribution(kg)
        scopes = {s: kg.split(s) for s in SPLITS}
        scopes["total"] = kg.all_triples
        for column, triples in scopes.items():
            counts = {}
            for eid in kg.entity_ids:
                rels = {r for h, r, t in triples if h == eid or t == eid}
                if rels:
                    counts[eid] = len(rels)
            for bucket in ("1", "2", "3", "4", "5", "Over"):
                expected = sum(
                    1 for c in counts.values()
                    if (str(c) == bucket if c <= 5 else bucket == "Over")
                )
                got = table.percentages[column][bucket]
                assert got == 100.0 * expected / len(counts), (column, bucket)


def test_relation_distribution_columns_sum_to_100(family_kg):
    table = relation_distribution(family_kg)
    for column, buckets in table.percentages.items():
        assert sum(buckets.values()) == pytest.approx(100.0, abs=0.1), column


# --- description_leakage ----------------------------------------------------------

def test_leakage_zero_when_nothing_mentioned():
    kg = make_kg(
        entities=[("e1", "Alpha"), ("e2", "Beta")],
        relations=["r1"],
        train=[("e1", "r1", "e2")],
        descriptions={"e1": "no names here", "e2": "nothing either"},
    )
    table = description_leakage(kg)
    assert table.percentages["total"] == 0.0


def test_leakage_zero_on_a_graph_with_no_entities():
    kg = from_triples((), (), (), (), (), {})
    assert kg.mentions.offsets.tolist() == [0]
    assert description_leakage(kg).percentages == dict.fromkeys((*SPLITS, "total"), 0.0)


def test_leakage_hand_marked_worksheet(family_kg):
    table = description_leakage(family_kg)
    assert table.percentages["train"] == pytest.approx(100.0 * 4 / 10)
    assert table.percentages["valid"] == pytest.approx(0.0)
    assert table.percentages["test"] == pytest.approx(100.0 * 1 / 2)
    assert table.percentages["total"] == pytest.approx(100.0 * 5 / 14)


def test_leakage_uses_token_boundaries():
    # "Basel" inside "Baselland" must not count as a mention.
    kg = make_kg(
        entities=[("e1", "Basel"), ("e2", "Rhine")],
        relations=["r1"],
        train=[("e2", "r1", "e1")],
        descriptions={"e2": "Baselland borders the city", "e1": ""},
    )
    assert description_leakage(kg).percentages["total"] == 0.0
    kg2 = make_kg(
        entities=[("e1", "Basel"), ("e2", "Rhine")],
        relations=["r1"],
        train=[("e2", "r1", "e1")],
        descriptions={"e2": "Basel borders the river", "e1": ""},
    )
    assert description_leakage(kg2).percentages["total"] == pytest.approx(50.0)


def test_leakage_invariant_under_virtual_world(family_kg):
    before = description_leakage(family_kg)
    shuffled, _ = apply_recipe(family_kg, "virtual_world", {"entities", "relations"}, 17)
    after = description_leakage(shuffled)
    assert after == before


def test_leakage_invariance_on_random_fixtures():
    rng = random.Random(2025)
    for trial in range(8):
        kg = random_kg(rng, n_entities=9, n_relations=3, n_train=12, n_valid=2, n_test=2)
        shuffled, _ = apply_recipe(kg, "virtual_world", {"entities"}, trial)
        assert description_leakage(shuffled) == description_leakage(kg)


# Names that nest in and overlap each other ("New York", "York City"), an
# empty name, and non-ASCII letters (é, ß, Æ) and digits (٣) at boundaries.
LEAK_NAMES = ["New York", "York", "New", "York City", "Zürich", "Zürich 2", "ßé", "é", "٣",
              "x٣", "a b", "b", "Æon", ""]
# Glue between words: some of it is a token boundary, some a word character.
LEAK_GLUE = [" ", " ", " ", "-", ".", "", "é", "٣", "_"]


def _leak_kg(rng):
    """Random graph with homonyms, empty names and descriptions glued from
    entity names (an entity's own among them), other words and glue."""
    n = rng.randint(8, 20)
    names = [rng.choice(LEAK_NAMES) for _ in range(n)]
    entities = [(f"e{i}", name) for i, name in enumerate(names)]
    descriptions = {}
    for i in range(n):
        words = [rng.choice(names + ["town", "Yorker", names[i]])
                 for _ in range(rng.randint(0, 8))]
        descriptions[f"e{i}"] = "".join(word + rng.choice(LEAK_GLUE) for word in words)
    triples = list(dict.fromkeys((f"e{rng.randrange(n)}", f"r{rng.randrange(3)}",
                                  f"e{rng.randrange(n)}") for _ in range(3 * n)))
    a, b = len(triples) * 3 // 5, len(triples) * 4 // 5
    return make_kg(entities, [(f"r{i}", f"rel{i}") for i in range(3)], train=triples[:a],
                   valid=triples[a:b], test=triples[b:], descriptions=descriptions)


def _mentions(name, text):
    """Whether ``name`` occurs in ``text`` with no letter or digit on either side."""
    return bool(name) and any(
        text.startswith(name, i)
        and (i == 0 or not text[i - 1].isalnum())
        and (i + len(name) == len(text) or not text[i + len(name)].isalnum())
        for i in range(len(text) - len(name) + 1))


def _brute_force_leakage(kg):
    """Each (triple, direction) case checked on its own: the answer's name in
    the known entity's description."""
    names, texts = kg.entity_names, kg.descriptions
    found = {split: sum(_mentions(names[t], texts[h]) + _mentions(names[h], texts[t])
                        for h, _, t in kg.split(split)) for split in SPLITS}
    cases = {split: 2 * len(kg.split(split)) for split in SPLITS}
    percentages = {split: 100.0 * found[split] / cases[split] if cases[split] else 0.0
                   for split in SPLITS}
    total = sum(cases.values())
    percentages["total"] = 100.0 * sum(found.values()) / total if total else 0.0
    return percentages, sum(found.values())


def test_leakage_matches_a_per_case_brute_force():
    # on each graph and its vw-e variant, whose descriptions name the new names
    rng = random.Random(616)
    hits = 0
    for trial in range(60):
        kg = _leak_kg(rng)
        for graph in (kg, apply_recipe(kg, "virtual_world", {"entities"}, trial)[0]):
            expected, found = _brute_force_leakage(graph)
            assert description_leakage(graph).percentages == expected, trial
            hits += found
    assert hits > 1000, hits


# --- pearson_matrix -----------------------------------------------------------------

def test_pearson_perfect_positive():
    matrix = pearson_matrix({"x": [1, 2, 3], "y": [2, 4, 6]})
    assert matrix.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_negative():
    matrix = pearson_matrix({"x": [1, 2, 3], "y": [3, 2, 1]})
    assert matrix.values[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_pearson_affine_transforms():
    rng = random.Random(10)
    x = [rng.random() for _ in range(20)]
    for a, expected in ((2.5, 1.0), (-0.7, -1.0)):
        y = [a * v + 3.0 for v in x]
        matrix = pearson_matrix({"x": x, "y": y})
        assert matrix.values[0, 1] == pytest.approx(expected, abs=1e-9)


def test_pearson_matches_textbook_formula():
    rng = random.Random(123)
    for _ in range(10):
        n = rng.randint(3, 30)
        series = {name: [rng.gauss(0, 1) for _ in range(n)] for name in ("a", "b", "c")}
        matrix = pearson_matrix(series)
        for i, first in enumerate(("a", "b", "c")):
            for j, second in enumerate(("a", "b", "c")):
                x, y = series[first], series[second]
                mx, my = sum(x) / n, sum(y) / n
                cov = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
                sx = math.sqrt(sum((xi - mx) ** 2 for xi in x))
                sy = math.sqrt(sum((yi - my) ** 2 for yi in y))
                assert matrix.values[i, j] == pytest.approx(cov / (sx * sy), abs=1e-12)
        assert np.allclose(matrix.values, matrix.values.T)
        assert np.allclose(np.diag(matrix.values), 1.0)


def test_pearson_zero_variance_names_series():
    with pytest.raises(ValueError, match="flat"):
        pearson_matrix({"ok": [1.0, 2.0], "flat": [5.0, 5.0]})


def test_pearson_length_mismatch():
    with pytest.raises(ValueError):
        pearson_matrix({"a": [1, 2, 3], "b": [1, 2]})


# --- iqr_outliers ----------------------------------------------------------------------

def test_iqr_textbook_example():
    # Q1 = 2, Q3 = 4 under linear interpolation; fences at -1 and 7.
    report = iqr_outliers([1, 2, 3, 4, 100])
    assert report.outliers == frozenset({100})
    assert report.q1 == pytest.approx(2.0)
    assert report.q3 == pytest.approx(4.0)
    assert report.upper_fence == pytest.approx(7.0)


def test_iqr_constant_list_has_no_outliers():
    assert iqr_outliers([5, 5, 5, 5]).outliers == frozenset()


def test_iqr_symmetric_list_has_no_outliers():
    # [1..6]: Q1 = 2.25, Q3 = 4.75, IQR = 2.5, fences at -1.5 and 8.5.
    report = iqr_outliers([1, 2, 3, 4, 5, 6])
    assert report.outliers == frozenset()
    assert report.lower_fence == pytest.approx(-1.5)
    assert report.upper_fence == pytest.approx(8.5)


def test_iqr_requires_four_values():
    with pytest.raises(ValueError):
        iqr_outliers([1, 2, 3])


def test_iqr_convention_is_stamped():
    report = iqr_outliers([1, 2, 3, 4])
    assert "linear interpolation" in report.quartile_method
    assert "quartile_method" in report.to_text()
