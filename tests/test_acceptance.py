"""Acceptance suite: one test per criterion, printing one PASS line each.

Real-dataset checks (public WN18RR / FB15k-237 / Wikidata5m) run only when
KGSYNTH_DATA points at a directory holding the converted datasets under
wn18rr/, fb15k-237/ and wikidata5m/; fixture equivalents always run. The
full-scale baseline invariance run is additionally gated behind
KGSYNTH_FULL_TRANSE=1 (hours, not minutes).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import itertools
import os
import random
import resource
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from kgsynth.analysis import (
    description_leakage,
    iqr_outliers,
    pearson_matrix,
    relation_distribution,
)
from kgsynth.derangement import bipartite_derange, derange
from kgsynth.errors import InfeasibleError
from kgsynth.evaluate import (
    Query,
    compute_metrics,
    pessimistic_rank,
    rank_gold,
    rank_split,
    split_queries,
)
from kgsynth.kg import (
    compute_stats,
    from_triples,
    load_dataset,
    stream_stats,
    write_dataset,
)
from kgsynth.rewriter import build_index, find_keys, rewrite_text
from kgsynth.textgen import EOS, fit_unigram, sample_unique_strings
from kgsynth.transe import TrainConfig, evaluate_model, margin_loss_and_grads, train
from kgsynth.transform import SUITE_VARIANTS, apply_recipe, generate_suite

from conftest import make_kg, random_kg
from test_derangement import brute_force_satisfiable, check_result
from test_evaluate import reference_rank
from test_rewriter import quadratic_rewrite
from test_transform import assert_structure_preserved

DATA_DIR = os.environ.get("KGSYNTH_DATA")

TABLE3 = {
    "wn18rr": (40943, 11, 86835, 3034, 3134),
    "fb15k-237": (14541, 237, 272115, 17535, 20466),
    "wikidata5m": (4594485, 822, 20614279, 5163, 6894),
}


def _real(name: str) -> Path | None:
    if not DATA_DIR:
        return None
    path = Path(DATA_DIR) / name
    return path if path.is_dir() else None


def _report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_01_dataset_stats(family_kg, tmp_path):
    write_dataset(family_kg, tmp_path / "fixture")
    loaded = load_dataset(tmp_path / "fixture")
    assert compute_stats(loaded).as_tuple() == (5, 4, 5, 1, 1)
    assert stream_stats(tmp_path / "fixture") == compute_stats(loaded)

    checked = []
    for name, expected in TABLE3.items():
        root = _real(name)
        if root is None:
            continue
        start = time.monotonic()
        got = stream_stats(root).as_tuple()
        elapsed = time.monotonic() - start
        assert got == expected, (name, got)
        budget = 600 if name == "wikidata5m" else 60
        assert elapsed < budget, (name, elapsed)
        checked.append(name)
    extra = f"real data: {', '.join(checked)}" if checked else "real data skipped (KGSYNTH_DATA unset)"
    _report(1, f"fixture stats exact; {extra}")


def test_criterion_02_relation_distribution(family_kg):
    table = relation_distribution(family_kg)
    # hand recount: train has e1->{r1,r2,r3}, e2->{r1,r3,r4}, e3->{r1,r2}, e4->{r1}, e5->{r4}
    assert table.percentages["train"]["1"] == pytest.approx(40.0)
    assert table.percentages["train"]["2"] == pytest.approx(20.0)
    assert table.percentages["train"]["3"] == pytest.approx(40.0)
    for column, buckets in table.percentages.items():
        assert sum(buckets.values()) == pytest.approx(100.0, abs=0.1), column

    checked = []
    wn = _real("wn18rr")
    if wn is not None:
        got = relation_distribution(load_dataset(wn)).percentages["test"]
        assert abs(got["1"] - 97.51) <= 0.5
        assert abs(got["2"] - 2.49) <= 0.5
        checked.append("wn18rr test column")
    fb = _real("fb15k-237")
    if fb is not None:
        got = relation_distribution(load_dataset(fb)).percentages["train"]
        assert abs(got["1"] - 13.52) <= 0.5
        checked.append("fb15k-237 train bucket 1")
    extra = "; ".join(checked) if checked else "real data skipped (KGSYNTH_DATA unset)"
    _report(2, f"fixture distribution exact vs recount; {extra}")


def test_criterion_03_description_leakage(family_kg):
    table = description_leakage(family_kg)
    assert table.percentages["train"] == pytest.approx(100.0 * 4 / 10)
    assert table.percentages["total"] == pytest.approx(100.0 * 5 / 14)

    expected_total = {"wn18rr": 15.06, "fb15k-237": 5.92, "wikidata5m": 4.58}
    checked = []
    for name, expected in expected_total.items():
        root = _real(name)
        if root is None:
            continue
        got = description_leakage(load_dataset(root)).percentages["total"]
        assert abs(got - expected) <= 1.0, (name, got)
        checked.append(f"{name} total {got:.2f} vs {expected}")
    extra = "; ".join(checked) if checked else "real data skipped (KGSYNTH_DATA unset)"
    _report(3, f"fixture worksheet exact; {extra}")


def test_criterion_04_derangement_suite():
    start = time.monotonic()
    rng = random.Random(20250401)

    trials = 10_000
    for _ in range(trials // 2):
        n = rng.randint(2, 100)
        items = [f"v{rng.randrange(n)}" for _ in range(n)]
        try:
            result = derange(items, seed=rng.randrange(2**62))
        except InfeasibleError:
            assert 2 * Counter(items).most_common(1)[0][1] > n
            continue
        check_result(items, set(), result)
    for _ in range(trials // 2):
        n = rng.randint(2, 100)
        arr = [f"v{rng.randrange(max(2, n))}" for _ in range(n)]
        values = sorted(set(arr))
        removed = set()
        if len(values) >= 2:
            for _ in range(rng.randrange(4)):
                x, y = rng.sample(values, 2)
                removed.add((x, y))
        try:
            result = bipartite_derange(arr, removed, seed=rng.randrange(2**62))
        except InfeasibleError:
            continue
        check_result(arr, removed, result)

    # Feasibility agreement with exhaustive permutation search for n <= 7:
    # all arrays over a 3-letter alphabet up to n = 6, the full 2-letter space
    # at n = 7, and sampled 3-letter arrays at n = 7; random removed sets each.
    def agree(arr, removed):
        expected = brute_force_satisfiable(arr, removed)
        try:
            result = bipartite_derange(list(arr), removed, seed=rng.randrange(2**30))
            check_result(list(arr), removed, result)
            assert expected, (arr, removed)
        except InfeasibleError:
            assert not expected, (arr, removed)

    def removed_sets(arr):
        values = sorted(set(arr))
        pairs = [(x, y) for x in values for y in values if x != y]
        yield set()
        if pairs:
            yield set(rng.sample(pairs, min(2, len(pairs))))

    for n in range(2, 7):
        for arr in itertools.product("abc", repeat=n):
            for removed in removed_sets(arr):
                agree(arr, removed)
    for arr in itertools.product("ab", repeat=7):
        for removed in removed_sets(arr):
            agree(arr, removed)
    for _ in range(150):
        arr = tuple(rng.choice("abc") for _ in range(7))
        for removed in removed_sets(arr):
            agree(arr, removed)

    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 4 took {elapsed:.1f}s"
    _report(4, f"10^4 trials + exhaustive n<=7 agreement in {elapsed:.1f}s")


def test_criterion_05_structure_preservation(family_kg, tmp_path):
    start = time.monotonic()
    results = generate_suite(family_kg, seed=1001, output_dir=tmp_path / "suite")
    assert len(results) == len(SUITE_VARIANTS) == 13
    non_base = 0
    for result in results:
        assert result.ok, (result.label, result.error)
        if result.kind == "base":
            continue
        non_base += 1
        after = load_dataset(result.path)
        assert_structure_preserved(family_kg, after, result.mapping)
    assert non_base == 12

    wn = _real("wn18rr")
    timing = ""
    if wn is not None:
        wn_kg = load_dataset(wn)
        wn_start = time.monotonic()
        wn_results = generate_suite(wn_kg, seed=7, output_dir=tmp_path / "wn-suite")
        for result in wn_results:
            assert result.ok, (result.label, result.error)
            if result.kind == "base":
                continue
            assert_structure_preserved(wn_kg, load_dataset(result.path), result.mapping)
        wn_elapsed = time.monotonic() - wn_start
        assert wn_elapsed < 300, wn_elapsed
        timing = f"; wn18rr suite in {wn_elapsed:.0f}s"

    # synthetic scale check: 1M entities through anon-er inside the memory budget
    n = 1_000_000
    rng = random.Random(0)
    words = ["alpha", "beta", "gamma", "delta", "omega", "kappa", "sigma", "theta"]
    entities = tuple((f"e{i}", f"{rng.choice(words)} {rng.choice(words)} {i}") for i in range(n))
    names = [name for _, name in entities]
    big = from_triples(
        entities=entities,
        relations=tuple((f"r{i}", f"relation {i}") for i in range(100)),
        train=tuple((f"e{i}", f"r{i % 100}", f"e{(i + 1) % n}") for i in range(n)),
        valid=(),
        test=(),
        descriptions={
            f"e{i}": f"{names[i]} sits beside {names[(i * 7 + 3) % n]}" for i in range(n)
        },
    )
    out, mapping = apply_recipe(big, "anonymized_entities", {"entities", "relations"}, 3)
    assert len(set(mapping.entity_map.values())) == n
    assert out.train == big.train
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 / 1024
    assert peak_gb < 8.0, f"peak RSS {peak_gb:.2f} GB"

    elapsed = time.monotonic() - start
    _report(5, f"12 variants isomorphic; 1M-entity anon-er peak {peak_gb:.2f} GB, "
               f"{elapsed:.0f}s total{timing}")


def test_criterion_06_unigram_sampler():
    model = fit_unigram(["ab", "b"])
    rng = random.Random(606)
    draws = 1_000_000
    counts = Counter(model.sample_symbol(rng) for _ in range(draws))
    for symbol, expected in (("a", 0.2), ("b", 0.4), (EOS, 0.4)):
        assert abs(counts[symbol] / draws - expected) < 0.005, symbol

    # richer model: every character stays inside the absolute envelope
    corpus = ["Johann Bernoulli", "Basel", "Saint Petersburg", "wasBornIn", "hasChild"]
    rich = fit_unigram(corpus)
    counts = Counter(rich.sample_symbol(rng) for _ in range(draws))
    for char, p in rich.probabilities.items():
        assert abs(counts[char] / draws - p) < 0.005, char
    assert abs(counts[EOS] / draws - rich.eos_probability) < 0.005

    forbidden = set(corpus)
    sampled = sample_unique_strings(rich, 20_000, forbidden, seed=1)
    assert len(set(sampled)) == 20_000
    assert not set(sampled) & forbidden
    _report(6, "10^6 symbol draws within +/-0.5% absolute; 20k unique strings, 0 violations")


def test_criterion_07_rewriter_oracle(tmp_path):
    rng = random.Random(707)
    alphabet = "ab xy-"
    for _ in range(10_000):
        keys = {
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6))).strip("-")
            for _ in range(rng.randint(1, 6))
        }
        keys.discard("")
        if not keys:
            continue
        mapping = {k: f"<{i}>" for i, k in enumerate(sorted(keys))}
        index = build_index(mapping)
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        assert rewrite_text(index, text) == quadratic_rewrite(mapping, text), (mapping, text)

    def residual_check(kg):
        shuffled, mapping = apply_recipe(kg, "anonymized_entities", {"entities"}, 11)
        multiword = {
            name for _, name in kg.entities if len(name.split()) > 1
        }
        original_index = build_index({name: name for _, name in kg.entities if name})
        residuals = set()
        for text in shuffled.descriptions.values():
            residuals |= find_keys(original_index, text) & multiword
        assert residuals == set(), residuals

    # fixture-scale stand-in for the full WN18RR residual scan
    rng2 = random.Random(3)
    words = ["north", "south", "river", "valley", "union", "park", "city", "old", "new"]
    n = 2000
    entities = [(f"e{i}", f"{rng2.choice(words)} {rng2.choice(words)} {i}") for i in range(n)]
    namelist = [name for _, name in entities]
    kg = make_kg(
        entities=entities,
        relations=[("r1", "borders")],
        train=[(f"e{i}", "r1", f"e{(i + 1) % n}") for i in range(n)],
        descriptions={
            f"e{i}": f"{namelist[i]} lies near {namelist[(i * 3 + 1) % n]}" for i in range(n)
        },
    )
    residual_check(kg)

    checked = "real data skipped (KGSYNTH_DATA unset)"
    wn = _real("wn18rr")
    if wn is not None:
        residual_check(load_dataset(wn))
        checked = "wn18rr residual scan clean"
    _report(7, f"10^4 fuzz cases equal reference; zero multi-word residuals; {checked}")


def test_criterion_08_metrics_oracle():
    kg = make_kg(
        entities=[f"e{i}" for i in range(6)],
        relations=["r1", "r2"],
        train=[("e0", "r1", "e1"), ("e0", "r1", "e2"), ("e3", "r2", "e4")],
        valid=[("e0", "r1", "e3")],
        test=[("e0", "r1", "e4"), ("e5", "r2", "e0")],
    )
    rng = random.Random(808)
    queries = split_queries(kg) + split_queries(kg, "valid")
    for _ in range(50):
        scores = {eid: rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for eid in kg.entity_ids}
        for query in queries:
            for filtered in (False, True):
                got = rank_gold(scores, query, kg, filtered=filtered).gold_rank
                assert got == reference_rank(scores, query, kg, filtered)
        # the loop that every report ranks through, counting as evaluate_model
        # does, over the same table in entity row order; each query it hands
        # the ranker is named by ids, in the order of its ranks
        row_scores = np.array([scores[eid] for eid in kg.entity_ids])
        asked = {}

        def rank_chunk(queries, known, relation, gold, rivals):
            ranks = []
            for query, k, r, g, found in zip(queries, known.tolist(), relation.tolist(),
                                             gold.tolist(), rivals):
                asked[query] = Query((kg.entity_ids[k], kg.relation_ids[r]),
                                     ("tail", "head")[query % 2], kg.entity_ids[g])
                ranks.append(pessimistic_rank(row_scores, row_scores[g], row_scores[found]))
            return ranks

        for split in ("test", "valid"):
            for filtered in (False, True):
                asked.clear()
                ranks = rank_split(kg, split, filtered, rank_chunk)
                queries = [asked[i] for i in range(len(ranks))]
                assert queries == split_queries(kg, split)
                for query, rank in zip(queries, ranks.tolist()):
                    assert rank == reference_rank(scores, query, kg, filtered)

    from kgsynth.evaluate import RankingRecord, rank_metrics

    q = Query(known=("e0", "r1"), direction="tail", gold="e1")
    report = compute_metrics([RankingRecord(q, r) for r in (1, 2, 10)])
    assert rank_metrics(np.array([1, 2, 10])) == report
    assert abs(report.mrr - (1 + 0.5 + 0.1) / 3) < 1e-12
    assert abs(report.mr - 13 / 3) < 1e-12
    assert abs(report.hits[1] - 1 / 3) < 1e-12
    assert abs(report.hits[3] - 2 / 3) < 1e-12
    assert report.hits[10] == 1.0
    _report(8, "50 random tables equal brute force through rank_gold and rank_split; "
               "formula cases exact to 1e-12")


def test_criterion_09_transe_keystone_invariance(family_kg, tmp_path):
    start = time.monotonic()
    config = TrainConfig(dim=8, epochs=15, learning_rate=0.05, seed=77)

    def invariance(kg, label, train_config):
        results = generate_suite(kg, seed=13, output_dir=tmp_path / label)
        base_report = None
        for result in results:
            assert result.ok, (result.label, result.error)
            variant = load_dataset(result.path)
            report = evaluate_model(train(variant, train_config), variant, "test")
            if result.label == "base":
                base_report = report
            else:
                assert report == base_report, (label, result.label)

    invariance(family_kg, "family", config)
    rng = random.Random(99)
    invariance(
        random_kg(rng, n_entities=14, n_relations=5, n_train=30, n_valid=4, n_test=4,
                  unique_pairs=True),
        "random",
        config,
    )
    elapsed = time.monotonic() - start
    assert elapsed < 60, elapsed

    timing = ""
    if _real("wn18rr") is not None and os.environ.get("KGSYNTH_FULL_TRANSE") == "1":
        wn_kg = load_dataset(_real("wn18rr"))
        wn_config = TrainConfig(dim=50, epochs=20, learning_rate=0.01, seed=5)
        wn_start = time.monotonic()
        invariance(wn_kg, "wn-full", wn_config)
        wn_elapsed = time.monotonic() - wn_start
        assert wn_elapsed < 7200, wn_elapsed
        timing = f"; wn18rr-scale in {wn_elapsed:.0f}s"
    else:
        timing = "; wn18rr-scale skipped (KGSYNTH_DATA/KGSYNTH_FULL_TRANSE unset)"
    _report(9, f"bit-identical reports across 12 variants x 2 fixtures in {elapsed:.0f}s{timing}")


def test_criterion_10_gradient_check():
    rng = np.random.default_rng(1010)
    for norm in ("L1", "L2"):
        accepted = 0
        while accepted < 100:
            vecs = [rng.normal(size=6) for _ in range(5)]
            margin = 1.0
            diff_pos = vecs[0] + vecs[1] - vecs[2]
            diff_neg = vecs[3] + vecs[1] - vecs[4]
            d_pos = np.abs(diff_pos).sum() if norm == "L1" else np.linalg.norm(diff_pos)
            d_neg = np.abs(diff_neg).sum() if norm == "L1" else np.linalg.norm(diff_neg)
            if abs(margin + d_pos - d_neg) < 1e-3:
                continue
            if norm == "L1" and (np.abs(diff_pos).min() < 1e-3 or np.abs(diff_neg).min() < 1e-3):
                continue
            if norm == "L2" and (d_pos < 1e-3 or d_neg < 1e-3):
                continue
            accepted += 1
            _, grads = margin_loss_and_grads(*vecs, margin, norm)
            eps = 1e-6
            for k in range(5):
                fd = np.zeros(6)
                for i in range(6):
                    plus = [v.copy() for v in vecs]
                    minus = [v.copy() for v in vecs]
                    plus[k][i] += eps
                    minus[k][i] -= eps
                    fd[i] = (
                        margin_loss_and_grads(*plus, margin, norm)[0]
                        - margin_loss_and_grads(*minus, margin, norm)[0]
                    ) / (2 * eps)
                scale = max(1.0, np.linalg.norm(fd))
                assert np.linalg.norm(grads[k] - fd) <= 1e-4 * scale, (norm, k)
    _report(10, "100 probes per norm match central differences at 1e-4 relative")


def test_criterion_11_analysis_units():
    perfect = pearson_matrix({"x": [1.0, 2.0, 3.0], "y": [2.0, 4.0, 6.0]})
    assert perfect.values[0, 1] == pytest.approx(1.0, abs=1e-12)
    inverse = pearson_matrix({"x": [1.0, 2.0, 3.0], "y": [3.0, 2.0, 1.0]})
    assert inverse.values[0, 1] == pytest.approx(-1.0, abs=1e-12)
    report = iqr_outliers([1, 2, 3, 4, 100])
    assert report.outliers == frozenset({100})
    assert report.q1 == 2.0 and report.q3 == 4.0
    assert "linear interpolation" in report.quartile_method
    _report(11, "Pearson perfect cases exact; IQR example matches declared convention")
