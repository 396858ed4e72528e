import math
import random
import tracemalloc

import numpy as np
import pytest

from kgsynth import evaluate
from kgsynth.errors import ValidationError
from kgsynth.evaluate import (
    Query,
    RankingRecord,
    compute_metrics,
    evaluate_predictions,
    rank_gold,
    split_queries,
)

from conftest import make_kg, random_kg


@pytest.fixture
def six_entity_kg():
    return make_kg(
        entities=[f"e{i}" for i in range(6)],
        relations=["r1", "r2"],
        train=[("e0", "r1", "e1"), ("e0", "r1", "e2"), ("e3", "r2", "e4")],
        valid=[("e0", "r1", "e3")],
        test=[("e0", "r1", "e4"), ("e5", "r2", "e0")],
    )


def known_rivals(query, kg):
    """Every other entity that answers the query in some split, by a scan of all triples."""
    answers = set()
    for h, r, t in kg.all_triples:
        if query.direction == "tail" and (h, r) == query.known:
            answers.add(t)
        if query.direction == "head" and (t, r) == query.known:
            answers.add(h)
    return answers - {query.gold}


def reference_rank(scores, query, kg, filtered):
    """Materialize, filter, and sort the candidate list; gold goes below ties."""
    excluded = known_rivals(query, kg) if filtered else set()
    candidates = [e for e in kg.entity_ids if e not in excluded]
    ordered = sorted(candidates, key=lambda e: (-scores[e], e == query.gold))
    return ordered.index(query.gold) + 1


def test_gold_with_highest_score_ranks_first(six_entity_kg):
    scores = {f"e{i}": float(-i) for i in range(6)}
    query = Query(known=("e0", "r1"), direction="tail", gold="e0")
    assert rank_gold(scores, query, six_entity_kg, filtered=False).gold_rank == 1


def test_all_tied_scores_rank_pessimistically():
    kg = make_kg(entities=["a", "b", "c"], relations=["r"], train=[("a", "r", "b")])
    scores = {"a": 1.0, "b": 1.0, "c": 1.0}
    query = Query(known=("a", "r"), direction="tail", gold="c")
    assert rank_gold(scores, query, kg, filtered=False).gold_rank == 3


def test_missing_gold_rejected(six_entity_kg):
    scores = {f"e{i}": 0.0 for i in range(5)}
    query = Query(known=("e0", "r1"), direction="tail", gold="e5")
    with pytest.raises(ValidationError):
        rank_gold(scores, query, six_entity_kg, filtered=False)


def test_rank_matches_reference_on_random_tables(six_entity_kg):
    rng = random.Random(99)
    queries = split_queries(six_entity_kg) + split_queries(six_entity_kg, "valid")
    for _ in range(50):
        scores = {eid: rng.choice([0.0, 0.25, 0.5, 1.0]) for eid in six_entity_kg.entity_ids}
        for query in queries:
            for filtered in (False, True):
                got = rank_gold(scores, query, six_entity_kg, filtered=filtered).gold_rank
                assert got == reference_rank(scores, query, six_entity_kg, filtered)


def test_filtered_rank_never_exceeds_raw(six_entity_kg):
    rng = random.Random(5)
    for _ in range(30):
        scores = {eid: rng.random() for eid in six_entity_kg.entity_ids}
        for query in split_queries(six_entity_kg):
            raw = rank_gold(scores, query, six_entity_kg, filtered=False).gold_rank
            filt = rank_gold(scores, query, six_entity_kg, filtered=True).gold_rank
            assert filt <= raw


def test_rank_invariant_under_monotone_transform(six_entity_kg):
    rng = random.Random(31)
    query = Query(known=("e0", "r1"), direction="tail", gold="e4")
    for _ in range(30):
        scores = {eid: rng.random() for eid in six_entity_kg.entity_ids}
        transformed = {eid: math.exp(3.0 * s) + 1.0 for eid, s in scores.items()}
        assert (
            rank_gold(scores, query, six_entity_kg).gold_rank
            == rank_gold(transformed, query, six_entity_kg).gold_rank
        )


def _records(ranks):
    query = Query(known=("x", "r"), direction="tail", gold="x")
    return [RankingRecord(query=query, gold_rank=r) for r in ranks]


def test_metrics_formula_unit_case():
    report = compute_metrics(_records([1, 2, 10]))
    assert report.hits[1] == pytest.approx(1 / 3, abs=1e-12)
    assert report.hits[3] == pytest.approx(2 / 3, abs=1e-12)
    assert report.hits[10] == pytest.approx(1.0, abs=1e-12)
    assert report.mr == pytest.approx(13 / 3, abs=1e-12)
    assert report.mrr == pytest.approx((1 + 0.5 + 0.1) / 3, abs=1e-12)


def test_metrics_all_rank_one():
    report = compute_metrics(_records([1, 1, 1, 1]))
    assert report.hits == {1: 1.0, 3: 1.0, 10: 1.0}
    assert report.mr == 1.0
    assert report.mrr == 1.0


def test_metrics_empty_rejected():
    with pytest.raises(ValueError):
        compute_metrics([])


def test_metrics_match_independent_recomputation():
    rng = random.Random(1)
    for _ in range(500):
        ranks = [rng.randint(1, 50) for _ in range(rng.randint(1, 40))]
        report = compute_metrics(_records(ranks))
        n = len(ranks)
        assert report.hits[1] == len([r for r in ranks if r <= 1]) / n
        assert report.hits[3] == len([r for r in ranks if r <= 3]) / n
        assert report.hits[10] == len([r for r in ranks if r <= 10]) / n
        assert report.mr == sum(ranks) / n
        assert report.mrr == sum(1 / r for r in ranks) / n
        assert report.hits[1] <= report.hits[3] <= report.hits[10]
        assert 1 / report.mr <= report.mrr <= 1.0
        assert report.mrr >= report.hits[1]


def test_report_text_is_flat_key_value():
    report = compute_metrics(_records([1, 2]))
    lines = report.to_text().splitlines()
    assert lines[0].startswith("hits@1\t")
    assert any(line.startswith("mrr\t") for line in lines)
    assert "tie_policy\tpessimistic" in lines


def _write_predictions(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t, direction, candidates in rows:
            fh.write(f"{h}\t{r}\t{t}\t{direction}\t{','.join(candidates)}\n")


def test_rank_split_raises_a_worker_failure(monkeypatch):
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 4)
    kg = random_kg(random.Random(8), n_entities=20, n_relations=2, n_train=30, n_test=40)
    queries = split_queries(kg)
    assert len(queries) > 4 * evaluate.QUERY_CHUNK
    failing = queries[3 * evaluate.QUERY_CHUNK + 1]

    def rank_of(query, gold, rivals):
        if query == failing:
            raise RuntimeError("ranker failed")
        return 1

    with pytest.raises(RuntimeError, match="ranker failed"):
        evaluate.rank_split(kg, "test", True, rank_of)


def test_predictions_gold_first_everywhere(six_entity_kg, tmp_path):
    rows = []
    for h, r, t in six_entity_kg.test:
        rows.append((h, r, t, "tail", [t, "e1"]))
        rows.append((h, r, t, "head", [h, "e1"]))
    path = tmp_path / "preds.tsv"
    _write_predictions(path, rows)
    report = evaluate_predictions(six_entity_kg, path)
    assert report.hits == {1: 1.0, 3: 1.0, 10: 1.0}
    assert report.mr == 1.0
    assert report.mrr == 1.0


def test_predictions_gold_absent_worst_case(tmp_path):
    entities = [f"e{i}" for i in range(100)]
    kg = make_kg(
        entities=entities,
        relations=["r"],
        train=[("e0", "r", "e1")],
        test=[("e2", "r", "e3")],
    )
    rows = [
        ("e2", "r", "e3", "tail", ["e4", "e5"]),
        ("e2", "r", "e3", "head", ["e4"]),
    ]
    path = tmp_path / "preds.tsv"
    _write_predictions(path, rows)
    report = evaluate_predictions(kg, path)
    assert report.mr == 100.0
    assert report.hits[10] == 0.0


WORKSHEET = [
    ("e0", "r1", "e4", "tail", ["e1", "e4", "e2"]),
    ("e0", "r1", "e4", "head", ["e0", "e1"]),
    ("e5", "r2", "e0", "tail", ["e1", "e3", "e0"]),
    ("e5", "r2", "e0", "head", []),
]


def test_predictions_hand_ranked_worksheet(six_entity_kg, tmp_path):
    # Worked by hand: tail ranks 2 and 3, head ranks 1 and 6 (absent).
    path = tmp_path / "preds.tsv"
    _write_predictions(path, WORKSHEET)
    report = evaluate_predictions(six_entity_kg, path, filtered=False)
    ranks = [2, 1, 3, 6]
    assert report.mr == sum(ranks) / 4
    assert report.mrr == pytest.approx(sum(1 / r for r in ranks) / 4, abs=1e-12)
    assert report.hits[1] == 1 / 4
    assert report.hits[3] == 3 / 4
    assert not report.filtered


def test_predictions_hand_ranked_worksheet_filtered(six_entity_kg, tmp_path):
    # Worked by hand: (e0, r1, ?) also has the known answers e1, e2 and e3, so
    # the e1 listed ahead of the gold e4 is dropped and the first rank is 1.
    # (e5, r2, ?) and (?, r2, e0) have no other answers, so 3 and 6 stay.
    path = tmp_path / "preds.tsv"
    _write_predictions(path, WORKSHEET)
    report = evaluate_predictions(six_entity_kg, path)
    ranks = [1, 1, 3, 6]
    assert report.mr == sum(ranks) / 4
    assert report.mrr == pytest.approx(sum(1 / r for r in ranks) / 4, abs=1e-12)
    assert report.hits[1] == 2 / 4
    assert report.hits[3] == 3 / 4
    assert report.filtered
    assert report.tie_policy == "candidate-order"


def reference_list_rank(candidates, query, kg, filtered):
    """Strike the known-true rivals from the list and from the entity set, then look."""
    excluded = known_rivals(query, kg) if filtered else set()
    kept = [c for c in candidates if c not in excluded]
    if query.gold in kept:
        return kept.index(query.gold) + 1
    return len([e for e in kg.entity_ids if e not in excluded])


def test_predictions_match_brute_force_on_random_lists(tmp_path):
    rng = random.Random(61)
    # few entities and relations, so most queries have known-true rivals
    kg = random_kg(rng, n_entities=7, n_relations=2, n_train=16, n_valid=3, n_test=5)
    queries = split_queries(kg)
    path = tmp_path / "preds.tsv"
    seen = {"absent gold": 0, "rival before gold": 0}
    for _ in range(200):
        rows, lists = [], []
        for query in queries:
            candidates = rng.sample(kg.entity_ids, rng.randint(0, len(kg.entity_ids)))
            lists.append(candidates)
            if query.direction == "tail":
                (h, r), t = query.known, query.gold
            else:
                (t, r), h = query.known, query.gold
            rows.append((h, r, t, query.direction, candidates))
            rivals = known_rivals(query, kg)
            if query.gold not in candidates:
                seen["absent gold"] += 1
            elif rivals & set(candidates[: candidates.index(query.gold)]):
                seen["rival before gold"] += 1
        _write_predictions(path, rows)
        for filtered in (False, True):
            expected = [
                RankingRecord(query, reference_list_rank(candidates, query, kg, filtered))
                for query, candidates in zip(queries, lists)
            ]
            assert evaluate_predictions(kg, path, filtered) == compute_metrics(
                expected, filtered=filtered, tie_policy="candidate-order"
            )
    assert min(seen.values()) > 100, seen


def test_predictions_reset_rows_between_queries_on_one_worker(monkeypatch, tmp_path):
    # One worker ranks every query in turn, so a candidate that a previous
    # query listed must not count against the next query's gold.
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 1)
    kg = make_kg(entities=[f"e{i}" for i in range(8)], relations=["r"],
                 train=[("e0", "r", "e1")], test=[("e2", "r", "e3"), ("e4", "r", "e5")])
    rows = [
        ("e2", "r", "e3", "tail", ["e6", "e7", "e0", "e3"]),
        ("e2", "r", "e3", "head", ["e2"]),  # disjoint from the list before
        ("e4", "r", "e5", "tail", ["e1", "e5", "e6"]),  # overlaps the first list
        ("e4", "r", "e5", "head", ["e6", "e1", "e4"]),  # overlaps the list before
    ]
    path = tmp_path / "preds.tsv"
    _write_predictions(path, rows)
    for filtered in (False, True):
        records = [
            RankingRecord(query, reference_list_rank(candidates, query, kg, filtered))
            for query, (*_, candidates) in zip(split_queries(kg), rows)
        ]
        assert [record.gold_rank for record in records] == [4, 1, 2, 3]
        assert evaluate_predictions(kg, path, filtered) == compute_metrics(
            records, filtered=filtered, tie_policy="candidate-order")


@pytest.mark.parametrize("extra", [
    ("e0", "r1", "e1", "tail"),  # a train triple
    ("e0", "r1", "e3", "head"),  # a valid triple
    ("e1", "r2", "e5", "tail"),  # no triple of the graph
])
def test_predictions_line_for_a_non_test_query_rejected(six_entity_kg, tmp_path, extra):
    rows = list(WORKSHEET)
    rows.insert(2, (*extra, ["e1"]))
    path = tmp_path / "preds.tsv"
    _write_predictions(path, rows)
    with pytest.raises(ValidationError, match=r"preds\.tsv:3: .* is not a test query"):
        evaluate_predictions(six_entity_kg, path)


def test_predictions_allocate_nothing_entity_sized(monkeypatch, tmp_path):
    # Top-k lists over many entities: ranking reads the lists and the filtered
    # rivals, so its peak stays far below one score per entity.
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 1)
    n = 200_000
    kg = make_kg(entities=[f"e{i}" for i in range(n)], relations=["r"],
                 train=[(f"e{i}", "r", f"e{i + 1}") for i in range(0, 2000, 2)],
                 test=[(f"e{i}", "r", f"e{i + 3}") for i in range(0, 200, 2)])
    rng = random.Random(5)
    rows = []
    for h, r, t in kg.test:
        for direction, gold in (("tail", t), ("head", h)):
            # no test entity is sampled, and half the golds are listed
            candidates = [f"e{i}" for i in rng.sample(range(1000, n), 99)]
            if rng.random() < 0.5:
                candidates.insert(rng.randrange(100), gold)
            rows.append((h, r, t, direction, candidates))
    path = tmp_path / "preds.tsv"
    _write_predictions(path, rows)
    evaluate_predictions(kg, path)  # numpy imports lazily, and the graph caches its row maps
    tracemalloc.start()
    try:
        report = evaluate_predictions(kg, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mr < n
    assert peak < 8 * n, peak  # one float64 score per entity


def test_predictions_missing_queries_listed(six_entity_kg, tmp_path):
    rows = [("e0", "r1", "e4", "tail", ["e4"])]
    path = tmp_path / "preds.tsv"
    _write_predictions(path, rows)
    with pytest.raises(ValidationError, match="missing"):
        evaluate_predictions(six_entity_kg, path)


def test_predictions_duplicate_line_rejected(six_entity_kg, tmp_path):
    rows = [
        ("e0", "r1", "e4", "tail", ["e4"]),
        ("e0", "r1", "e4", "tail", ["e1"]),
    ]
    path = tmp_path / "preds.tsv"
    _write_predictions(path, rows)
    with pytest.raises(ValidationError, match="duplicate"):
        evaluate_predictions(six_entity_kg, path)


def test_predictions_duplicate_candidate_rejected(six_entity_kg, tmp_path):
    # a rival listed twice ahead of the gold would push the gold's rank down
    rows = []
    for h, r, t in six_entity_kg.test:
        rows.append((h, r, t, "tail", ["e1", "e1", t]))
        rows.append((h, r, t, "head", [h]))
    path = tmp_path / "preds.tsv"
    _write_predictions(path, rows)
    with pytest.raises(ValidationError, match="preds.tsv:1: duplicate candidate 'e1'"):
        evaluate_predictions(six_entity_kg, path)


def test_predictions_unknown_candidate_rejected(six_entity_kg, tmp_path):
    rows = []
    for h, r, t in six_entity_kg.test:
        rows.append((h, r, t, "tail", ["ghost"]))
        rows.append((h, r, t, "head", [h]))
    path = tmp_path / "preds.tsv"
    _write_predictions(path, rows)
    with pytest.raises(ValidationError, match="unknown candidate"):
        evaluate_predictions(six_entity_kg, path)
