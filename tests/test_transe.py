import math
import random
import re
import sys

import numpy as np
import pytest

from kgsynth import evaluate, transe
from kgsynth.errors import ValidationError
from kgsynth.evaluate import Query, compute_metrics, rank_gold, split_queries
from kgsynth.transe import (
    DivergenceError,
    EmbeddingModel,
    TrainConfig,
    _normalize_rows,
    evaluate_model,
    init_model,
    load_model,
    margin_loss_and_grads,
    probe_loss,
    rank_queries,
    save_model,
    score_all,
    score_triple,
    train,
)
from kgsynth.transform import generate_suite
from kgsynth.kg import load_dataset

from conftest import make_kg, random_kg


@pytest.fixture
def pattern_kg():
    """Inverse-relation pattern: training pairs teach s = -r, the test pairs
    (f, s, e) and (h, s, g) follow from it."""
    return make_kg(
        entities=list("abcdefgh"),
        relations=["r", "s"],
        train=[
            ("a", "r", "b"), ("b", "s", "a"),
            ("c", "r", "d"), ("d", "s", "c"),
            ("e", "r", "f"), ("g", "r", "h"),
        ],
        test=[("f", "s", "e"), ("h", "s", "g")],
    )


def _toy_model(vectors, relations, norm="L2"):
    return EmbeddingModel(
        entity_ids=tuple(vectors),
        relation_ids=tuple(relations),
        entity_vectors=np.array(list(vectors.values()), dtype=float),
        relation_vectors=np.array(list(relations.values()), dtype=float),
        norm=norm,
    )


# --- init ------------------------------------------------------------------------

def test_init_deterministic(family_kg):
    a = init_model(family_kg, dim=16, seed=7)
    b = init_model(family_kg, dim=16, seed=7)
    assert np.array_equal(a.entity_vectors, b.entity_vectors)
    assert np.array_equal(a.relation_vectors, b.relation_vectors)


def test_init_rejects_zero_dim(family_kg):
    with pytest.raises(ValueError):
        init_model(family_kg, dim=0, seed=0)


def test_init_entity_norms_are_unit(family_kg):
    model = init_model(family_kg, dim=32, seed=3)
    norms = np.linalg.norm(model.entity_vectors, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)


# --- scoring ----------------------------------------------------------------------

def test_score_perfect_translation():
    model = _toy_model({"h": (0.0, 0.0), "t": (1.0, 0.0)}, {"r": (1.0, 0.0)})
    assert score_triple(model, "h", "r", "t") == 0.0


def test_score_unit_distance_l2():
    model = _toy_model({"h": (0.0, 0.0), "t": (2.0, 0.0)}, {"r": (1.0, 0.0)})
    assert score_triple(model, "h", "r", "t") == -1.0


def test_score_unknown_id():
    model = _toy_model({"h": (0.0, 0.0)}, {"r": (1.0, 0.0)})
    with pytest.raises(ValueError):
        score_triple(model, "h", "r", "ghost")


def test_score_matches_naive_loop():
    rng = np.random.default_rng(5)
    entities = {f"e{i}": rng.normal(size=4) for i in range(6)}
    relations = {"r": rng.normal(size=4)}
    for norm in ("L1", "L2"):
        model = _toy_model(entities, relations, norm=norm)
        for h in entities:
            for t in entities:
                diff = entities[h] + relations["r"] - entities[t]
                expected = sum(abs(x) for x in diff) if norm == "L1" else sum(
                    x * x for x in diff
                ) ** 0.5
                assert score_triple(model, h, "r", t) == pytest.approx(-expected, rel=1e-12)


def test_score_all_equals_score_triple(family_kg):
    model = init_model(family_kg, dim=12, seed=1)
    for norm in ("L1", "L2"):
        model = EmbeddingModel(
            entity_ids=model.entity_ids, relation_ids=model.relation_ids,
            entity_vectors=model.entity_vectors, relation_vectors=model.relation_vectors,
            norm=norm,
        )
        for direction in ("tail", "head"):
            table = score_all(model, "e1", "r1", direction)
            for eid in family_kg.entity_ids:
                expected = (
                    score_triple(model, "e1", "r1", eid)
                    if direction == "tail"
                    else score_triple(model, eid, "r1", "e1")
                )
                assert table[eid] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("direction", ["tail", "head"])
@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_score_all_equals_numpys_row_sum(norm, direction):
    rng = np.random.default_rng(41)
    n = 37
    ids = tuple(f"e{i}" for i in range(n))
    for dim in range(301):
        # magnitudes over six decades, so a change of summation order shows in the bits
        vectors = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, dim))
        vectors[[4, 9]] = vectors[2]  # tied candidates
        vectors[7, dim // 2:dim // 2 + 1] = np.nan
        rel = rng.normal(size=(1, dim))
        model = EmbeddingModel(ids, ("r",), vectors, rel, norm=norm)
        known = vectors[0]
        diff = known + rel[0] - vectors if direction == "tail" else vectors + rel[0] - known
        if norm == "L1":
            expected = np.abs(diff).sum(axis=1)
        else:
            expected = np.sqrt((diff * diff).sum(axis=1))
        scores = score_all(model, "e0", "r", direction)
        got = -np.array([scores[eid] for eid in ids])
        assert np.array_equal(got, expected, equal_nan=True), dim
        assert np.isnan(got[7]) == (dim > 0) and got[4] == got[9] == got[2]


def test_model_with_unknown_norm_rejected(family_kg):
    model = init_model(family_kg, dim=4, seed=0)
    with pytest.raises(ValueError, match="norm"):
        EmbeddingModel(model.entity_ids, model.relation_ids, model.entity_vectors,
                       model.relation_vectors, norm="l1")
    with pytest.raises(ValueError, match="norm"):
        init_model(family_kg, dim=4, seed=0, norm="L3")


# --- gradients ----------------------------------------------------------------------

def _fd_gradient(func, x, eps=1e-6):
    grad = np.zeros_like(x)
    for i in range(x.size):
        plus = x.copy()
        minus = x.copy()
        plus[i] += eps
        minus[i] -= eps
        grad[i] = (func(plus) - func(minus)) / (2 * eps)
    return grad


def test_gradients_match_central_finite_differences():
    rng = np.random.default_rng(99)
    for norm in ("L1", "L2"):
        accepted = 0
        while accepted < 100:
            vecs = [rng.normal(size=6) for _ in range(5)]
            margin = 1.0
            diff_pos = vecs[0] + vecs[1] - vecs[2]
            diff_neg = vecs[3] + vecs[1] - vecs[4]
            loss, grads = margin_loss_and_grads(*vecs, margin, norm)
            # stay away from the hinge kink and the norm's non-smooth points
            d_pos = np.abs(diff_pos).sum() if norm == "L1" else np.linalg.norm(diff_pos)
            d_neg = np.abs(diff_neg).sum() if norm == "L1" else np.linalg.norm(diff_neg)
            if abs(margin + d_pos - d_neg) < 1e-3:
                continue
            if norm == "L1" and (np.abs(diff_pos).min() < 1e-3 or np.abs(diff_neg).min() < 1e-3):
                continue
            if norm == "L2" and (d_pos < 1e-3 or d_neg < 1e-3):
                continue
            accepted += 1
            for k in range(5):
                def partial(x, k=k):
                    probe = [v.copy() for v in vecs]
                    probe[k] = x
                    return margin_loss_and_grads(*probe, margin, norm)[0]

                fd = _fd_gradient(partial, vecs[k].copy())
                scale = max(1.0, np.linalg.norm(fd))
                assert np.linalg.norm(grads[k] - fd) <= 1e-4 * scale, (norm, k)


def test_inactive_hinge_has_zero_gradient():
    z = np.zeros(3)
    far = np.array([100.0, 0.0, 0.0])
    loss, grads = margin_loss_and_grads(z, z, z, z, far, 1.0, "L2")
    assert loss == 0.0
    assert all(np.array_equal(g, np.zeros(3)) for g in grads)


# --- training --------------------------------------------------------------------------

def test_zero_learning_rate_keeps_init(pattern_kg):
    config = TrainConfig(dim=8, epochs=5, learning_rate=0.0, seed=4)
    trained = train(pattern_kg, config)
    init = init_model(pattern_kg, dim=8, seed=4)
    assert np.array_equal(trained.entity_vectors, init.entity_vectors)
    assert np.array_equal(trained.relation_vectors, init.relation_vectors)


def test_training_deterministic_single_worker(pattern_kg):
    config = TrainConfig(dim=8, epochs=10, learning_rate=0.05, seed=6)
    a = train(pattern_kg, config)
    b = train(pattern_kg, config)
    assert np.array_equal(a.entity_vectors, b.entity_vectors)
    assert np.array_equal(a.relation_vectors, b.relation_vectors)


def test_entity_norms_unit_after_training(pattern_kg):
    model = train(pattern_kg, TrainConfig(dim=8, epochs=7, learning_rate=0.05, seed=2))
    norms = np.linalg.norm(model.entity_vectors, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_tiny_pattern_reaches_full_hits_at_10(pattern_kg):
    config = TrainConfig(dim=8, epochs=50, learning_rate=0.05, margin=1.0, norm="L1", seed=0)
    model = train(pattern_kg, config)
    # independent oracle: scan every candidate with score_triple directly
    ranks = []
    for h, r, t in pattern_kg.test:
        for direction, known, gold in (("tail", h, t), ("head", t, h)):
            scores = {
                eid: (
                    score_triple(model, known, r, eid)
                    if direction == "tail"
                    else score_triple(model, eid, r, known)
                )
                for eid in pattern_kg.entity_ids
            }
            ranks.append(rank_gold(scores, Query((known, r), direction, gold), pattern_kg).gold_rank)
    assert all(rank <= 10 for rank in ranks)
    report = evaluate_model(model, pattern_kg, "test")
    assert report.hits[10] == 1.0
    # the inverse-relation pattern is actually learned, not just small-|E| luck
    untrained = evaluate_model(init_model(pattern_kg, dim=8, seed=0), pattern_kg, "test")
    assert report.mrr > untrained.mrr


def test_probe_loss_non_increasing_early(pattern_kg):
    losses = []
    for epochs in (1, 2, 3):
        config = TrainConfig(dim=8, epochs=epochs, learning_rate=0.05, seed=1)
        losses.append(probe_loss(train(pattern_kg, config), pattern_kg, seed=0))
    assert losses[0] >= losses[1] >= losses[2], losses


def test_divergence_error_names_epoch(pattern_kg):
    config = TrainConfig(dim=4, epochs=3, learning_rate=1e308, seed=0)
    with pytest.raises(DivergenceError, match="epoch 1"):
        train(pattern_kg, config)


def _per_triple_reference(kg, config):
    """Per-triple SGD on the scalar margin_loss_and_grads, with train's draws."""
    model = init_model(kg, config.dim, config.seed, norm=config.norm, margin=config.margin)
    entities, relations = model.entity_vectors, model.relation_vectors
    rows = kg.structure.split_rows["train"]
    rng = np.random.default_rng([config.seed, 1])
    lr, k = config.learning_rate, config.negatives_per_positive
    for _ in range(config.epochs):
        order = rng.permutation(len(rows))
        corrupt_tail = rng.random((len(rows), k)) < 0.5
        corrupt_with = rng.integers(0, len(kg.entity_ids), size=(len(rows), k))
        for i in order:
            h, r, t = rows[i]
            for tail, other in zip(corrupt_tail[i], corrupt_with[i]):
                h_neg, t_neg = (h, other) if tail else (other, t)
                loss, (g_h, g_r, g_t, g_h_neg, g_t_neg) = margin_loss_and_grads(
                    entities[h], relations[r], entities[t], entities[h_neg], entities[t_neg],
                    config.margin, config.norm)
                if loss <= 0.0:
                    continue
                entities[h] -= lr * g_h
                relations[r] -= lr * g_r
                entities[t] -= lr * g_t
                entities[h_neg] -= lr * g_h_neg
                entities[t_neg] -= lr * g_t_neg
        _normalize_rows(entities)
    return model


def test_batch_of_one_is_bit_identical_to_per_triple_sgd(pattern_kg):
    rng = random.Random(23)
    # a self-loop repeats one entity row within a pair
    loop_kg = make_kg(entities=list("abcd"), relations=["r"],
                      train=[("a", "r", "a"), ("a", "r", "b"), ("c", "r", "d")],
                      test=[("b", "r", "c")])
    graphs = [pattern_kg, loop_kg] + [
        random_kg(rng, n_entities=rng.randint(5, 12), n_relations=rng.randint(1, 3), n_train=15)
        for _ in range(3)
    ]
    for kg in graphs:
        for norm in ("L1", "L2"):
            for negatives in (1, 3):
                config = TrainConfig(dim=6, epochs=4, learning_rate=0.05, norm=norm, seed=8,
                                     negatives_per_positive=negatives, batch_size=1)
                got, expected = train(kg, config), _per_triple_reference(kg, config)
                case = (kg.train, norm, negatives)
                assert np.array_equal(got.entity_vectors, expected.entity_vectors), case
                assert np.array_equal(got.relation_vectors, expected.relation_vectors), case


def _subtract_rows_at(matrix, rows, values):
    """``np.subtract.at(matrix, rows, values)`` on the flat matrix, as train did."""
    dim = matrix.shape[1]
    np.subtract.at(matrix.reshape(-1), (rows[:, None] * dim + np.arange(dim)).ravel(),
                   values.ravel())


def _whole_epoch_reference(kg, config):
    """train with each epoch built whole: its draws in one call each, all its
    (h, r, t, h_neg, t_neg) pairs at once, and each batch's update on arrays
    of its own."""
    model = init_model(kg, config.dim, config.seed, norm=config.norm, margin=config.margin)
    entities, relations = model.entity_vectors, model.relation_vectors
    rows = kg.structure.split_rows["train"]
    rng = np.random.default_rng([config.seed, 1])
    lr, k = config.learning_rate, config.negatives_per_positive
    for _ in range(config.epochs):
        order = rng.permutation(len(rows))
        corrupt_tail = rng.random((len(rows), k)) < 0.5
        corrupt_with = rng.integers(0, len(kg.entity_ids), size=(len(rows), k))
        triples = rows[np.repeat(order, k)]
        tail, other = corrupt_tail[order].ravel(), corrupt_with[order].ravel()
        pairs = np.column_stack([triples, np.where(tail, triples[:, 0], other),
                                 np.where(tail, other, triples[:, 2])])
        for start in range(0, len(pairs), config.batch_size):
            batch = pairs[start:start + config.batch_size]
            loss, diff_pos, diff_neg = transe._hinge(entities, relations, *batch.T,
                                                     config.margin, config.norm)
            active = ~(loss <= 0.0)
            g_pos = transe._distance_grad(diff_pos[active], config.norm)
            g_neg = transe._distance_grad(diff_neg[active], config.norm)
            batch = batch[active]
            _subtract_rows_at(relations, batch[:, 1], lr * (g_pos - g_neg))
            steps = np.stack([lr * g_pos, -(lr * g_pos), -(lr * g_neg), lr * g_neg], axis=1)
            _subtract_rows_at(entities, batch[:, [0, 2, 3, 4]].ravel(), steps)
        _normalize_rows(entities)
    return model


@pytest.mark.parametrize("block", [1, 5, 64])
def test_pairs_in_blocks_are_bit_identical_to_whole_epochs(monkeypatch, block):
    # Blocks of whole batches that cut a triple's negatives apart, draws of
    # the corrupted side a block at a time, batches wider than a block and
    # than the split, and the buffers one call reuses across its batches.
    monkeypatch.setattr(transe, "_PAIR_BLOCK", block)
    rng = random.Random(block)
    graphs = [random_kg(rng, n_entities=rng.randint(5, 30), n_relations=rng.randint(1, 4),
                        n_train=rng.randint(20, 60)) for _ in range(3)]
    for kg in graphs:
        for norm in ("L1", "L2"):
            for batch_size, negatives in ((1, 2), (3, 3), (7, 1), (64, 2), (1000, 3)):
                config = TrainConfig(dim=6, epochs=3, learning_rate=0.05, norm=norm, seed=block,
                                     negatives_per_positive=negatives, batch_size=batch_size)
                got, expected = train(kg, config), _whole_epoch_reference(kg, config)
                case = (norm, batch_size, negatives)
                assert got.entity_vectors.tobytes() == expected.entity_vectors.tobytes(), case
                assert got.relation_vectors.tobytes() == expected.relation_vectors.tobytes(), case


def test_batch_larger_than_train_split(pattern_kg):
    # one step per epoch over every (triple, negative) pair
    config = TrainConfig(dim=8, epochs=6, learning_rate=0.05, seed=2, negatives_per_positive=2,
                         batch_size=10 * len(pattern_kg.train))
    a, b = train(pattern_kg, config), train(pattern_kg, config)
    assert np.isfinite(a.entity_vectors).all() and np.isfinite(a.relation_vectors).all()
    assert np.array_equal(a.entity_vectors, b.entity_vectors)
    assert np.array_equal(a.relation_vectors, b.relation_vectors)
    init = init_model(pattern_kg, dim=8, seed=2)
    assert not np.array_equal(a.entity_vectors, init.entity_vectors)


@pytest.mark.parametrize("field, value", [
    ("negatives_per_positive", 0), ("batch_size", 0), ("epochs", -1),
    # a NaN or infinite margin made every pair active, a negative learning
    # rate ran gradient ascent, and a NaN one failed only after an epoch
    ("margin", float("nan")), ("margin", float("inf")), ("margin", -float("inf")),
    ("learning_rate", -0.5), ("learning_rate", float("nan")), ("learning_rate", float("inf")),
])
def test_train_rejects_out_of_range_config(pattern_kg, field, value):
    with pytest.raises(ValueError, match=field):
        train(pattern_kg, TrainConfig(dim=4, **{field: value}))


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_probe_loss_equals_scalar_mean(norm):
    kg = random_kg(random.Random(5), n_entities=12, n_relations=3, n_train=30)
    model = init_model(kg, dim=6, seed=1, norm=norm, margin=2.0)
    n = 20
    rng = np.random.default_rng([4, 2])
    corrupt_tail = rng.random(n) < 0.5
    corrupt_with = rng.integers(0, len(kg.entity_ids), size=n)
    losses = []
    for i, (h, r, t) in enumerate(kg.train[:n]):
        other = kg.entity_ids[corrupt_with[i]]
        h_neg, t_neg = (h, other) if corrupt_tail[i] else (other, t)
        vectors = [model.entity_vector(h), model.relation_vector(r), model.entity_vector(t),
                   model.entity_vector(h_neg), model.entity_vector(t_neg)]
        losses.append(margin_loss_and_grads(*vectors, 2.0, norm)[0])
    assert sum(losses) > 0
    # the probe names entities and relations by id, whatever the model's row order
    perm = random.Random(1).sample(range(len(kg.entities)), len(kg.entities))
    permuted = EmbeddingModel(tuple(kg.entity_ids[i] for i in perm), kg.relation_ids[::-1],
                              model.entity_vectors[perm], model.relation_vectors[::-1],
                              norm=norm, margin=2.0)
    for candidate in (model, permuted):
        assert probe_loss(candidate, kg, seed=4, batch_size=n) == pytest.approx(
            sum(losses) / n, rel=1e-12, abs=0)


@pytest.mark.parametrize("batch_size", [0, -3])
def test_probe_loss_rejects_a_batch_below_one(pattern_kg, batch_size):
    # 0 was reported as an empty train split, and -3 as numpy's negative dimensions
    model = init_model(pattern_kg, dim=4, seed=0)
    with pytest.raises(ValueError, match=rf"^batch_size must be >= 1, got {batch_size}$"):
        probe_loss(model, pattern_kg, batch_size=batch_size)


# --- evaluation ---------------------------------------------------------------------

def test_perfect_vectors_give_mrr_one():
    kg = make_kg(
        entities=["a", "b", "c"],
        relations=["r"],
        train=[("a", "r", "b")],
        test=[("b", "r", "c")],
    )
    entities = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (2.0, 0.0)}
    relations = {"r": (1.0, 0.0)}
    model = _toy_model(entities, relations, norm="L2")
    report = evaluate_model(model, kg, "test")
    assert report.mrr == 1.0
    assert report.mr == 1.0


def test_untrained_model_near_chance():
    # 40 entities: chance hits@10 is about 10/40; Monte-Carlo over 20 seeds
    # must stay under twice that.
    n = 40
    kg = make_kg(
        entities=[f"e{i}" for i in range(n)],
        relations=["r"],
        train=[(f"e{i}", "r", f"e{(i + 1) % n}") for i in range(0, n, 2)],
        test=[("e1", "r", "e2"), ("e3", "r", "e4")],
    )
    hits = []
    for seed in range(20):
        model = init_model(kg, dim=8, seed=seed)
        hits.append(evaluate_model(model, kg, "test").hits[10])
    assert sum(hits) / len(hits) <= 2 * 10 / n


def test_keystone_invariance_on_fixture_suite(family_kg, tmp_path):
    results = generate_suite(family_kg, seed=5, output_dir=tmp_path)
    config = TrainConfig(dim=8, epochs=15, learning_rate=0.05, seed=9)
    base = None
    for result in results:
        variant = load_dataset(result.path)
        report = evaluate_model(train(variant, config), variant, "test")
        if result.label == "base":
            base = report
        else:
            assert report == base, result.label


def _dict_path_records(model, kg, split, filtered):
    return [
        rank_gold(score_all(model, *q.known, q.direction), q, kg, filtered=filtered)
        for q in split_queries(kg, split)
    ]


def _ranks(records):
    return [rec.gold_rank for rec in records]


def test_row_space_ranks_equal_dict_path(monkeypatch):
    # three workers even on one CPU; the last trials hold several rank_split
    # chunks of queries, and the small entity block splits every scoring
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 3)
    rng = random.Random(17)
    tied = 0
    for trial in range(8):
        if trial < 6:
            kg = random_kg(rng, n_entities=rng.randint(8, 25), n_relations=rng.randint(1, 3),
                           n_train=20, n_valid=4, n_test=6)
        else:
            kg = random_kg(rng, n_entities=40, n_relations=3, n_train=80, n_valid=10, n_test=60)
            assert len(split_queries(kg)) > 5 * evaluate.QUERY_CHUNK
        n = len(kg.entities)
        nprng = np.random.default_rng(trial)
        vectors = nprng.normal(size=(n, 4))
        # duplicated entity vectors force exact score ties (pessimistic policy)
        vectors[[1, 3, 5]] = vectors[0]
        relations = nprng.normal(size=(len(kg.relations), 4))
        perm = rng.sample(range(n), n)
        rel_perm = list(range(len(kg.relations)))[::-1]
        monkeypatch.setattr(transe, "_ENTITY_BLOCK", 7 if trial % 2 else 1024)
        for norm in ("L1", "L2"):
            model = EmbeddingModel(kg.entity_ids, kg.relation_ids, vectors, relations, norm=norm)
            permuted = EmbeddingModel(tuple(kg.entity_ids[i] for i in perm),
                                      tuple(kg.relation_ids[i] for i in rel_perm),
                                      vectors[perm], relations[rel_perm], norm=norm)
            for split in ("test", "valid"):
                for filtered in (True, False):
                    expected = _dict_path_records(model, kg, split, filtered)
                    for candidate in (model, permuted):
                        got = rank_queries(candidate, kg, split, filtered)
                        assert got.dtype == np.int64
                        assert got.tolist() == _ranks(expected), (trial, norm, split, filtered)
                        assert evaluate_model(candidate, kg, split, filtered) == compute_metrics(
                            expected, filtered=filtered)
                    for rec in expected:
                        scores = score_all(model, *rec.query.known, rec.query.direction)
                        tied += list(scores.values()).count(scores[rec.query.gold]) > 1
    assert tied > 0


def test_one_worker_and_many_workers_give_equal_records(monkeypatch):
    kg = random_kg(random.Random(31), n_entities=30, n_relations=2, n_train=60, n_test=50)
    model = init_model(kg, dim=6, seed=2)
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 1)
    single = rank_queries(model, kg, "test", True)
    # more workers than cores, switching threads often
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert np.array_equal(rank_queries(model, kg, "test", True), single)
    finally:
        sys.setswitchinterval(interval)
    assert single.tolist() == _ranks(_dict_path_records(model, kg, "test", True))


def _adversarial_kg():
    """Hub e0 answers (e0, r, ?) with e1..e12, so the test golds e1 and e2
    share their query with ten rivals; other facts are random."""
    ids = [f"e{i}" for i in range(40)]
    rng = random.Random(7)
    facts = {("e0", "r", f"e{i}") for i in range(1, 13)}
    test = [("e0", "r", "e1"), ("e0", "r", "e2"), ("e13", "s", "e1"), ("e1", "s", "e0")]
    facts.update(test)
    while len(facts) < 60:
        facts.add((rng.choice(ids), rng.choice("rs"), rng.choice(ids)))
    rest = sorted(facts - set(test))
    return make_kg(ids, ["r", "s"], train=rest[2:], valid=rest[:2], test=test)


def _adversarial_vectors(rng, n, dim, norm, profile):
    """Entity and relation vectors whose distances tie or nearly tie at the
    golds e0 and e1: exact copies of e1, e1 one float64 ulp away, and e1 and
    e0 a few float32 ulps away in every component.

    Profiles: "flat" magnitudes; "decades", per-dim magnitudes over six
    decades; "small query", e0 and the relations 1e-4 times the rest, so
    candidate norms dominate the bound; "rounding", e0 and the relations
    zero and e13..e26 = (1, y, ..., y), y (its square, for L2) just over
    half a float32 ulp of 1, so a float32 sum in dim order rounds up at
    every step, dim - 1 half-ulps in all, and e1 lies between that sum and
    the exact one.
    """
    magnitude = 10.0 ** rng.uniform(-3, 3, size=dim) if profile == "decades" else 1.0
    vectors = rng.normal(size=(n, dim)) * magnitude
    relations = rng.normal(size=(2, dim)) * magnitude
    if profile == "small query":
        vectors[0] *= 1e-4
        relations *= 1e-4
    if profile == "rounding":
        vectors /= dim
        vectors[0] = relations[:] = vectors[1] = 0.0
        vectors[1, 0] = 1 + 1.5 * (dim - 1) * 2.0 ** -24
        y = 2.0 ** -24 * (1 + 2.0 ** -10)
        if norm == "L2":
            vectors[1, 0], y = math.sqrt(vectors[1, 0]), 2.0 ** -12 * (1 + 2.0 ** -10)
    vectors[2:7] = vectors[1]
    vectors[7:13] = np.nextafter(vectors[1], np.where(rng.random((6, dim)) < 0.5, -np.inf, np.inf))
    vectors[13:27] = vectors[1] * (1 + 2.0 ** -24 * rng.integers(-3, 4, size=(14, dim)))
    vectors[27:33] = vectors[0] * (1 + 2.0 ** -24 * rng.integers(-3, 4, size=(6, dim)))
    if profile == "rounding":
        vectors[13:27] = y
        vectors[13:27, 0] = 1.0
    return vectors, relations


def _force_order(monkeypatch, order, cap):
    """Make ``rank_queries`` take its cheap distances a query at a time or,
    over balanced blocks of at most ``cap`` columns, a dimension at a time,
    whatever the table's width."""
    monkeypatch.setattr(transe, "_WIDE_TABLE", math.inf if order == "query" else 0)
    monkeypatch.setattr(transe, "_WIDE_BLOCK", cap)


@pytest.mark.parametrize("order", ["query", "dimension"])
@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_filter_and_verify_ranks_equal_brute_force(monkeypatch, norm, order):
    # both directions come from every test triple; scales are powers of two
    # from about 1e-30 to 1e60, beyond float32's range, so that they keep
    # the profiles' float32 roundings; blocks of 7 columns leave a short
    # last block (40 = 5 * 7 + 5) in either order
    kg = _adversarial_kg()
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3, 8, 9, 50, 129, 300):
        monkeypatch.setattr(transe, "_ENTITY_BLOCK", 7 if dim % 2 else 1024)
        _force_order(monkeypatch, order, 7 if dim % 2 else 1024)
        for profile in ("flat", "decades", "small query", "rounding"):
            vectors, relations = _adversarial_vectors(rng, len(kg.entities), dim, norm, profile)
            for exponent in (-100, -33, 0, 33, 100, 130, 200):
                scale = 2.0 ** exponent
                model = EmbeddingModel(kg.entity_ids, kg.relation_ids, vectors * scale,
                                       relations * scale, norm=norm)
                for filtered in (True, False):
                    # the brute force: _distance over all the residuals, then pessimistic_rank
                    assert rank_queries(model, kg, "test", filtered).tolist() == _ranks(
                        _dict_path_records(model, kg, "test", filtered)), (
                        dim, profile, exponent, filtered)


def _hub_kg():
    """60 entities and 25 test triples, so 50 queries: hub e0 answers (e0, r,
    ?) with e1..e30 and (?, s, e0) with e31..e50, and the test holds some of
    both, so their queries carry up to 29 and 19 rivals; the rest is random."""
    ids = [f"e{i}" for i in range(60)]
    rng = random.Random(11)
    hub = [("e0", "r", f"e{i}") for i in range(1, 31)] + [(f"e{i}", "s", "e0")
                                                        for i in range(31, 51)]
    test = hub[::4]
    facts = set(hub)
    while len(test) < 25:
        triple = (rng.choice(ids), rng.choice("rs"), rng.choice(ids))
        if triple not in facts:
            facts.add(triple)
            test.append(triple)
    while len(facts) < 150:
        facts.add((rng.choice(ids), rng.choice("rs"), rng.choice(ids)))
    rest = sorted(facts - set(test))
    return make_kg(ids, ["r", "s"], train=rest[5:], valid=rest[:5], test=test)


@pytest.mark.parametrize("order", ["query", "dimension"])
@pytest.mark.parametrize("chunk", [1, 3, 16])
def test_chunked_ranks_equal_brute_force(monkeypatch, chunk, order):
    # 50 queries leave a short last chunk of 3 and of 16; chunks of 3 start
    # on tail and head queries alike. Blocks of 7 columns a query at a time,
    # or of 8 a dimension at a time (60 = 7 * 8 + 4), split every cheap
    # pass and leave a short last block. L2 models scaled by 2^-80 or 2^-100
    # put every entity in the band (float32 squares underflow), which must
    # then be re-scored exactly, a block of 7 rows at a time; L1 models at
    # those scales keep a narrow band.
    monkeypatch.setattr(evaluate, "QUERY_CHUNK", chunk)
    monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 3)
    block = 7
    monkeypatch.setattr(transe, "_ENTITY_BLOCK", block)
    _force_order(monkeypatch, order, 8)
    distance = transe._distance
    rows = []

    def spied(diff, norm):
        rows.append(len(diff))
        return distance(diff, norm)

    monkeypatch.setattr(transe, "_distance", spied)
    kg = _hub_kg()
    n, queries = len(kg.entities), 2 * len(kg.test)
    assert queries % chunk or chunk == 1
    hubs = (("tail", "e0", "r"), ("head", "e0", "s"))
    assert min(len(kg.answer_index[key]) for key in hubs) > 15
    rng = np.random.default_rng(chunk)
    vectors, relations = rng.normal(size=(n, 6)), rng.normal(size=(2, 6))
    vectors[[3, 5, 7]] = vectors[1]  # exact ties
    for norm in ("L1", "L2"):
        for exponent in (0, -80, -100):
            scale = 2.0 ** exponent
            model = EmbeddingModel(kg.entity_ids, kg.relation_ids, vectors * scale,
                                   relations * scale, norm=norm)
            for filtered in (True, False):
                rows.clear()
                got = rank_queries(model, kg, "test", filtered)
                # every pass gathers at most a block of rows
                assert max(rows) <= block, (norm, exponent, filtered)
                wide = norm == "L2" and exponent < 0
                # a wide band re-scores every (query, entity) pair
                assert (sum(rows) >= queries * n) == wide, (norm, exponent, filtered)
                assert got.tolist() == _ranks(_dict_path_records(model, kg, "test", filtered)), (
                    norm, exponent, filtered)


@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_a_wide_table_ranks_alike_in_both_orders(monkeypatch, norm):
    # one entity over the cap, so a dimension at a time takes two balanced
    # blocks; forcing a query at a time must give the same ranks, and so
    # must the brute force. Copies and float64 neighbours of the golds put
    # exact ties and near-ties in the band.
    n = transe._WIDE_BLOCK + 1
    assert n >= transe._WIDE_TABLE
    ids = [f"e{i}" for i in range(n)]
    rng = random.Random(13)
    facts = {(rng.choice(ids), rng.choice("rs"), rng.choice(ids)) for _ in range(300)}
    facts = sorted(facts)
    kg = make_kg(ids, ["r", "s"], train=facts[40:], valid=facts[:10], test=facts[10:40])
    golds = sorted({kg.structure.entity_row[e] for h, _, t in facts[10:40] for e in (h, t)})
    gen = np.random.default_rng(13)
    vectors, relations = gen.normal(size=(n, 24)), gen.normal(size=(2, 24))
    copies = gen.choice(n, size=(len(golds), 4), replace=False)
    vectors[copies[:, :2]] = vectors[golds][:, None]
    vectors[copies[:, 2:]] = np.nextafter(vectors[golds], np.inf)[:, None]
    model = EmbeddingModel(kg.entity_ids, kg.relation_ids, vectors, relations, norm=norm)
    wide = rank_queries(model, kg, "test", True)
    _force_order(monkeypatch, "query", transe._WIDE_BLOCK)
    assert rank_queries(model, kg, "test", True).tolist() == wide.tolist() == _ranks(
        _dict_path_records(model, kg, "test", True))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ranking_a_non_finite_model_is_a_validation_error(value):
    kg = random_kg(random.Random(3))
    model = init_model(kg, dim=4, seed=0)
    for table, at in ((model.entity_vectors, (slice(None), 2)), (model.relation_vectors, (1, 0))):
        saved = table.copy()
        table[at] = value
        with pytest.raises(ValidationError, match="non-finite"):
            evaluate_model(model, kg, "test")
        table[:] = saved
    evaluate_model(model, kg, "test")


def test_model_missing_a_relation_rejected():
    kg = random_kg(random.Random(3))
    full = init_model(kg, dim=4, seed=0)
    model = EmbeddingModel(full.entity_ids, full.relation_ids[:-1],
                           full.entity_vectors, full.relation_vectors[:-1])
    with pytest.raises(ValidationError, match="relations"):
        evaluate_model(model, kg, "test")
    with pytest.raises(ValidationError, match="relations"):
        probe_loss(model, kg)


def test_model_missing_an_entity_rejected():
    kg = random_kg(random.Random(3))
    full = init_model(kg, dim=4, seed=0)
    model = EmbeddingModel(full.entity_ids[:-1], full.relation_ids,
                           full.entity_vectors[:-1], full.relation_vectors)
    with pytest.raises(ValidationError):
        evaluate_model(model, kg, "test")
    query = next(q for q in split_queries(kg) if q.known[0] in model.entity_row)
    with pytest.raises(ValidationError):
        rank_gold(score_all(model, *query.known, query.direction), query, kg)


# --- checkpointing --------------------------------------------------------------------

def test_checkpoint_roundtrip(pattern_kg, tmp_path):
    model = train(pattern_kg, TrainConfig(dim=6, epochs=4, learning_rate=0.05, seed=12))
    save_model(model, tmp_path)
    loaded = load_model(tmp_path)
    assert loaded.entity_ids == model.entity_ids
    assert loaded.norm == model.norm
    assert np.array_equal(loaded.entity_vectors, model.entity_vectors)
    assert np.array_equal(loaded.relation_vectors, model.relation_vectors)


def _saved_l1_model(tmp_path):
    kg = random_kg(random.Random(5))
    model = init_model(kg, dim=4, seed=2, norm="L1")
    save_model(model, tmp_path)
    return model


def test_checkpoint_with_unknown_norm_rejected(tmp_path):
    _saved_l1_model(tmp_path)
    (tmp_path / "model.tsv").write_text("dim\t4\nnorm\tl1\nmargin\t1.0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="model.tsv: unknown norm 'l1'"):
        load_model(tmp_path)


@pytest.mark.parametrize("meta", ["dim\t4\nnorm\tL1\n", "dim\tfour\nnorm\tL1\nmargin\t1.0\n"])
def test_checkpoint_with_missing_or_malformed_field_rejected(meta, tmp_path):
    _saved_l1_model(tmp_path)
    (tmp_path / "model.tsv").write_text(meta, encoding="utf-8")
    with pytest.raises(ValidationError, match="model.tsv: missing or malformed field"):
        load_model(tmp_path)


def test_checkpoint_with_a_repeated_field_rejected(tmp_path):
    # the last norm and margin used to win, loading an L2 model with margin 5.0
    _saved_l1_model(tmp_path)
    (tmp_path / "model.tsv").write_text("dim\t4\nnorm\tL1\nmargin\t1.0\nnorm\tL2\nmargin\t5.0\n",
                                        encoding="utf-8")
    with pytest.raises(ValidationError,
                       match="^model.tsv:4: repeated field 'norm', first at line 2$"):
        load_model(tmp_path)


def test_checkpoint_with_an_unknown_field_rejected(tmp_path):
    _saved_l1_model(tmp_path)
    path = tmp_path / "model.tsv"
    path.write_text(path.read_text(encoding="utf-8") + "extra\tx\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="^model.tsv:4: unknown field 'extra'$"):
        load_model(tmp_path)


def test_checkpoint_dim_must_match_the_vectors(tmp_path):
    _saved_l1_model(tmp_path)
    (tmp_path / "model.tsv").write_text("dim\t5\nnorm\tL1\nmargin\t1.0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="entity_vectors.tsv:1: expected 5 components, got 4"):
        load_model(tmp_path)


@pytest.mark.parametrize("dim", ["-1", "0"])
def test_checkpoint_dim_below_one_rejected(dim, tmp_path):
    _saved_l1_model(tmp_path)
    (tmp_path / "model.tsv").write_text(f"norm\tL1\ndim\t{dim}\nmargin\t1.0\n",
                                        encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^model.tsv:2: dim must be >= 1, got {dim}$"):
        load_model(tmp_path)


@pytest.mark.parametrize("margin", ["nan", "inf", "-inf"])
def test_checkpoint_non_finite_margin_rejected(margin, tmp_path):
    _saved_l1_model(tmp_path)
    (tmp_path / "model.tsv").write_text(f"dim\t4\nnorm\tL1\n\nmargin\t{margin}\n",
                                        encoding="utf-8")
    with pytest.raises(ValidationError,
                       match=f"^model.tsv:4: non-finite margin '{re.escape(margin)}'$"):
        load_model(tmp_path)


def test_checkpoint_with_ragged_vectors_rejected(tmp_path):
    _saved_l1_model(tmp_path)
    path = tmp_path / "relation_vectors.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError,
                       match="relation_vectors.tsv:2: expected 4 components, got 3"):
        load_model(tmp_path)


def test_checkpoint_with_non_numeric_component_rejected(tmp_path):
    _saved_l1_model(tmp_path)
    path = tmp_path / "entity_vectors.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].split("\t")[0] + "\t0.5,x,0.5,0.5"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="entity_vectors.tsv:3: could not convert"):
        load_model(tmp_path)


@pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
def test_checkpoint_with_non_finite_component_rejected(component, tmp_path):
    _saved_l1_model(tmp_path)
    path = tmp_path / "entity_vectors.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].split("\t")[0] + f"\t0.5,{component},0.5,0.5"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError,
                       match=f"^entity_vectors.tsv:3: non-finite value '{re.escape(component)}'$"):
        load_model(tmp_path)


def test_checkpoint_blank_lines_are_skipped(tmp_path):
    model = _saved_l1_model(tmp_path)
    path = tmp_path / "entity_vectors.tsv"
    path.write_text(path.read_text(encoding="utf-8").replace("\n", "\n\n"), encoding="utf-8")
    loaded = load_model(tmp_path)
    assert loaded.entity_ids == model.entity_ids
    assert np.array_equal(loaded.entity_vectors, model.entity_vectors)
