"""Text-blind translational embedding baseline.

Entities and relations live in R^d; a triple (h, r, t) scores the negative
distance ||v_h + v_r - v_t|| under L1 or L2. Training minimizes the margin
ranking loss max(0, margin + d_pos - d_neg) with uniform negative sampling
(a corrupted head or tail per negative) by minibatch SGD: one update per
batch of (triple, negative) pairs, from their summed gradients. The model
consumes ids only, never surface text, which is exactly what makes it a
perturbation-invariance oracle for the transform suite.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import KgsynthError, ValidationError
from .evaluate import (MetricsReport, Query, RankingRecord, compute_metrics, pessimistic_rank,
                       rank_split)
from .kg import KnowledgeGraph, float_cells, read_rows, write_rows

_EPS = 1e-12
NORMS = ("L1", "L2")
# entity rows scored per step of rank_queries
_ENTITY_BLOCK = 1024


class DivergenceError(KgsynthError):
    """Training produced non-finite embeddings."""


@dataclass(frozen=True)
class TrainConfig:
    dim: int = 100
    margin: float = 1.0
    norm: str = "L1"
    learning_rate: float = 0.01
    epochs: int = 100
    negatives_per_positive: int = 1
    seed: int = 0
    batch_size: int = 1024


@dataclass(frozen=True)
class EmbeddingModel:
    entity_ids: tuple[str, ...]
    relation_ids: tuple[str, ...]
    entity_vectors: np.ndarray  # (n_entities, dim)
    relation_vectors: np.ndarray  # (n_relations, dim)
    norm: str = "L1"
    margin: float = 1.0

    @cached_property
    def entity_row(self) -> dict[str, int]:
        return {eid: i for i, eid in enumerate(self.entity_ids)}

    @cached_property
    def relation_row(self) -> dict[str, int]:
        return {rid: i for i, rid in enumerate(self.relation_ids)}

    @property
    def dim(self) -> int:
        return self.entity_vectors.shape[1]

    def entity_vector(self, entity_id: str) -> np.ndarray:
        row = self.entity_row.get(entity_id)
        if row is None:
            raise ValueError(f"unknown entity id {entity_id!r}")
        return self.entity_vectors[row]

    def relation_vector(self, relation_id: str) -> np.ndarray:
        row = self.relation_row.get(relation_id)
        if row is None:
            raise ValueError(f"unknown relation id {relation_id!r}")
        return self.relation_vectors[row]


def _distance(diff: np.ndarray, norm: str) -> np.ndarray:
    """Translation distance along the last axis: one per row of ``diff``."""
    if norm == "L1":
        return np.abs(diff).sum(axis=-1)
    return np.sqrt((diff * diff).sum(axis=-1))


def _distance_grad(diff: np.ndarray, norm: str) -> np.ndarray:
    # Subgradient at kinks: sign(0) = 0 for L1, zero vector at d = 0 for L2.
    if norm == "L1":
        return np.sign(diff)
    d = _distance(diff, norm)[..., None]
    return np.divide(diff, d, out=np.zeros_like(diff), where=d >= _EPS)


def init_model(kg: KnowledgeGraph, dim: int, seed: int, norm: str = "L1",
               margin: float = 1.0) -> EmbeddingModel:
    """Uniform(-6/sqrt(dim), 6/sqrt(dim)) init; all vectors L2-normalized."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if norm not in NORMS:
        raise ValueError(f"norm must be 'L1' or 'L2', got {norm!r}")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)
    entity_vectors = rng.uniform(-bound, bound, size=(len(kg.entities), dim))
    relation_vectors = rng.uniform(-bound, bound, size=(len(kg.relations), dim))
    _normalize_rows(entity_vectors)
    _normalize_rows(relation_vectors)
    return EmbeddingModel(
        entity_ids=kg.entity_ids,
        relation_ids=kg.relation_ids,
        entity_vectors=entity_vectors,
        relation_vectors=relation_vectors,
        norm=norm,
        margin=margin,
    )


def _normalize_rows(matrix: np.ndarray) -> None:
    # Skip rows already unit-norm so renormalizing is a bit-exact no-op on an
    # untouched model (zero learning rate must reproduce the init exactly).
    norms = np.sqrt((matrix * matrix).sum(axis=1, keepdims=True))
    np.maximum(norms, _EPS, out=norms)
    rows = (np.abs(norms - 1.0) > 1e-12)[:, 0]
    if rows.any():
        matrix[rows] /= norms[rows]


def score_triple(model: EmbeddingModel, h: str, r: str, t: str) -> float:
    """Negative translation distance; higher means more plausible."""
    diff = model.entity_vector(h) + model.relation_vector(r) - model.entity_vector(t)
    return -float(_distance(diff, model.norm))


def margin_loss_and_grads(
    e_h: np.ndarray,
    e_r: np.ndarray,
    e_t: np.ndarray,
    e_h_neg: np.ndarray,
    e_t_neg: np.ndarray,
    margin: float,
    norm: str,
) -> tuple[float, tuple[np.ndarray, ...]]:
    """Hinge loss max(0, margin + d_pos - d_neg) and its gradients.

    Returns (loss, (g_h, g_r, g_t, g_h_neg, g_t_neg)); gradients are zero
    when the hinge is inactive.
    """
    diff_pos = e_h + e_r - e_t
    diff_neg = e_h_neg + e_r - e_t_neg
    loss = margin + _distance(diff_pos, norm) - _distance(diff_neg, norm)
    if loss <= 0.0:
        zero = np.zeros_like(e_h)
        return 0.0, (zero, zero.copy(), zero.copy(), zero.copy(), zero.copy())
    g_pos = _distance_grad(diff_pos, norm)
    g_neg = _distance_grad(diff_neg, norm)
    return loss, (g_pos, g_pos - g_neg, -g_pos, -g_neg, g_neg)


def train(kg: KnowledgeGraph, config: TrainConfig = TrainConfig()) -> EmbeddingModel:
    """Margin-ranking minibatch SGD over the train split.

    Each epoch pairs every train triple, in a seeded random order, with
    ``negatives_per_positive`` corruptions, and cuts the (triple, negative)
    pairs into batches of ``batch_size``. One update per batch applies the
    hinge gradients of its active pairs, all taken from the vectors as they
    stood before the batch, in pair order; ``batch_size=1`` is per-triple
    SGD. Every run is bit-reproducible for a fixed config. Entity vectors
    are renormalized to unit L2 norm after every epoch.
    """
    if not kg.train:
        raise ValueError("train split is empty")
    for name, low in (("negatives_per_positive", 1), ("batch_size", 1), ("epochs", 0)):
        if getattr(config, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(config, name)}")
    model = init_model(kg, config.dim, config.seed, norm=config.norm, margin=config.margin)
    # init_model orders the model's rows as the graph's
    rows = kg.split_rows["train"]

    entities = model.entity_vectors
    relations = model.relation_vectors
    n_train = len(kg.train)
    n_entities = len(kg.entity_ids)
    rng = np.random.default_rng([config.seed, 1])

    # overflow inside a diverging epoch is reported via the finiteness check,
    # not as a stream of runtime warnings
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n_train)
            repeats = config.negatives_per_positive
            corrupt_tail = rng.random((n_train, repeats)) < 0.5
            corrupt_with = rng.integers(0, n_entities, size=(n_train, repeats))
            # (h, r, t, h_neg, t_neg) pairs: triples in order, each one's negatives in turn
            triples = rows[np.repeat(order, repeats)]
            tail, other = corrupt_tail[order].ravel(), corrupt_with[order].ravel()
            pairs = np.column_stack([triples, np.where(tail, triples[:, 0], other),
                                     np.where(tail, other, triples[:, 2])])
            for start in range(0, len(pairs), config.batch_size):
                _step(entities, relations, pairs[start:start + config.batch_size], config)
            _normalize_rows(entities)
            if not (np.isfinite(entities).all() and np.isfinite(relations).all()):
                raise DivergenceError(f"non-finite embeddings after epoch {epoch + 1}")
    return model


def _hinge(entities, relations, h, r, t, h_neg, t_neg, margin, norm):
    """Per-pair ``margin + d_pos - d_neg`` and the two translation residuals."""
    rel = relations[r]
    diff_pos = entities[h] + rel - entities[t]
    diff_neg = entities[h_neg] + rel - entities[t_neg]
    loss = margin + _distance(diff_pos, norm) - _distance(diff_neg, norm)
    return loss, diff_pos, diff_neg


def _step(entities, relations, pairs: np.ndarray, config: TrainConfig) -> None:
    """One update from the summed hinge gradients of (h, r, t, h_neg, t_neg) pairs.

    ``subtract.at`` applies them in pair order (h, t, h_neg, t_neg within a
    pair), as per-triple SGD on ``margin_loss_and_grads`` does, so a one-pair
    batch is bit-identical to it.
    """
    loss, diff_pos, diff_neg = _hinge(entities, relations, *pairs.T, config.margin, config.norm)
    active = ~(loss <= 0.0)  # a NaN loss updates, as in the scalar path
    if not active.any():
        return
    g_pos = _distance_grad(diff_pos[active], config.norm)
    g_neg = _distance_grad(diff_neg[active], config.norm)
    lr = config.learning_rate
    pairs = pairs[active]
    _subtract_rows_at(relations, pairs[:, 1], lr * (g_pos - g_neg))
    step_pos, step_neg = lr * g_pos, lr * g_neg
    steps = np.stack([step_pos, -step_pos, -step_neg, step_neg], axis=1)
    _subtract_rows_at(entities, pairs[:, [0, 2, 3, 4]].ravel(), steps)


def _subtract_rows_at(matrix: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.subtract.at(matrix, rows, values)`` bit for bit, on numpy's faster 1-D path.

    ``matrix`` must be C-contiguous, so that ``reshape`` returns a view.
    """
    dim = matrix.shape[1]
    flat = (rows[:, None] * dim + np.arange(dim)).ravel()
    np.subtract.at(matrix.reshape(-1), flat, values.ravel())


def probe_loss(model: EmbeddingModel, kg: KnowledgeGraph, seed: int = 0,
               batch_size: int = 1000) -> float:
    """Mean hinge loss over a fixed probe batch with fixed negatives.

    Depends only on (kg, seed, batch_size) for the batch, which names its
    entities by id, so any two models over the graph are directly comparable.
    """
    n = min(batch_size, len(kg.train))
    if n == 0:
        raise ValueError("train split is empty")
    rng = np.random.default_rng([seed, 2])
    corrupt_tail = rng.random(n) < 0.5
    to_entity = _row_map(model.entity_ids, model.entity_row, kg.entity_ids, "entities")
    to_relation = _row_map(model.relation_ids, model.relation_row, kg.relation_ids, "relations")
    corrupt_with = to_entity[rng.integers(0, len(kg.entity_ids), size=n)]
    h, r, t = kg.split_rows["train"][:n].T
    h, r, t = to_entity[h], to_relation[r], to_entity[t]
    h_neg = np.where(corrupt_tail, h, corrupt_with)
    t_neg = np.where(corrupt_tail, corrupt_with, t)
    loss, _, _ = _hinge(model.entity_vectors, model.relation_vectors, h, r, t, h_neg, t_neg,
                        model.margin, model.norm)
    return float(np.maximum(loss, 0.0).sum()) / n


def _row_map(model_ids: tuple[str, ...], model_row: dict[str, int],
             graph_ids: tuple[str, ...], what: str) -> np.ndarray:
    """Model row of each graph row, for the same ids.

    Raises ValidationError unless the model covers exactly the graph's ids.
    """
    missing = [i for i in graph_ids if i not in model_row]
    if missing or len(model_ids) != len(graph_ids):
        raise ValidationError(
            f"model covers {len(model_ids)} {what}, expected the graph's "
            f"{len(graph_ids)} (missing: {missing[:3]})"
        )
    return np.array([model_row[i] for i in graph_ids], dtype=np.intp)


def _scores_into(buf: np.ndarray, entities: np.ndarray, known: np.ndarray, rel: np.ndarray,
                 direction: str, norm: str, out: np.ndarray | None = None) -> np.ndarray:
    """Negative translation distance of every entity row as the unknown end.

    ``buf`` has the shape of ``entities`` and is overwritten; the in-place
    ops reuse it. The scores go to ``out`` (one per row) when given. Each
    row is summed over its own contiguous values, so scoring a table in
    chunks of rows gives the same bits as scoring it whole.
    """
    if direction == "tail":
        np.subtract(known + rel, entities, out=buf)
    else:
        np.add(entities, rel, out=buf)
        np.subtract(buf, known, out=buf)
    if norm == "L1":
        np.abs(buf, out=buf)
        dists = buf.sum(axis=1, out=out)
    else:
        np.multiply(buf, buf, out=buf)
        dists = buf.sum(axis=1, out=out)
        np.sqrt(dists, out=dists)
    np.negative(dists, out=dists)
    return dists


def score_all(model: EmbeddingModel, known_id: str, relation_id: str,
              direction: str) -> dict[str, float]:
    """score_triple against every entity at once, as a scores table.

    Vectorized but definitionally identical to calling score_triple per
    candidate (the equivalence is covered by tests).
    """
    known = model.entity_vector(known_id)
    rel = model.relation_vector(relation_id)
    if direction not in ("tail", "head"):
        raise ValueError(f"direction must be 'tail' or 'head', got {direction!r}")
    entities = model.entity_vectors
    scores = _scores_into(np.empty_like(entities), entities, known, rel, direction, model.norm)
    return dict(zip(model.entity_ids, scores.tolist()))


def rank_queries(model: EmbeddingModel, kg: KnowledgeGraph, split: str = "test",
                 filtered: bool = True) -> list[RankingRecord]:
    """Gold rank of every split query, in split order, through ``rank_split``.

    Equal, query by query, to ``rank_gold`` over ``score_all``: the same
    distances and tie policy (``pessimistic_rank``), without building a
    scores table per query. The model must cover exactly the graph's
    entities and relations, in any order. Each thread scores a query into
    its own buffers, ``_ENTITY_BLOCK`` entity rows at a time, so its scratch
    block stays cache-sized.
    """
    # the tables in graph row order, so every score lands on its kg row
    entities = model.entity_vectors[
        _row_map(model.entity_ids, model.entity_row, kg.entity_ids, "entities")]
    relations = model.relation_vectors[
        _row_map(model.relation_ids, model.relation_row, kg.relation_ids, "relations")]
    entity_row, relation_row = kg.entity_row, kg.relation_row
    n_entities = len(entities)
    block = min(_ENTITY_BLOCK, n_entities)
    buffers = threading.local()

    def rank_of(query: Query, gold: int, rivals: np.ndarray) -> int:
        if not hasattr(buffers, "scores"):
            buffers.scratch = np.empty((block, entities.shape[1]))
            buffers.scores = np.empty(n_entities)
        scratch, scores = buffers.scratch, buffers.scores
        known_id, relation_id = query.known
        known, rel = entities[entity_row[known_id]], relations[relation_row[relation_id]]
        for start in range(0, n_entities, block):
            stop = min(start + block, n_entities)
            _scores_into(scratch[:stop - start], entities[start:stop], known, rel,
                         query.direction, model.norm, out=scores[start:stop])
        return pessimistic_rank(scores, scores[gold], scores[rivals])

    return rank_split(kg, split, filtered, rank_of)


def evaluate_model(model: EmbeddingModel, kg: KnowledgeGraph, split: str = "test",
                   filtered: bool = True) -> MetricsReport:
    """Rank every split triple in both directions and aggregate the metrics."""
    return compute_metrics(rank_queries(model, kg, split, filtered), filtered=filtered)


def save_model(model: EmbeddingModel, directory: str | Path) -> None:
    """TSV checkpoint: id<TAB>comma-joined components, plus a manifest."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for name, ids, matrix in (("entity_vectors.tsv", model.entity_ids, model.entity_vectors),
                              ("relation_vectors.tsv", model.relation_ids, model.relation_vectors)):
        write_rows(root / name, ((row_id, ",".join(map(repr, row)))
                                 for row_id, row in zip(ids, matrix.tolist())))
    write_rows(root / "model.tsv",
               [("dim", str(model.dim)), ("norm", model.norm), ("margin", repr(model.margin))])


def load_model(directory: str | Path) -> EmbeddingModel:
    """Read a ``save_model`` checkpoint; raise ValidationError if it is malformed."""
    root = Path(directory)
    meta = dict(cells for _, cells in read_rows(root / "model.tsv", 2))
    try:
        dim, norm, margin = int(meta["dim"]), meta["norm"], float(meta["margin"])
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"model.tsv: missing or malformed field: {exc}") from exc
    if norm not in NORMS:
        raise ValidationError(f"model.tsv: unknown norm {norm!r}, expected one of {NORMS}")
    entity_ids, entity_vectors = _load_vectors(root / "entity_vectors.tsv", dim)
    relation_ids, relation_vectors = _load_vectors(root / "relation_vectors.tsv", dim)
    return EmbeddingModel(
        entity_ids=entity_ids,
        relation_ids=relation_ids,
        entity_vectors=entity_vectors,
        relation_vectors=relation_vectors,
        norm=norm,
        margin=margin,
    )


def _load_vectors(path: Path, dim: int) -> tuple[tuple[str, ...], np.ndarray]:
    ids = []
    rows = []
    for lineno, (row_id, cells) in read_rows(path, 2):
        row = float_cells(path, lineno, cells.split(","))
        if len(row) != dim:
            raise ValidationError(
                f"{path.name}:{lineno}: expected {dim} components, got {len(row)}"
            )
        ids.append(row_id)
        rows.append(row)
    if not rows:
        raise ValidationError(f"{path} holds no vectors")
    return tuple(ids), np.array(rows, dtype=float)
