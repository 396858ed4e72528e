"""Text-blind translational embedding baseline.

Entities and relations live in R^d; a triple (h, r, t) scores the negative
distance ||v_h + v_r - v_t|| under L1 or L2. Training minimizes the margin
ranking loss max(0, margin + d_pos - d_neg) with uniform negative sampling
(a corrupted head or tail per negative) by minibatch SGD: one update per
batch of (triple, negative) pairs, from their summed gradients. The model
consumes ids only, never surface text, which is exactly what makes it a
perturbation-invariance oracle for the transform suite.

Memory contract: training's passes over the model allocate at most one block
beyond what they return: rows are renormalized ``_NORM_ROWS`` at a time and
finiteness is checked with two reductions. Each epoch of ``train`` holds its
draws, 17 bytes per (triple, negative) pair, and builds the pairs
``_PAIR_BLOCK`` at a time, in whole batches; every batch's update works in
buffers made once per call for one batch, so no batch allocates a table the
batch's size. Ranking lays the entity vectors out once per call as a dim-major
float32 copy and ranks a chunk of queries ``_ENTITY_BLOCK`` columns at a
time; it holds the copy, a norm and a model row per entity and, per thread,
one ``(dim, _ENTITY_BLOCK)`` float32 buffer (the chunk's comparison flags
reuse it), one ``(QUERY_CHUNK, _ENTITY_BLOCK)`` float32 buffer of cheap
distances and, for the exact re-score, at most a block of gathered rows and
about ``QUERY_CHUNK + 1`` blocks of band entries: nothing per thread grows
with |E|.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import KgsynthError, ValidationError
from .evaluate import MetricsReport, rank_metrics, rank_split
from .kg import KnowledgeGraph, float_cells, read_rows, write_rows

_EPS = 1e-12
NORMS = ("L1", "L2")
# entity columns scored per step of rank_queries
_ENTITY_BLOCK = 4096
# rows of a vector table renormalized at once
_NORM_ROWS = 1 << 10
# (triple, negative) pairs train builds at once, rounded to whole batches
_PAIR_BLOCK = 1 << 14


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

    def __post_init__(self) -> None:
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}, got {self.norm!r}")

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
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)
    entity_vectors = rng.uniform(-bound, bound, size=(len(kg.entity_ids), dim))
    relation_vectors = rng.uniform(-bound, bound, size=(len(kg.relation_ids), dim))
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
    """Scale each row of ``matrix`` to unit L2 norm in place, ``_NORM_ROWS`` rows at a time.

    A row's norm depends on that row alone, so the blocks give the bits the
    whole matrix at once would. Rows already unit-norm are skipped, so
    renormalizing is a bit-exact no-op on an untouched model (zero learning
    rate must reproduce the init exactly).
    """
    for start in range(0, len(matrix), _NORM_ROWS):
        block = matrix[start:start + _NORM_ROWS]
        norms = np.sqrt((block * block).sum(axis=1, keepdims=True))
        np.maximum(norms, _EPS, out=norms)
        rows = (np.abs(norms - 1.0) > 1e-12)[:, 0]
        if rows.any():
            block[rows] /= norms[rows]


def _all_finite(matrix: np.ndarray) -> bool:
    """Whether no value of ``matrix`` is NaN or infinite, without a flag per value:
    NaN propagates through ``min`` and ``max``, and an infinity is one of them."""
    return bool(np.isfinite(matrix.min(initial=0.0)) and np.isfinite(matrix.max(initial=0.0)))


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

    Memory: an epoch holds its draws, 17 bytes per (triple, negative) pair
    (the order, whether to corrupt the tail, the entity that corrupts it).
    The pairs themselves are built ``_PAIR_BLOCK`` at a time, in whole
    batches, and every batch's update works in buffers made once per call,
    which hold one batch.

    Raises ValueError for an empty train split, a count below its minimum,
    a non-finite margin, or a learning rate that is negative or not finite.
    """
    rows = kg.structure.split_rows["train"]
    if not len(rows):
        raise ValueError("train split is empty")
    for name, low in (("negatives_per_positive", 1), ("batch_size", 1), ("epochs", 0)):
        if getattr(config, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(config, name)}")
    if not math.isfinite(config.margin):
        raise ValueError(f"margin must be finite, got {config.margin}")
    if not (math.isfinite(config.learning_rate) and config.learning_rate >= 0):
        raise ValueError(f"learning_rate must be finite and >= 0, got {config.learning_rate}")
    # init_model orders the model's rows as the graph's
    model = init_model(kg, config.dim, config.seed, norm=config.norm, margin=config.margin)
    entities = model.entity_vectors
    relations = model.relation_vectors
    n_train = len(rows)
    n_entities = len(kg.entity_ids)
    repeats = config.negatives_per_positive
    n_pairs = n_train * repeats
    batch = min(config.batch_size, n_pairs)
    block = batch * max(1, _PAIR_BLOCK // batch)
    step = _Step(entities, relations, batch, config)
    corrupt_tail = np.empty(n_pairs, dtype=bool)
    rng = np.random.default_rng([config.seed, 1])

    # overflow inside a diverging epoch is reported via the finiteness check,
    # not as a stream of runtime warnings
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            # each train row's draws; a block of doubles at a time is the
            # stream one call would draw
            order = rng.permutation(n_train)
            for start in range(0, n_pairs, block):
                stop = min(start + block, n_pairs)
                np.less(rng.random(stop - start), 0.5, out=corrupt_tail[start:stop])
            corrupt_with = rng.integers(0, n_entities, size=n_pairs)
            # (h, r, t, h_neg, t_neg) pairs: the triples in order, each one's
            # negatives in turn; pair p is negative p % repeats of order[p // repeats]
            for start in range(0, n_pairs, block):
                position, negative = np.divmod(
                    np.arange(start, min(start + block, n_pairs)), repeats)
                triple = order[position]
                draw = triple * repeats + negative
                h, r, t = rows[triple].T.astype(np.intp)
                tail, other = corrupt_tail[draw], corrupt_with[draw]
                h_neg, t_neg = np.where(tail, h, other), np.where(tail, other, t)
                for first in range(0, len(draw), batch):
                    at = slice(first, first + batch)
                    step(h[at], r[at], t[at], h_neg[at], t_neg[at])
            _normalize_rows(entities)
            if not (_all_finite(entities) and _all_finite(relations)):
                raise DivergenceError(f"non-finite embeddings after epoch {epoch + 1}")
    return model


def _hinge(entities, relations, h, r, t, h_neg, t_neg, margin, norm):
    """Per-pair ``margin + d_pos - d_neg`` and the two translation residuals."""
    rel = relations[r]
    diff_pos = entities[h] + rel - entities[t]
    diff_neg = entities[h_neg] + rel - entities[t_neg]
    loss = margin + _distance(diff_pos, norm) - _distance(diff_neg, norm)
    return loss, diff_pos, diff_neg


class _Step:
    """One update from the summed hinge gradients of a batch of (h, r, t,
    h_neg, t_neg) pairs, in buffers made once for ``capacity`` pairs.

    A batch gets the bits ``_hinge`` and ``_distance_grad`` give, from the
    same operations on the same rows. ``subtract.at`` applies the steps in
    pair order (h, t, h_neg, t_neg within a pair), as per-triple SGD on
    ``margin_loss_and_grads`` does, so a one-pair batch is bit-identical to
    it. A batch allocates only a few values per pair: the 1.6 MB of
    temporaries a batch of 1,024 pairs at dim 50 made lay above glibc's mmap
    threshold, so training's speed hung on what the process had freed before.
    """

    def __init__(self, entities: np.ndarray, relations: np.ndarray, capacity: int,
                 config: TrainConfig) -> None:
        self.entities, self.relations, self.config = entities, relations, config
        dim = entities.shape[1]
        capacity = 4 * -(-capacity // 4)  # so a quarter of the pairs' steps fill one buffer
        # (capacity, dim) rows: the two residuals, then the active pairs'
        # gradients; the relation rows and the terms of a distance, then the
        # active pairs' residuals
        self.pos, self.neg, self.rel, self.terms = np.empty((4, capacity, dim))
        self.losses = np.empty((3, capacity))  # d_pos, d_neg and the hinge
        self.active = np.empty(capacity, dtype=bool)
        self.rows = np.empty((capacity, 4), dtype=np.intp)  # h, t, h_neg, t_neg
        self.flat = np.empty((capacity, dim), dtype=np.intp)

    def _distance(self, diff: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``_distance(diff, norm)`` into ``out``, its terms in ``self.terms``."""
        terms = self.terms[:len(diff)]
        if self.config.norm == "L1":
            np.abs(diff, out=terms)
            return np.add.reduce(terms, axis=-1, out=out)
        np.multiply(diff, diff, out=terms)
        return np.sqrt(np.add.reduce(terms, axis=-1, out=out), out=out)

    def __call__(self, h: np.ndarray, r: np.ndarray, t: np.ndarray, h_neg: np.ndarray,
                 t_neg: np.ndarray) -> None:
        entities, relations, config = self.entities, self.relations, self.config
        n = len(h)
        rel, pos, neg, other = self.rel[:n], self.pos[:n], self.neg[:n], self.terms[:n]
        # rows in range, so mode="clip" gathers what "raise" would, unbuffered
        np.take(relations, r, axis=0, out=rel, mode="clip")
        np.add(np.take(entities, h, axis=0, out=pos, mode="clip"), rel, out=pos)
        pos -= np.take(entities, t, axis=0, out=other, mode="clip")
        np.add(np.take(entities, h_neg, axis=0, out=neg, mode="clip"), rel, out=neg)
        neg -= np.take(entities, t_neg, axis=0, out=other, mode="clip")
        d_pos, d_neg, loss = self.losses[:, :n]
        np.add(self._distance(pos, d_pos), config.margin, out=loss)
        loss -= self._distance(neg, d_neg)
        active = np.less_equal(loss, 0.0, out=self.active[:n])
        np.logical_not(active, out=active)  # a NaN loss updates, as in the scalar path
        picked = np.flatnonzero(active)
        k = len(picked)
        if k == 0:
            return
        pos = np.take(pos, picked, axis=0, out=self.terms[:k], mode="clip")
        neg = np.take(neg, picked, axis=0, out=self.rel[:k], mode="clip")
        d_pos, d_neg, r = d_pos[picked], d_neg[picked], r[picked]
        rows = self.rows[:k]
        for column, field in enumerate((h, t, h_neg, t_neg)):
            rows[:, column] = field[picked]
        g_pos, g_neg, free = self.pos[:k], self.neg[:k], self.terms
        # _distance_grad, from the distances the hinge took (a row's sum does
        # not depend on the other rows), each gradient into a buffer of its
        # own: numpy 2.4's sign takes twice as long in place
        if config.norm == "L1":
            np.sign(pos, out=g_pos)
            np.sign(neg, out=g_neg)
        else:
            for diff, g, d in ((pos, g_pos, d_pos), (neg, g_neg, d_neg)):
                g[...] = 0.0
                np.divide(diff, d[:, None], out=g, where=(d >= _EPS)[:, None])
        # the entity steps of a quarter of the capacity at a time, in pair
        # order, in the buffer no gradient is in
        lr = config.learning_rate
        chunk = len(free) // 4
        for first in range(0, k, chunk):
            part = slice(first, first + chunk)
            m = min(chunk, k - first)
            steps = free.reshape(chunk, 4, -1)[:m]
            np.multiply(g_pos[part], lr, out=steps[:, 0])
            np.negative(steps[:, 0], out=steps[:, 1])
            np.multiply(g_neg[part], lr, out=steps[:, 3])
            np.negative(steps[:, 3], out=steps[:, 2])
            _subtract_rows_at(entities, rows[part].reshape(-1), steps.reshape(4 * m, -1),
                              self.flat[:4 * m])
        g_pos -= g_neg
        g_pos *= lr
        _subtract_rows_at(relations, r, g_pos, self.flat[:k])


def _subtract_rows_at(matrix: np.ndarray, rows: np.ndarray, values: np.ndarray,
                      flat: np.ndarray) -> None:
    """``np.subtract.at(matrix, rows, values)`` bit for bit, on numpy's faster
    1-D path: ``flat``, an intp ``values``-shaped buffer, takes each value's
    index into the flat ``matrix``.

    ``matrix`` must be C-contiguous, so that ``reshape`` returns a view.
    """
    dim = matrix.shape[1]
    np.add((rows * dim)[:, None], np.arange(dim), out=flat)
    np.subtract.at(matrix.reshape(-1), flat.reshape(-1), values.reshape(-1))


def probe_loss(model: EmbeddingModel, kg: KnowledgeGraph, seed: int = 0,
               batch_size: int = 1000) -> float:
    """Mean hinge loss over a fixed probe batch with fixed negatives.

    Depends only on (kg, seed, batch_size) for the batch, which names its
    entities by id, so any two models over the graph are directly comparable.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rows = kg.structure.split_rows["train"]
    n = min(batch_size, len(rows))
    if n == 0:
        raise ValueError("train split is empty")
    rng = np.random.default_rng([seed, 2])
    corrupt_tail = rng.random(n) < 0.5
    to_entity = _row_map(model.entity_ids, model.entity_row, kg.entity_ids, "entities")
    to_relation = _row_map(model.relation_ids, model.relation_row, kg.relation_ids, "relations")
    corrupt_with = to_entity[rng.integers(0, len(kg.entity_ids), size=n)]
    h, r, t = rows[:n].T
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


def score_all(model: EmbeddingModel, known_id: str, relation_id: str,
              direction: str) -> dict[str, float]:
    """score_triple against every entity at once, as a scores table: ``_distance``
    over the ``(|E|, dim)`` residuals (tests cover the equivalence)."""
    known = model.entity_vector(known_id)
    rel = model.relation_vector(relation_id)
    if direction not in ("tail", "head"):
        raise ValueError(f"direction must be 'tail' or 'head', got {direction!r}")
    vectors = model.entity_vectors
    diff = known + rel - vectors if direction == "tail" else vectors + rel - known
    return dict(zip(model.entity_ids, np.negative(_distance(diff, model.norm)).tolist()))


def _float32_table(entities: np.ndarray, to_entity: np.ndarray, norm: str,
                   block: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``to_entity`` of ``entities`` as a float32 dim-major table,
    copied a block of rows at a time, and each row's float64 norm.

    A spare column keeps every block of the table a strided view: numpy 2.4
    buffers a broadcast subtract whose operands are all contiguous, which
    made a one-block table's cheap pass 1.7x slower.
    """
    n = len(to_entity)
    table = np.empty((entities.shape[1], n + 1), dtype=np.float32)[:, :n]
    sizes = np.empty(n)
    for start in range(0, n, block):
        rows = entities[to_entity[start:start + block]]
        table[:, start:start + block] = rows.T
        sizes[start:start + block] = _distance(rows, norm)
    return table, sizes


def rank_queries(model: EmbeddingModel, kg: KnowledgeGraph, split: str = "test",
                 filtered: bool = True) -> np.ndarray:
    """Gold rank of every split query, through ``rank_split``: int64, in its query order.

    Equal, query by query, to ``rank_gold`` over ``score_all``: the same
    distances and tie policy (``pessimistic_rank``), without a scores table
    per query. The model must cover exactly the graph's entities and
    relations, in any order, and hold only finite values (ValidationError).

    Filter and verify: a rank counts the entities whose exact distance D_j
    is at most the gold's, D_g. Each call copies the entity vectors once
    into a float32 dim-major table in graph row order. Each thread ranks one
    of ``rank_split``'s chunks of queries at a time, ``_ENTITY_BLOCK``
    columns of the table at a time, blocks outer and queries inner: each
    query's cheap distances d_j to the block (one subtract, one abs or
    square, one ``sum(axis=0)``) go into one buffer for the chunk, which is
    then compared with the chunk's bounds at once. For L2, d and D are sums
    of squares before the root. If |d_j - D_j| <= eps for every entity, d_j
    < lo = d_g - 2 eps surely counts and d_j > hi = d_g + 2 eps surely does
    not. Only the band between, the gold and the rivals get exact distances,
    from ``_distance`` on their float64 residual rows, in one pass per chunk
    that gathers at most a block of rows at a time; a band that outgrows a
    block is re-scored as it grows. The gold's cheap distance d_g comes from
    its own column of the table and may be summed in another order than its
    block's; the bound below holds for any order.

    The bound. Let u = 2^-24 and v = 2^-53 (unit roundoffs), n = dim, k, r
    and c the known, relation and candidate vectors, t the real residual
    (tail: a - c with a = fl64(k + r), which the exact pass forms as c - a,
    the same terms negated; head: c + r - k) and w_i = |k_i| + |r_i| +
    |c_i|. A float32 (float64) rounding errs by at most u|x| + 2^-150 (v|x|
    + 2^-1074); a sum or difference that underflows is exact.
    - Cheap terms fl32(fl32(a) - fl32(c)), a head's a being fl64(k - r),
      lie within (2u + u^2)(1 + v) w_i + v w_i + 2(1 + u) 2^-150 of t_i
      (v w_i pays for a head's c - (k - r) in place of (c + r) - k).
    - Exact terms lie within v(2 + v) w_i of t_i (one float64 rounding for
      a tail, two for a head).
    - Sums: n non-negative terms added in any order err by at most (n -
      1)u / (1 - (n - 1)u) times their sum (Higham, Accuracy and Stability
      of Numerical Algorithms, 2002, sec. 3.1), whatever order numpy picks.
    For n <= 2^14 this gives |d - D| <= 1.001 (n + 1) u N + n 2^-148 for L1,
    N = |k|_1 + |r|_1 + |c|_1, and, squares rounding as above, 1.002 (n +
    4) u N^2 + n 2^-148 for L2, N = |k|_2 + |r|_2 + |c|_2 (so |w|_2 <= N and
    sum w_i <= sqrt(n) N). eps puts this query's norms and the table's
    largest in N, and 1.01 in place of 1.001 and 1.002 to cover the float64
    rounding of norms and eps and L2 norms whose squares underflow. A
    correctly rounded root keeps D_j <= D_g and keeps D_j > (1 + 2^-50) D_g
    apart, so for L2 hi = (1 + 2^-50) d_g + (2 + 2^-50) eps. lo and hi are
    rounded outward to float32 (a conversion and one ``nextafter``, at
    least half a float32 step), which covers their float64 rounding and
    compares alike under value-based and NEP 50 scalar casting.

    No float32 value overflows while 4 (2 max|c| + max|r|)^p <= float32's
    largest value (p = 1 for L1, 2 for L2). A model outside that range, or
    with n > 2^14, verifies every entity.
    """
    if not (_all_finite(model.entity_vectors) and _all_finite(model.relation_vectors)):
        raise ValidationError("model holds non-finite vectors, so its ranks are undefined")
    to_entity = _row_map(model.entity_ids, model.entity_row, kg.entity_ids, "entities")
    # the relation table in graph row order, so every query's row lands on it
    relations = model.relation_vectors[
        _row_map(model.relation_ids, model.relation_row, kg.relation_ids, "relations")]
    entities, norm, dim = model.entity_vectors, model.norm, model.dim
    n_entities = len(to_entity)
    block = min(_ENTITY_BLOCK, n_entities) or 1
    power = 1 if norm == "L1" else 2
    # a model beyond float32's range overflows here; it then verifies every entity
    with np.errstate(over="ignore"):
        table, sizes = _float32_table(entities, to_entity, norm, block)
        relation_sizes = _distance(relations, norm)
        filtering = dim <= 1 << 14 and (
            4 * (2 * sizes.max(initial=0.0) + relation_sizes.max(initial=0.0)) ** power
            <= np.finfo(np.float32).max)
    largest = sizes.max(initial=0.0)
    kappa = 1.01 * (dim + (1 if norm == "L1" else 4)) * 2.0 ** -24
    # the root's rounding widens the band above the gold (L2 only)
    zeta = 1.0 if norm == "L1" else 1 + 2.0 ** -50
    outward = np.array([[-np.inf], [np.inf]], dtype=np.float32)
    square = np.abs if norm == "L1" else np.square
    buffers = threading.local()

    def rank_chunk(queries: range, k_rows: np.ndarray, r_rows: np.ndarray, gold: np.ndarray,
                   rivals: list[np.ndarray]) -> np.ndarray:
        m = len(queries)
        known, rel = entities[to_entity[k_rows]], relations[r_rows]
        tail = (np.arange(queries.start, queries.stop) % 2 == 0)[:, None]
        ahead = known + rel
        # exact residuals are (c + plus) - minus: a head's (c + r) - k, and a
        # tail's c - fl64(k + r), the negated a - c, whose distance has the same bits
        plus, minus = np.where(tail, 0.0, rel), np.where(tail, ahead, known)

        def at_or_below(q: np.ndarray, e: np.ndarray) -> np.ndarray:
            """Whether each (chunk query, entity row) pair's exact distance is at
            most its query's gold's, gathering at most a block of rows at a time."""
            q, e = np.concatenate((q, np.arange(m))), np.concatenate((e, gold))
            exact = np.empty(len(q))
            for start in range(0, len(q), block):
                at = slice(start, start + block)
                vectors = entities[to_entity[e[at]]]
                vectors += plus[q[at]]
                vectors -= minus[q[at]]
                exact[at] = _distance(vectors, norm)
            # pessimistic_rank over the scores -exact: -d >= -g exactly when d <= g
            return exact[:-m] <= exact[-m:][q[:-m]]

        ranks = np.zeros(m, dtype=np.int64)
        if filtering:
            if getattr(buffers, "chunk", 0) < m:  # a thread's buffers, made for its largest chunk
                buffers.chunk = m
                # one buffer holds a query's float32 terms, then the chunk's two flag tables
                buffers.terms = np.empty(max(dim, -(-m // 2)) * block, dtype=np.float32)
                buffers.dists = np.empty(m * block, dtype=np.float32)
            # the cheap terms are offset - c: exactly the residual of a tail,
            # (k + r) - c, and near the residual (c + r) - k of a head
            columns = np.where(tail, ahead, known - rel).astype(np.float32)[:, :, None]
            # the golds' cheap distances, from their own columns of the table
            terms = columns[:, :, 0].T - table[:, gold]
            cheap_gold = np.add.reduce(square(terms, out=terms), axis=0).astype(float)
            eps = (kappa * (sizes[k_rows] + relation_sizes[r_rows] + largest) ** power
                   + dim * 2.0 ** -148)
            lo, hi = np.nextafter(np.array([cheap_gold - 2 * eps,
                                            zeta * cheap_gold + (1 + zeta) * eps],
                                           dtype=np.float32), outward)[:, :, None]
        band_q, band_e, banded = [], [], 0
        for start in range(0, n_entities, block):
            width = min(block, n_entities - start)
            if filtering:
                # contiguous views, so numpy takes its fast path on a short last block
                out = buffers.terms[:dim * width].reshape(dim, width)
                dists = buffers.dists[:m * width].reshape(m, width)
                below, band = buffers.terms.view(bool)[:2 * m * width].reshape(2, m, width)
                part = table[:, start:start + width]
                for i in range(m):
                    np.subtract(columns[i], part, out=out)
                    square(out, out=out)
                    np.add.reduce(out, axis=0, out=dists[i])
                np.less(dists, lo, out=below)
                ranks += [np.count_nonzero(row) for row in below]
                # the band, lo <= d <= hi: d <= hi but not d < lo
                np.less_equal(dists, hi, out=band)
                np.not_equal(band, below, out=band)
                # numpy 2.4's nonzero of a (16, 4096) array takes 100 us however few are set
                q, e = np.divmod(np.flatnonzero(band), width)
            else:
                q, e = np.divmod(np.arange(m * width), width)
            band_q.append(q)
            band_e.append(e + start)
            banded += len(q)
            if banded >= block:  # a wide band is re-scored a block of pairs at a time
                q = np.concatenate(band_q)
                ranks += np.bincount(q[at_or_below(q, np.concatenate(band_e))], minlength=m)
                band_q, band_e, banded = [], [], 0
        # one exact pass over the rest of the band, then the rivals
        q = np.concatenate(band_q + [np.repeat(np.arange(m), [len(f) for f in rivals])])
        counted = at_or_below(q, np.concatenate(band_e + rivals))
        ranks += np.bincount(q[:banded][counted[:banded]], minlength=m)
        ranks -= np.bincount(q[banded:][counted[banded:]], minlength=m)
        return ranks

    return rank_split(kg, split, filtered, rank_chunk)


def evaluate_model(model: EmbeddingModel, kg: KnowledgeGraph, split: str = "test",
                   filtered: bool = True) -> MetricsReport:
    """Rank every split triple in both directions and aggregate the metrics."""
    return rank_metrics(rank_queries(model, kg, split, filtered), filtered=filtered)


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
    """Read a ``save_model`` checkpoint; raise ValidationError if it is
    malformed or holds what ``train`` never writes: a dim below 1 or a margin
    that is not finite."""
    root = Path(directory)
    # each field's value and line
    meta = {key: (value, lineno) for lineno, (key, value) in read_rows(root / "model.tsv", 2)}
    try:
        dim, norm, margin = int(meta["dim"][0]), meta["norm"][0], float(meta["margin"][0])
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"model.tsv: missing or malformed field: {exc}") from exc
    if norm not in NORMS:
        raise ValidationError(f"model.tsv: unknown norm {norm!r}, expected one of {NORMS}")
    if dim < 1:
        raise ValidationError(f"model.tsv:{meta['dim'][1]}: dim must be >= 1, got {dim}")
    if not math.isfinite(margin):
        raise ValidationError(f"model.tsv:{meta['margin'][1]}: non-finite margin "
                              f"{meta['margin'][0]!r}")
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
