"""Link-prediction ranking and metrics.

Queries are partial triples, (h, r, ?) for tail prediction or (?, r, t) for
head prediction. Ranking is pessimistic on ties (the gold entity ranks below
every rival with an equal score) and filtered by default: candidates that
form other known-true triples for the same query, in any split, are removed
before ranking. Both choices are stamped into every MetricsReport.

Every report ranks through ``rank_split``, which hands ``QUERY_CHUNK``
consecutive queries at a time, with their rows and filtered rivals, to a
ranker's own counting rule and returns one int64 rank per query, and
aggregates the ranks with ``rank_metrics``. The objects at the end of the
module, one per query, are the rankers' test oracle.

Memory contract: ``filter_rows``, the one pass over every split, reads the
splits ``_BLOCK_ROWS`` rows at a time, so beyond the answers it returns it
allocates one block and two flags per entity.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .kg import _BLOCK_ROWS, KnowledgeGraph, _sorted_distinct, read_rows

HITS_KS = (1, 3, 10)

PESSIMISTIC = "pessimistic"
CANDIDATE_ORDER = "candidate-order"

# consecutive queries ranked by one task of rank_split's thread pool
QUERY_CHUNK = 16


@dataclass(frozen=True)
class MetricsReport:
    hits: dict[int, float]
    mr: float
    mrr: float
    filtered: bool = True
    tie_policy: str = PESSIMISTIC

    def to_text(self) -> str:
        """Flat key<TAB>value rendering, full float precision."""
        lines = [f"hits@{k}\t{self.hits[k]!r}" for k in sorted(self.hits)]
        lines.append(f"mr\t{self.mr!r}")
        lines.append(f"mrr\t{self.mrr!r}")
        lines.append(f"filtered\t{str(self.filtered).lower()}")
        lines.append(f"tie_policy\t{self.tie_policy}")
        return "\n".join(lines) + "\n"


def rank_metrics(ranks: np.ndarray, filtered: bool = True,
                 tie_policy: str = PESSIMISTIC) -> MetricsReport:
    """Aggregate int64 gold ranks into Hits@k for k in {1,3,10}, MR, and MRR.

    Reciprocal ranks are added left to right, so a report's bits depend
    neither on the Python version (from 3.12 the builtin ``sum`` compensates
    float rounding) nor on numpy's pairwise ``sum``.
    """
    if not len(ranks):
        raise ValueError("cannot compute metrics over zero ranks")
    n = len(ranks)
    hits = {k: int(np.count_nonzero(ranks <= k)) / n for k in HITS_KS}
    mrr = float(np.add.accumulate(1.0 / ranks)[-1]) / n
    return MetricsReport(hits, int(ranks.sum()) / n, mrr, filtered, tie_policy)


def _split_rows(kg: KnowledgeGraph, split: str) -> np.ndarray:
    if not len(rows := kg.split(split).rows):
        raise ValidationError(f"{split} split is empty: there is nothing to rank")
    return rows


def filter_rows(kg: KnowledgeGraph, triples: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per query of the ``(n, 3)`` rows ``triples``, the entity rows of every
    known-true answer in any split.

    Query 2i asks for the tail of row i, (h, r, ?), and query 2i + 1 for its
    head, (?, r, t). Returns ``(answers, starts, ends)``: query q's answers
    are ``answers[starts[q]:ends[q]]``, sorted. This is the row-space form
    of ``answer_index``, built from ``kg.structure.split_rows`` alone (no
    name or description) and covering only the keys these queries use; a
    query's gold is among its answers whenever its row is a fact.

    Each split is matched ``_BLOCK_ROWS`` rows at a time against the sorted
    distinct query keys, so beyond the answers it returns the call holds one
    block's keys and two flags per entity, never an array over every fact.
    """
    n_entities, n_relations = len(kg.entity_ids), len(kg.relation_ids)
    # key = (known entity * |R| + relation) * 2 + (0 for tail, 1 for head)
    query_keys = ((triples[:, [0, 2]].astype(np.int64) * n_relations + triples[:, 1:2]) * 2
                  + (0, 1)).ravel()
    wanted = _sorted_distinct(query_keys)
    # per direction, the entities some query knows: only their facts can match
    known = np.zeros((2, n_entities), dtype=bool)
    known[wanted % 2, wanted // 2 // n_relations] = True
    found = [np.empty(0, dtype=np.int64)]
    for rows in kg.structure.split_rows.values():
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            # (known, answer) columns: (head, tail) for tail queries, then the reverse
            for direction, (k, a) in enumerate(((0, 2), (2, 0))):
                facts = block[known[direction, block[:, k]]]
                # (key, answer) pairs, sorted so that the key search runs in order
                pairs = np.sort(((facts[:, k].astype(np.int64) * n_relations + facts[:, 1]) * 2
                                 + direction) * n_entities + facts[:, a])
                keys = pairs // n_entities
                at = np.minimum(np.searchsorted(wanted, keys), len(wanted) - 1)
                found.append(pairs[wanted[at] == keys])
    # every fact is one pair (the graph holds no repeated triple), so each
    # key's answers are one slice of the sorted pairs
    keys, answers = np.divmod(np.sort(np.concatenate(found)), n_entities)
    return (answers, np.searchsorted(keys, query_keys, side="left"),
            np.searchsorted(keys, query_keys, side="right"))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def rank_split(kg: KnowledgeGraph, split: str, filtered: bool,
               rank_chunk: Callable[[range, np.ndarray, np.ndarray, np.ndarray,
                                     list[np.ndarray]], np.ndarray]) -> np.ndarray:
    """Gold rank of every split query as one int64 array: the one ranking loop.

    A split's queries are its rows plus a direction: query 2i asks for the
    tail of split row i, query 2i + 1 for its head. The loop hands its
    ranker ``QUERY_CHUNK`` consecutive queries at a time: ``rank_chunk(queries,
    known, relation, gold, rivals)`` gets the chunk's query indices as a
    ``range``, its known entity, relation and gold entity rows as int64
    arrays, and per query the entity rows that must not count against the
    gold: with ``filtered``, the query's other known-true answers in any
    split (``filter_rows``), and none otherwise. It returns the chunk's gold
    ranks, one per query, in order. Each ranker owns its counting rule.

    Chunks are ranked on a thread pool sized to the usable CPUs, so
    ``rank_chunk`` may be called from several threads at once. Each chunk
    writes only its own rank slots, so the ranks do not depend on thread
    timing or the number of CPUs.
    """
    triples = _split_rows(kg, split)
    n = 2 * len(triples)
    if filtered:
        answers, starts, ends = filter_rows(kg, triples)
    else:
        answers, starts, ends = np.empty(0, dtype=np.int64), np.zeros(n, int), np.zeros(n, int)
    rows = triples.astype(np.int64)
    known, gold, relation = rows[:, [0, 2]].ravel(), rows[:, [2, 0]].ravel(), rows[:, 1].repeat(2)
    ranks = np.empty(n, dtype=np.int64)

    def rank(start: int) -> None:
        chunk = slice(start, min(start + QUERY_CHUNK, n))
        golds = gold[chunk]
        found = [answers[a:b] for a, b in zip(starts[chunk].tolist(), ends[chunk].tolist())]
        ranks[chunk] = rank_chunk(range(chunk.start, chunk.stop), known[chunk], relation[chunk],
                                  golds, [f[f != g] for f, g in zip(found, golds.tolist())])

    chunks = range(0, n, QUERY_CHUNK)
    with ThreadPoolExecutor(max(1, min(_usable_cpus(), len(chunks)))) as pool:
        # reading every result re-raises the first failure
        for _ in pool.map(rank, chunks):
            pass
    return ranks


def evaluate_predictions(kg: KnowledgeGraph, predictions_file: str | Path,
                         filtered: bool = True) -> MetricsReport:
    """Score an external system's ranked candidate lists against the test split.

    File format, one line per test (triple, direction):
    ``head<TAB>relation<TAB>tail<TAB>direction<TAB>candidate,candidate,...``
    with candidates best-first. Raw, the gold rank is its 1-based list
    position, and a gold entity absent from its list is ranked |E| (worst
    case). Filtered (the default), known-true rivals listed before the gold
    are not counted, and an absent gold ranks last among the candidates
    that survive the filter. A line for any other (triple, direction) is a
    ValidationError.
    """
    path = Path(predictions_file)
    entity_row, relation_row = kg.structure.entity_row, kg.structure.relation_row
    n_entities, n_relations = len(entity_row), len(relation_row)
    h_rows, r_rows, t_rows = _split_rows(kg, "test").astype(np.int64).T
    # each test row by its (h, r, t) key; the graph holds no repeated triple
    test_row = {key: i for i, key in enumerate(
        ((h_rows * n_relations + r_rows) * n_entities + t_rows).tolist())}
    # per query (2 * row + 1 for a head query), its candidates' entity rows
    ranked: list[list[int] | None] = [None] * (2 * len(test_row))
    for lineno, (h, r, t, direction, candidate_cell) in read_rows(path, 5):
        if direction not in ("tail", "head"):
            raise ValidationError(f"{path.name}:{lineno}: bad direction {direction!r}")
        for eid in (h, t):
            if eid not in entity_row:
                raise ValidationError(f"{path.name}:{lineno}: unknown entity {eid!r}")
        if r not in relation_row:
            raise ValidationError(f"{path.name}:{lineno}: unknown relation {r!r}")
        candidates = candidate_cell.split(",") if candidate_cell else []
        rows: dict[str, int] = {}
        for c in candidates:
            if c not in entity_row:
                raise ValidationError(f"{path.name}:{lineno}: unknown candidate {c!r}")
            if c in rows:
                raise ValidationError(f"{path.name}:{lineno}: duplicate candidate {c!r}")
            rows[c] = entity_row[c]
        row = test_row.get((entity_row[h] * n_relations + relation_row[r]) * n_entities
                           + entity_row[t])
        if row is None:
            raise ValidationError(f"{path.name}:{lineno}: {(h, r, t, direction)} "
                                  "is not a test query")
        query = 2 * row + (direction == "head")
        if ranked[query] is not None:
            raise ValidationError(f"{path.name}:{lineno}: duplicate prediction for "
                                  f"{(h, r, t, direction)}")
        ranked[query] = list(rows.values())

    missing = [query for query, listed in enumerate(ranked) if listed is None]
    if missing:
        shown = ", ".join(str((*kg.test[query // 2], ("tail", "head")[query % 2]))
                          for query in missing[:5])
        raise ValidationError(f"predictions missing for {len(missing)} (triple, direction) "
                              f"queries: {shown}")

    # every listed candidate keyed by (query, entity row), sorted, with its
    # 0-based list position; a last key above them all ends every search
    lengths = np.array([len(listed) for listed in ranked])
    keys = np.fromiter(chain.from_iterable(ranked), dtype=np.int64, count=int(lengths.sum()))
    keys += np.repeat(np.arange(len(ranked)) * n_entities, lengths)
    positions = np.arange(len(keys)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    order = np.argsort(keys)
    keys = np.append(keys[order], len(ranked) * n_entities)
    positions = np.append(positions[order], -1)
    del ranked, order

    def position(queries: np.ndarray, entities: np.ndarray) -> np.ndarray:
        """Each entity's place in its query's list, or -1 if it is not listed."""
        wanted = queries * n_entities + entities
        at = np.searchsorted(keys, wanted)
        return np.where(keys[at] == wanted, positions[at], -1)

    def rank_chunk(queries: range, known: np.ndarray, relation: np.ndarray, gold: np.ndarray,
                   rivals: list[np.ndarray]) -> np.ndarray:
        # the gold's list position, less the rivals listed before it; an
        # absent gold ranks below every entity that is not a rival
        queries = np.arange(queries.start, queries.stop)
        counts = np.array([len(found) for found in rivals])
        owner = np.repeat(np.arange(len(queries)), counts)
        gold_at = position(queries, gold)
        rival_at = position(queries[owner], np.concatenate(rivals))
        before = np.bincount(owner[(rival_at >= 0) & (rival_at < gold_at[owner])],
                             minlength=len(queries))
        return np.where(gold_at >= 0, gold_at + 1 - before, n_entities - counts)

    return rank_metrics(rank_split(kg, "test", filtered, rank_chunk), filtered, CANDIDATE_ORDER)


# --- the oracle: one object per query and one scores table per query --------


@dataclass(frozen=True)
class Query:
    """One link-prediction query: ``known`` is (entity_id, relation_id)."""

    known: tuple[str, str]
    direction: str  # "tail" for (h, r, ?), "head" for (?, r, t)
    gold: str

    def __post_init__(self) -> None:
        if self.direction not in ("tail", "head"):
            raise ValueError(f"direction must be 'tail' or 'head', got {self.direction!r}")


@dataclass(frozen=True)
class RankingRecord:
    query: Query
    gold_rank: int


def split_queries(kg: KnowledgeGraph, split: str = "test") -> list[Query]:
    """``rank_split``'s queries as ``Query`` objects, in the same order."""
    _split_rows(kg, split)
    return [Query(known, direction, gold) for h, r, t in kg.split(split)
            for direction, known, gold in (("tail", (h, r), t), ("head", (t, r), h))]


def rank_gold(scores: dict[str, float], query: Query, kg: KnowledgeGraph,
              filtered: bool = True) -> RankingRecord:
    """Rank the gold entity within ``scores`` (higher score is better).

    rank = 1 + number of surviving candidates scoring >= the gold score.
    With ``filtered``, entities answering the same partial query elsewhere in
    train/valid/test are dropped from the candidate set first.
    """
    if query.gold not in scores:
        raise ValidationError(f"gold entity {query.gold!r} missing from scores")
    if len(scores) != len(kg.entities):
        raise ValidationError(f"scores cover {len(scores)} entities, expected {len(kg.entities)}")
    gold_score = scores[query.gold]
    known_entity, relation = query.known
    excluded: frozenset[str] = frozenset()
    if filtered:
        excluded = kg.answer_index.get((query.direction, known_entity, relation), frozenset())
    values = np.fromiter(scores.values(), dtype=float, count=len(scores))
    rivals = np.array([scores.get(entity, float("-inf")) for entity in excluded
                       if entity != query.gold], dtype=float)
    return RankingRecord(query=query, gold_rank=pessimistic_rank(values, gold_score, rivals))


def pessimistic_rank(scores: np.ndarray, gold_score: float, excluded_scores: np.ndarray) -> int:
    """1 + the number of surviving rivals scoring >= the gold score.

    ``scores`` holds every candidate, the gold included; ``excluded_scores``
    holds the filtered-out rivals (never the gold). Counted in bulk, then
    the (few) excluded rivals at or above the gold are backed out.
    """
    at_or_above = int((scores >= gold_score).sum())
    return at_or_above - int((excluded_scores >= gold_score).sum())


def compute_metrics(records: list[RankingRecord], filtered: bool = True,
                    tie_policy: str = PESSIMISTIC) -> MetricsReport:
    """``rank_metrics`` over the records' gold ranks, in record order."""
    ranks = np.array([rec.gold_rank for rec in records], dtype=np.int64)
    return rank_metrics(ranks, filtered=filtered, tie_policy=tie_policy)
