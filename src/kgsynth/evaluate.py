"""Link-prediction ranking and metrics.

Queries are partial triples, (h, r, ?) for tail prediction or (?, r, t) for
head prediction. Ranking is pessimistic on ties (the gold entity ranks below
every rival with an equal score) and filtered by default: candidates that
form other known-true triples for the same query, in any split, are removed
before ranking. Both choices are stamped into every MetricsReport.

Every report ranks through ``rank_split``, which hands each query's gold
row and filtered rivals to a ranker's own counting rule. ``rank_gold``, over
one scores table per query, stays as the test oracle of ``rank_queries``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .kg import SPLITS, KnowledgeGraph, read_rows

HITS_KS = (1, 3, 10)

PESSIMISTIC = "pessimistic"
CANDIDATE_ORDER = "candidate-order"

# consecutive queries ranked by one task of rank_split's thread pool
QUERY_CHUNK = 16


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


def rank_gold(
    scores: dict[str, float],
    query: Query,
    kg: KnowledgeGraph,
    filtered: bool = True,
) -> RankingRecord:
    """Rank the gold entity within ``scores`` (higher score is better).

    rank = 1 + number of surviving candidates scoring >= the gold score.
    With ``filtered``, entities answering the same partial query elsewhere in
    train/valid/test are dropped from the candidate set first.
    """
    if query.gold not in scores:
        raise ValidationError(f"gold entity {query.gold!r} missing from scores")
    if len(scores) != len(kg.entities):
        raise ValidationError(
            f"scores cover {len(scores)} entities, expected {len(kg.entities)}"
        )
    gold_score = scores[query.gold]
    known_entity, relation = query.known
    excluded: frozenset[str] = frozenset()
    if filtered:
        excluded = kg.answer_index.get((query.direction, known_entity, relation), frozenset())
    values = np.fromiter(scores.values(), dtype=float, count=len(scores))
    rivals = np.array(
        [scores.get(entity, float("-inf")) for entity in excluded if entity != query.gold],
        dtype=float,
    )
    return RankingRecord(query=query, gold_rank=pessimistic_rank(values, gold_score, rivals))


def pessimistic_rank(scores: np.ndarray, gold_score: float, excluded_scores: np.ndarray) -> int:
    """1 + the number of surviving rivals scoring >= the gold score.

    ``scores`` holds every candidate, the gold included; ``excluded_scores``
    holds the filtered-out rivals (never the gold). Counted in bulk, then
    the (few) excluded rivals at or above the gold are backed out.
    """
    at_or_above = int((scores >= gold_score).sum())
    return at_or_above - int((excluded_scores >= gold_score).sum())


def compute_metrics(
    records: list[RankingRecord],
    filtered: bool = True,
    tie_policy: str = PESSIMISTIC,
) -> MetricsReport:
    """Aggregate gold ranks into Hits@k for k in {1,3,10}, MR, and MRR."""
    if not records:
        raise ValueError("cannot compute metrics over zero records")
    n = len(records)
    hits = {k: sum(1 for rec in records if rec.gold_rank <= k) / n for k in HITS_KS}
    mr = sum(rec.gold_rank for rec in records) / n
    mrr = sum(1.0 / rec.gold_rank for rec in records) / n
    return MetricsReport(hits=hits, mr=mr, mrr=mrr, filtered=filtered, tie_policy=tie_policy)


def split_queries(kg: KnowledgeGraph, split: str = "test") -> list[Query]:
    """Both-direction queries for every triple of a non-empty split, in split order."""
    if not kg.split(split):
        raise ValidationError(f"{split} split is empty: there is nothing to rank")
    queries = []
    for h, r, t in kg.split(split):
        queries.append(Query(known=(h, r), direction="tail", gold=t))
        queries.append(Query(known=(t, r), direction="head", gold=h))
    return queries


def filter_rows(kg: KnowledgeGraph, queries: list[Query]) -> list[np.ndarray]:
    """Per query, the entity rows of every known-true answer in any split.

    The row-space form of ``answer_index``, built from ``kg.split_rows``
    and covering only the keys these queries use. The gold is among its
    own query's answers whenever the query comes from a split triple.
    """
    n_entities, n_relations = len(kg.entities), len(kg.relations)
    # key = (known entity * |R| + relation) * 2 + (0 for tail, 1 for head)
    h, r, t = np.concatenate([kg.split_rows[name] for name in SPLITS]).astype(np.int64).T
    fact_keys = np.concatenate([(h * n_relations + r) * 2, (t * n_relations + r) * 2 + 1])
    fact_answers = np.concatenate([t, h])
    entity_row, relation_row = kg.entity_row, kg.relation_row
    query_keys = np.array(
        [(entity_row[q.known[0]] * n_relations + relation_row[q.known[1]]) * 2
         + (q.direction == "head") for q in queries],
        dtype=np.int64,
    )
    keep = np.isin(fact_keys, query_keys)
    # sorted distinct (key, answer) pairs, so each key's answers are one slice
    keys, answers = np.divmod(np.unique(fact_keys[keep] * n_entities + fact_answers[keep]),
                              n_entities)
    starts = np.searchsorted(keys, query_keys, side="left").tolist()
    ends = np.searchsorted(keys, query_keys, side="right").tolist()
    return [answers[a:b] for a, b in zip(starts, ends)]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def rank_split(
    kg: KnowledgeGraph,
    split: str,
    filtered: bool,
    rank_of: Callable[[Query, int, np.ndarray], int],
) -> list[RankingRecord]:
    """Gold rank of every split query, in split order: the one ranking loop.

    ``rank_of(query, gold, rivals)`` returns the rank of the gold entity row
    ``gold``, given the entity rows ``rivals`` that must not count against
    it: with ``filtered``, the query's other known-true answers in any split
    (``filter_rows``), and none otherwise. Each ranker owns its counting rule.

    Chunks of ``QUERY_CHUNK`` consecutive queries are ranked on a thread
    pool sized to the usable CPUs, so ``rank_of`` may be called from several
    threads at once. Each chunk writes only its own rank slots, so the
    records do not depend on thread timing or the number of CPUs.
    """
    queries = split_queries(kg, split)
    if filtered:
        answers = filter_rows(kg, queries)
    else:
        answers = [np.empty(0, dtype=np.int64)] * len(queries)
    entity_row = kg.entity_row
    ranks = [0] * len(queries)

    def rank_chunk(start: int) -> None:
        for i in range(start, min(start + QUERY_CHUNK, len(queries))):
            gold = entity_row[queries[i].gold]
            ranks[i] = rank_of(queries[i], gold, answers[i][answers[i] != gold])

    starts = range(0, len(queries), QUERY_CHUNK)
    workers = min(_usable_cpus(), len(starts))
    if workers <= 1:
        for start in starts:
            rank_chunk(start)
    else:
        with ThreadPoolExecutor(workers) as pool:
            # reading every result re-raises the first failure
            for _ in pool.map(rank_chunk, starts):
                pass
    return [RankingRecord(query=query, gold_rank=rank) for query, rank in zip(queries, ranks)]


def evaluate_predictions(
    kg: KnowledgeGraph, predictions_file: str | Path, filtered: bool = True
) -> MetricsReport:
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
    entity_row = kg.entity_row
    relation_ids = set(kg.relation_ids)
    test_queries = split_queries(kg, "test")
    expected = set(test_queries)
    ranked: dict[Query, list[int]] = {}
    for lineno, (h, r, t, direction, candidate_cell) in read_rows(path, 5):
        if direction not in ("tail", "head"):
            raise ValidationError(f"{path.name}:{lineno}: bad direction {direction!r}")
        for eid in (h, t):
            if eid not in entity_row:
                raise ValidationError(f"{path.name}:{lineno}: unknown entity {eid!r}")
        if r not in relation_ids:
            raise ValidationError(f"{path.name}:{lineno}: unknown relation {r!r}")
        candidates = candidate_cell.split(",") if candidate_cell else []
        rows: dict[str, int] = {}
        for c in candidates:
            if c not in entity_row:
                raise ValidationError(f"{path.name}:{lineno}: unknown candidate {c!r}")
            if c in rows:
                raise ValidationError(f"{path.name}:{lineno}: duplicate candidate {c!r}")
            rows[c] = entity_row[c]
        if direction == "tail":
            query = Query(known=(h, r), direction="tail", gold=t)
        else:
            query = Query(known=(t, r), direction="head", gold=h)
        if query not in expected:
            raise ValidationError(
                f"{path.name}:{lineno}: {(h, r, t, direction)} is not a test query"
            )
        if query in ranked:
            raise ValidationError(
                f"{path.name}:{lineno}: duplicate prediction for {(h, r, t, direction)}"
            )
        ranked[query] = list(rows.values())

    missing = [query for query in test_queries if query not in ranked]
    if missing:
        shown = ", ".join(map(str, missing[:5]))
        raise ValidationError(
            f"predictions missing for {len(missing)} (triple, direction) queries: {shown}"
        )

    def rank_of(query: Query, gold: int, rivals: np.ndarray) -> int:
        # the gold's list position, less the rivals listed before it; an
        # absent gold ranks below every entity that is not a rival
        listed = ranked[query]
        try:
            position = listed.index(gold)
        except ValueError:
            return len(entity_row) - len(rivals)
        return position + 1 - len(set(rivals.tolist()).intersection(listed[:position]))

    records = rank_split(kg, "test", filtered, rank_of)
    return compute_metrics(records, filtered=filtered, tie_policy=CANDIDATE_ORDER)
