"""Dataset diagnostics: relation-count distributions, description leakage,
Pearson correlation, and IQR outlier detection.

``relation_distribution`` and ``description_leakage`` read the split rows
of the graph's structure (``kg.Structure.split_rows``), whose ids and splits
are checked once per structure, and build no tuple per triple.
``relation_distribution`` reads nothing else, so it is text-blind;
``description_leakage`` reads the (entity row, name id) pairs of the graph's
cached mention table (``KnowledgeGraph.mentions``), built per graph, with no
loop over entities or mentions.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .kg import _BLOCK_ROWS, SPLITS, KnowledgeGraph, _sorted_distinct

BUCKETS = ("1", "2", "3", "4", "5", "Over")
COLUMNS = ("train", "valid", "test", "total")

QUARTILE_METHOD = "linear interpolation between order statistics"


@dataclass(frozen=True)
class RelationCountTable:
    """Per split and total: percentage of entities per distinct-relation bucket."""

    percentages: dict[str, dict[str, float]]

    def to_text(self) -> str:
        lines = ["#relation\t" + "\t".join(c.capitalize() for c in COLUMNS)]
        for bucket in BUCKETS:
            cells = [
                f"{self.percentages[col][bucket]:.2f}" if self.percentages[col][bucket] else "-"
                for col in COLUMNS
            ]
            lines.append(bucket + "\t" + "\t".join(cells))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LeakageTable:
    """Per split and total: percentage of (triple, direction) cases where the
    answer entity's name occurs in the query entity's description."""

    percentages: dict[str, float]

    def to_text(self) -> str:
        header = "\t".join(c.capitalize() + " (%)" for c in COLUMNS)
        row = "\t".join(f"{self.percentages[col]:.2f}" for col in COLUMNS)
        return header + "\n" + row + "\n"


def relation_distribution(kg: KnowledgeGraph) -> RelationCountTable:
    """Bucket entities by how many distinct relations touch them per split.

    An entity counts as carrying a relation when it appears on either side of
    a triple with it; percentages are over the entities present in the split.

    Each split's distinct (entity, relation) keys are taken ``_BLOCK_ROWS``
    rows at a time and merged (``_distinct``), and the total's from the
    splits', so what the call holds grows with the distinct pairs, not with
    the triples.
    """
    n_relations = len(kg.relation_ids)

    def keys(rows: np.ndarray) -> Iterator[np.ndarray]:
        for start in range(0, len(rows), _BLOCK_ROWS):
            h, r, t = rows[start:start + _BLOCK_ROWS].astype(np.int64).T
            yield np.concatenate([h * n_relations + r, t * n_relations + r])

    scopes = {split: _distinct(keys(rows)) for split, rows in kg.structure.split_rows.items()}
    scopes["total"] = _distinct(scopes.values())
    percentages: dict[str, dict[str, float]] = {}
    for column, distinct in scopes.items():
        # each entity's count of distinct (entity, relation) keys
        carried = np.bincount(distinct // n_relations)
        # an entity with k relations falls in bucket k - 1, "Over" beyond 5
        counts = np.bincount(np.minimum(carried[carried > 0], 6) - 1, minlength=len(BUCKETS))
        denom = int(counts.sum())
        percentages[column] = {
            bucket: (100.0 * int(count) / denom if denom else 0.0)
            for bucket, count in zip(BUCKETS, counts)
        }
    return RelationCountTable(percentages=percentages)


def _distinct(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """The sorted distinct int64 values of all ``chunks``.

    Each chunk's distinct values wait until they outnumber those merged so
    far, then all are merged, so at most about twice the distinct values,
    plus a chunk, are held at once, and each value is sorted a logarithmic
    number of times.
    """
    merged = np.empty(0, dtype=np.int64)
    waiting: list[np.ndarray] = []
    size = 0
    for chunk in chunks:
        waiting.append(_sorted_distinct(chunk))
        size += len(waiting[-1])
        if size >= len(merged):
            merged = _sorted_distinct(np.concatenate([merged, *waiting]))
            waiting, size = [], 0
    return _sorted_distinct(np.concatenate([merged, *waiting]))


def description_leakage(kg: KnowledgeGraph) -> LeakageTable:
    """Fraction of queries whose answer name appears in the query description.

    Every triple contributes two cases, (h, r, ?) and (?, r, t); occurrence
    uses the rewriter's token-boundary, case-sensitive matching rules, read
    from the graph's one cached scan (``KnowledgeGraph.mentions``).

    A case hits when its key (query entity row, answer's name id) is among
    the keys of all the table's matches, nested and overlapping ones
    included; the split rows are looked up in those keys as arrays.
    """
    table = kg.mentions
    names, n_names = table.names, table.n_names
    keys = np.sort(table.rows * n_names + table.ids)  # repeats do not change a search

    def hits(known: np.ndarray, answer: np.ndarray) -> int:
        """How many (known, answer) row pairs have the answer's name mentioned
        in the known entity's description."""
        named = names[answer] >= 0
        # sorted, so each search starts near where the last ended
        cases = np.sort(known[named].astype(np.int64) * n_names + names[answer[named]])
        if not len(keys):
            return 0
        at = np.minimum(np.searchsorted(keys, cases), len(keys) - 1)
        return int(np.count_nonzero(keys[at] == cases))

    found, cases = {}, {}
    for split, rows in kg.structure.split_rows.items():
        found[split] = hits(rows[:, 0], rows[:, 2]) + hits(rows[:, 2], rows[:, 0])
        cases[split] = 2 * len(rows)
    percentages = {
        split: (100.0 * found[split] / cases[split] if cases[split] else 0.0)
        for split in SPLITS
    }
    total_cases = sum(cases.values())
    percentages["total"] = 100.0 * sum(found.values()) / total_cases if total_cases else 0.0
    return LeakageTable(percentages=percentages)


@dataclass(frozen=True)
class CorrelationMatrix:
    labels: tuple[str, ...]
    values: np.ndarray

    def to_text(self) -> str:
        lines = ["\t" + "\t".join(self.labels)]
        for label, row in zip(self.labels, self.values):
            lines.append(label + "\t" + "\t".join(f"{v:.6f}" for v in row))
        return "\n".join(lines) + "\n"


def pearson_matrix(series: dict[str, list[float]]) -> CorrelationMatrix:
    """Pearson correlation between every pair of equal-length named series."""
    if len(series) < 1:
        raise ValueError("need at least one series")
    labels = tuple(series)
    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    if lengths.pop() < 2:
        raise ValueError("series must have length >= 2")
    data = np.array([series[label] for label in labels], dtype=float)
    stds = data.std(axis=1)
    for label, std in zip(labels, stds):
        if std == 0.0:
            raise ValueError(f"series {label!r} has zero variance")
    values = np.corrcoef(data)
    values = np.atleast_2d(values)
    np.fill_diagonal(values, 1.0)
    return CorrelationMatrix(labels=labels, values=values)


@dataclass(frozen=True)
class OutlierReport:
    outliers: frozenset[float]
    q1: float
    q3: float
    lower_fence: float
    upper_fence: float
    quartile_method: str = QUARTILE_METHOD

    def to_text(self) -> str:
        lines = [
            f"q1\t{self.q1!r}",
            f"q3\t{self.q3!r}",
            f"lower_fence\t{self.lower_fence!r}",
            f"upper_fence\t{self.upper_fence!r}",
            f"quartile_method\t{self.quartile_method}",
            "outliers\t" + ",".join(repr(v) for v in sorted(self.outliers)),
        ]
        return "\n".join(lines) + "\n"


def iqr_outliers(values: list[float]) -> OutlierReport:
    """Values outside [Q1 - 1.5 IQR, Q3 + 1.5 IQR]; quartiles by linear interpolation."""
    if len(values) < 4:
        raise ValueError(f"need at least 4 values, got {len(values)}")
    q1, q3 = np.percentile(np.asarray(values, dtype=float), [25, 75])
    iqr = q3 - q1
    lower = q1 - 1.5 * iqr
    upper = q3 + 1.5 * iqr
    outliers = frozenset(v for v in values if v < lower or v > upper)
    return OutlierReport(
        outliers=outliers, q1=float(q1), q3=float(q3),
        lower_fence=float(lower), upper_fence=float(upper),
    )
