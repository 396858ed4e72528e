"""Dataset diagnostics: relation-count distributions, description leakage,
Pearson correlation, and IQR outlier detection.

``relation_distribution`` reads ``KnowledgeGraph.split_rows``, whose ids and
splits are checked once per graph structure; ``description_leakage`` reads
the graph's names and its cached ``mention_spans``, built per graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kg import SPLITS, KnowledgeGraph

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
    """
    scopes = dict(kg.split_rows)
    scopes["total"] = np.concatenate(list(scopes.values()))
    n_relations = len(kg.relations)
    percentages: dict[str, dict[str, float]] = {}
    for column, rows in scopes.items():
        h, r, t = rows.astype(np.int64).T
        # distinct (entity, relation) keys, then each entity's count of them
        keys = np.unique(np.concatenate([h * n_relations + r, t * n_relations + r]))
        carried = np.bincount(keys // n_relations)
        # an entity with k relations falls in bucket k - 1, "Over" beyond 5
        counts = np.bincount(np.minimum(carried[carried > 0], 6) - 1, minlength=len(BUCKETS))
        denom = int(counts.sum())
        percentages[column] = {
            bucket: (100.0 * int(count) / denom if denom else 0.0)
            for bucket, count in zip(BUCKETS, counts)
        }
    return RelationCountTable(percentages=percentages)


def description_leakage(kg: KnowledgeGraph) -> LeakageTable:
    """Fraction of queries whose answer name appears in the query description.

    Every triple contributes two cases, (h, r, ?) and (?, r, t); occurrence
    uses the rewriter's token-boundary, case-sensitive matching rules, read
    from the graph's one cached scan (``KnowledgeGraph.mention_spans``).
    """
    names = kg.entity_names
    descriptions = kg.descriptions
    mentioned: dict[str, set[str]] = {}
    for eid, matches in kg.mention_spans.items():
        bounds = iter(matches)
        mentioned[eid] = {descriptions[eid][start:end] for start, end in zip(bounds, bounds)}

    hits = {split: 0 for split in SPLITS}
    cases = {split: 0 for split in SPLITS}
    for split in SPLITS:
        for h, r, t in kg.split(split):
            cases[split] += 2
            if names[t] and names[t] in mentioned.get(h, ()):
                hits[split] += 1
            if names[h] and names[h] in mentioned.get(t, ()):
                hits[split] += 1

    percentages = {
        split: (100.0 * hits[split] / cases[split] if cases[split] else 0.0)
        for split in SPLITS
    }
    total_cases = sum(cases.values())
    percentages["total"] = 100.0 * sum(hits.values()) / total_cases if total_cases else 0.0
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
