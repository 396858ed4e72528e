"""Exception hierarchy shared across the toolkit.

Every failure mode belongs to one of three families, which the CLI maps onto
exit codes: ``LoadError`` and ``ValidationError`` (bad or unreadable input,
exit 2) and ``InfeasibleError`` (a requested random object cannot be
produced, exit 3). New failure modes subclass one of them rather than
raising bare exceptions.
"""


class KgsynthError(Exception):
    """Base class for all toolkit errors."""


class LoadError(KgsynthError):
    """A dataset file is missing or unreadable."""


class ValidationError(KgsynthError):
    """Input data violates a structural invariant (bad ids, duplicates, ...).

    A breach on one row of a table (``entities``, ``relations``,
    ``descriptions`` or a split) carries the ``table``, the 0-based ``row``
    and, for a triple an earlier split holds, that ``earlier`` split. It reads ``<table>: <detail>``;
    ``kg.file_lines`` makes that ``<file>:<line>: <detail>``.
    """

    def __init__(self, detail: str, table: str | None = None, row: int | None = None,
                 earlier: str | None = None) -> None:
        self.detail, self.table, self.row, self.earlier = detail, table, row, earlier
        super().__init__(detail if table is None else self.at(table, earlier))

    def at(self, where: str, earlier: str | None) -> str:
        shared = f" (splits share triples: also in {earlier})" if earlier else ""
        return f"{where}: {self.detail}{shared}"


class InfeasibleError(KgsynthError):
    """A requested random object (derangement, matching, distinct strings) cannot be made."""


class UniquenessError(InfeasibleError):
    """Could not produce the requested number of distinct random strings."""


class SamplingError(InfeasibleError):
    """String sampling hit its hard length cap (degenerate model)."""
