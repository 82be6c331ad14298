"""Boolean similarity check between two process signatures.

Two signatures match only when their digest sets are identical (same
algorithm, same size, same members). Each side's digests are sorted, so one
walk over the two lists in step finds the first digest one side lacks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .signature import ProcessSignature


class Outcome(enum.Enum):
    MATCH = "Match"
    MISMATCH = "Mismatch"


class DetailKind(enum.Enum):
    EQUAL = "Equal"
    SIZE_DIFFER = "SizeDiffer"
    MISSING_DIGEST = "MissingDigest"
    ALGORITHM_DIFFER = "AlgorithmDiffer"


@dataclass(frozen=True)
class MatchVerdict:
    detail: DetailKind
    digest: str | None = None  # set for MISSING_DIGEST
    missing_from: str | None = None  # "local" or "remote"

    @property
    def outcome(self) -> Outcome:
        return Outcome.MATCH if self.detail is DetailKind.EQUAL else Outcome.MISMATCH

    def __str__(self) -> str:
        if self.detail is DetailKind.EQUAL:
            return "MATCH"
        if self.detail is DetailKind.MISSING_DIGEST:
            return f"MISMATCH MissingDigest digest={self.digest} missing_from={self.missing_from}"
        return f"MISMATCH {self.detail.value}"


def _compare(local: ProcessSignature, remote: ProcessSignature) -> tuple[MatchVerdict, int]:
    if local.algorithm is not remote.algorithm:
        return MatchVerdict(DetailKind.ALGORITHM_DIFFER), 0
    if len(local.digests) != len(remote.digests):
        return MatchVerdict(DetailKind.SIZE_DIFFER), 0
    for comparisons, (a, b) in enumerate(zip(local.digests, remote.digests), 1):
        if a != b:
            # sorted lists of equal length: the smaller digest is absent
            # from the other side
            missing = (a, "remote") if a < b else (b, "local")
            return MatchVerdict(DetailKind.MISSING_DIGEST, *missing), comparisons
    return MatchVerdict(DetailKind.EQUAL), len(local.digests)


def match_signatures(local: ProcessSignature, remote: ProcessSignature) -> MatchVerdict:
    return _compare(local, remote)[0]


def match_cost(local: ProcessSignature, remote: ProcessSignature) -> int:
    """Number of digest comparisons performed by match_signatures."""
    return _compare(local, remote)[1]
