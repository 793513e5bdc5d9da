"""Integer partitions and the scalar invariants attached to them."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Partition:
    """Non-increasing tuple of positive integers; trailing zeros dropped."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts if p != 0)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not non-increasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _raw(cls, parts: tuple[int, ...]) -> "Partition":
        """Wrap a tuple of positive non-increasing ints, without checking it:
        for partitions built from valid ones."""
        new = object.__new__(cls)
        object.__setattr__(new, "parts", parts)
        return new

    @staticmethod
    def parse(text: str) -> "Partition":
        """Parse the CLI text form, e.g. "[3,1]" or "3,1" or "[]"."""
        body = text.strip().strip("[]")
        if not body:
            return Partition()
        return Partition(tuple(int(tok) for tok in body.split(",")))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part, 1-based, zero beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition._raw(tuple(cols))

    def contains(self, other: "Partition") -> bool:
        """Young-diagram inclusion: other[i] <= self[i] componentwise."""
        if other.length > self.length:
            return False
        return all(other.parts[i] <= self.parts[i] for i in range(other.length))

    def intersect(self, other: "Partition") -> "Partition":
        n = min(self.length, other.length)
        return Partition._raw(tuple(min(self.parts[i], other.parts[i]) for i in range(n)))

    def kappa(self) -> int:
        """kappa = sum_i part_i * (part_i - 2i + 1), 1-based rows."""
        return sum(p * (p - 2 * i + 1) for i, p in enumerate(self.parts, start=1))

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __repr__(self) -> str:
        return f"Partition({self.parts})"


EMPTY = Partition()


def partitions_of(weight: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of the given weight, lexicographically descending."""
    if weight == 0:
        return (EMPTY,)
    cap = weight if max_part is None else min(max_part, weight)
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions_of(weight - first, first):
            out.append(Partition._raw((first,) + rest.parts))
    return tuple(out)


def enumerate_partitions(max_weight: int) -> list[Partition]:
    """All partitions of weight <= max_weight, ordered by weight then lex desc."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    out: list[Partition] = []
    for w in range(max_weight + 1):
        out.extend(partitions_of(w))
    return out


def is_vertical_strip(mu: Partition, eta: Partition) -> bool:
    """True when mu/eta is a skew shape with at most one box per row."""
    if not mu.contains(eta):
        return False
    return all(mu.part(i) - eta.part(i) <= 1 for i in range(1, mu.length + 1))


def hooks_of_size(k: int) -> list[Partition]:
    """Hook shapes (k - r, 1^r) of weight k, r = 0..k-1."""
    return [Partition((k - r,) + (1,) * r) for r in range(k)]


def hook_height(eta: Partition) -> int:
    """Number of rows below the first one (the r in (k - r, 1^r))."""
    return eta.length - 1 if eta.length else 0
