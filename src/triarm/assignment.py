"""Assignment of subjects to the three treatment groups.

An assignment is a label sequence over ``{A, B, C}`` with fixed group
counts; it is the only random object in the model.  This module draws
assignments uniformly, enumerates them exhaustively in lexicographic
order, and turns an assignment plus a population into the observed
response vector.

Enumeration unranks: each batch is the contiguous rank range
``[lo, lo + batch_size)`` of the lexicographic order, turned into label
codes by vectorized multiset-permutation unranking in int64.  So the
order is the plain lexicographic one, no batch depends on the one
before, and enumeration is refused once the number of label sequences
times n reaches 2**63.

Randomness contract: generators are built on numpy's Philox bit
generator (counter-based, splittable).  ``master_generator(seed)`` and
``worker_generator(seed, stream)`` produce the same streams on every
platform for a given numpy version, and worker streams derived from the
same seed never overlap.
"""

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

GROUPS = ("A", "B", "C")
GROUP_CODES = {"A": 0, "B": 1, "C": 2}
ENUMERATION_MODES = ("all", "a-before-b")

#: Default cap on exhaustive enumeration size.
DEFAULT_ENUMERATION_LIMIT = 10**6


class EnumerationLimitError(RuntimeError):
    """Exhaustive enumeration would exceed the configured guard or the int64 rank ceiling."""

    def __init__(self, count, limit, bound="limit"):
        super().__init__(f"enumeration too large: {count} assignments exceed {bound} {limit}")
        self.count = count
        self.limit = limit


def _check_group(group: str) -> int:
    if group not in GROUP_CODES:
        raise ValueError(f"unknown group {group!r}; expected one of {GROUPS}")
    return GROUP_CODES[group]


@dataclass(frozen=True)
class GroupSizes:
    """Fixed group counts ``n_A, n_B, n_C``, all strictly positive."""

    n_a: int
    n_b: int
    n_c: int

    def __post_init__(self):
        for name, value in zip(GROUPS, (self.n_a, self.n_b, self.n_c)):
            if int(value) != value or value < 1:
                raise ValueError(f"group {name} size must be a positive integer, got {value!r}")
        object.__setattr__(self, "n_a", int(self.n_a))
        object.__setattr__(self, "n_b", int(self.n_b))
        object.__setattr__(self, "n_c", int(self.n_c))

    @property
    def n(self) -> int:
        return self.n_a + self.n_b + self.n_c

    def counts(self) -> np.ndarray:
        return np.array([self.n_a, self.n_b, self.n_c])

    def fractions(self) -> np.ndarray:
        return self.counts() / self.n

    def scaled(self, m: int) -> "GroupSizes":
        return GroupSizes(self.n_a * m, self.n_b * m, self.n_c * m)

    def validate_for(self, n: int) -> None:
        if self.n != n:
            raise ValueError(f"size mismatch: group sizes sum to {self.n}, population has {n} subjects")


@dataclass(frozen=True)
class Assignment:
    """A labeling of subjects, stored as codes 0=A, 1=B, 2=C."""

    codes: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int8)
        if codes.ndim != 1 or codes.size < 3:
            raise ValueError("an assignment needs at least one subject per group")
        if codes.min() < 0 or codes.max() > 2:
            raise ValueError("assignment codes must be 0, 1 or 2")
        codes = codes.copy()
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        # every group non-empty; GroupSizes enforces positivity
        self.sizes  # noqa: B018

    @property
    def n(self) -> int:
        return self.codes.size

    @property
    def sizes(self) -> GroupSizes:
        counts = np.bincount(self.codes, minlength=3)
        return GroupSizes(*counts)

    @property
    def label_string(self) -> str:
        return "".join(GROUPS[k] for k in self.codes)

    @property
    def dummies(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Indicator vectors (U, V, W) for membership in A, B, C."""
        return tuple(self.codes == k for k in range(3))

    def group_indices(self, group: str) -> np.ndarray:
        return np.flatnonzero(self.codes == _check_group(group))

    @classmethod
    def from_labels(cls, labels) -> "Assignment":
        return cls(np.array([_check_group(str(lab)) for lab in labels], dtype=np.int8))


def master_generator(seed: int) -> np.random.Generator:
    """The documented seeded generator: Philox keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def worker_generator(seed, stream: int) -> np.random.Generator:
    """Independent generator for worker/batch ``stream`` under ``seed``.

    Splitting goes through ``SeedSequence(seed, spawn_key=(stream,))``,
    so the stream for a given (seed, stream) pair is fixed regardless of
    how many workers run or in which order.
    """
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(base.entropy, spawn_key=tuple(base.spawn_key) + (stream,)))
    )


def random_assignment(sizes: GroupSizes, rng: np.random.Generator) -> Assignment:
    """Draw uniformly from all labelings with the given group counts."""
    n = sizes.n
    codes = np.empty(n, dtype=np.int8)
    perm = rng.permutation(n)
    codes[perm[: sizes.n_a]] = 0
    codes[perm[sizes.n_a : sizes.n_a + sizes.n_b]] = 1
    codes[perm[sizes.n_a + sizes.n_b :]] = 2
    return Assignment(codes)


def assignment_count(sizes: GroupSizes, mode: str = "all") -> int:
    """Number of assignments the given enumeration mode emits."""
    if mode not in ENUMERATION_MODES:
        raise ValueError(f"unknown enumeration mode {mode!r}; expected one of {ENUMERATION_MODES}")
    n = sizes.n
    total = math.comb(n, sizes.n_a) * math.comb(n - sizes.n_a, sizes.n_b)
    if mode == "a-before-b":
        if sizes.n_a != sizes.n_b:
            raise ValueError("mode 'a-before-b' requires n_A == n_B")
        total //= 2
    return total


def _unrank(sizes: GroupSizes, total: int, lo: int, hi: int) -> np.ndarray:
    """Label codes of lexicographic ranks ``lo .. hi-1``, one row each.

    Unranking of multiset permutations (Knuth, TAOCP 4A, 7.2.1.2): of the
    ``left`` completions that remain after a prefix, ``left * n_A / m``
    put A next and ``left * n_B / m`` put B next, where ``n_A``, ``n_B``
    are the labels still to place and ``m`` the positions still open.
    One pass per position picks A, B or C for every row at once.
    """
    n = sizes.n
    rank = np.arange(lo, hi, dtype=np.int64)
    left = np.full(hi - lo, total, dtype=np.int64)
    n_a = np.full(hi - lo, sizes.n_a, dtype=np.int64)
    n_b = np.full(hi - lo, sizes.n_b, dtype=np.int64)
    codes = np.empty((hi - lo, n), dtype=np.int8)
    for pos in range(n):
        m = n - pos
        with_a = left * n_a // m
        with_b = left * n_b // m
        with_ab = with_a + with_b
        past_a = rank >= with_a
        past_b = rank >= with_ab
        codes[:, pos] = past_a
        codes[:, pos] += past_b
        rank -= np.where(past_b, with_ab, np.where(past_a, with_a, 0))
        left = np.where(past_b, left - with_ab, np.where(past_a, with_b, with_a))
        n_a -= ~past_a
        n_b -= past_a & ~past_b
    return codes


def iter_code_batches(
    sizes: GroupSizes,
    mode: str = "all",
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    batch_size: int = 4096,
) -> Iterator[np.ndarray]:
    """Yield enumerated assignments as (batch, n) int8 arrays.

    Lexicographic over label sequences with A < B < C; every batch but
    the last holds ``batch_size`` rows.  Each chunk of ranks is unranked
    directly, so no assignment list is ever built.  Mode ``a-before-b``
    (defined only for n_A == n_B) keeps the assignments whose first
    A-labeled subject precedes the first B-labeled one; swapping the A
    and B labels pairs each kept assignment with a dropped one, so
    exactly half survive.

    Raises :class:`EnumerationLimitError` before the first batch when the
    count exceeds ``limit``, or when the ranks walked (all label
    sequences, twice the count in ``a-before-b``) times n reaches 2**63:
    the rank arithmetic is int64.
    """
    count = assignment_count(sizes, mode)
    total = assignment_count(sizes)
    if count > limit:
        raise EnumerationLimitError(count, limit)
    ceiling = (2**63 - 1) // sizes.n // (total // count)
    if count > ceiling:
        raise EnumerationLimitError(count, ceiling, "the int64 rank ceiling")
    chunks = (
        _unrank(sizes, total, lo, min(lo + batch_size, total)) for lo in range(0, total, batch_size)
    )
    if mode == "all":
        yield from chunks
        return
    held, n_held = [], 0
    for codes in chunks:
        codes = codes[np.argmax(codes == 0, axis=1) < np.argmax(codes == 1, axis=1)]
        held.append(codes)
        n_held += len(codes)
        if n_held >= batch_size:
            rows = np.concatenate(held)
            full = n_held - n_held % batch_size
            for start in range(0, full, batch_size):
                yield rows[start : start + batch_size]
            held, n_held = [rows[full:]], n_held - full
    if n_held:
        yield np.concatenate(held)


def enumerate_assignments(
    sizes: GroupSizes,
    mode: str = "all",
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> Iterator[Assignment]:
    """Stream every distinct assignment exactly once."""
    for batch in iter_code_batches(sizes, mode, limit):
        for row in batch:
            yield Assignment(row)


def observed_response(pop, asg: Assignment) -> np.ndarray:
    """The response vector Y: a, b or c per subject according to the label."""
    if pop.n != asg.n:
        raise ValueError(f"length mismatch: population has {pop.n} subjects, assignment {asg.n}")
    return np.choose(asg.codes, (pop.a, pop.b, pop.c))


def group_mean(values, asg: Assignment, group: str) -> float:
    """Arithmetic mean of ``values`` over the subjects labeled ``group``."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (asg.n,):
        raise ValueError(f"length mismatch: expected {asg.n} values, got {values.shape}")
    return float(values[asg.codes == _check_group(group)].mean())
