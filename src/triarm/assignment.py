"""Assignment of subjects to the three treatment groups.

An assignment is a label sequence over ``{A, B, C}`` with fixed group
counts; it is the only random object in the model.  This module enumerates
assignments exhaustively in lexicographic order and turns an assignment
plus a population into the observed response vector.

Enumeration unranks: each batch is a contiguous range of ranks, turned
into table rows by vectorized multiset-permutation unranking in int64
(mode ``a-before-b`` first shifts its ranks onto ranks among all label
sequences; the shifted ranks still ascend).  A batch reads its first
``head`` positions from a prefix table, one run of rows per prefix, runs
the per-position unranking loop over the middle positions, and reads its
last ``tail`` positions from a suffix table grouped by composition; head
and tail are at most 8.  The middle positions (n > 16) fall into chunks
of at most 8, each read from the table of its width's label sequences
by the base-3 key that the loop forms.  Memory is one batch plus tables
of at most 3**8 rows each: the prefix, the suffix and one per chunk
width.  The order is the plain lexicographic one, no batch depends on
the one before, and enumeration is refused once the number of label
sequences times n reaches 2**63.

Each batch is a :class:`CodeBatch`, stored only as table coordinates:
its prefix runs and, for every row, its suffix row and its row in each
middle chunk's table.  Its ``codes`` property is the one place that
forms label codes, from those rows; only the dump, the single-assignment
stream and tests read it.  The exact engine's evaluator
(``estimators.BatchEvaluator.evaluate_codes``) sums Y, zY, Y^2 and z per
group over every table row once per enumeration, and adds a batch's
rows' sums into one contiguous (4, 3, m) block, quantity by group by
row, with no mask and no matrix product.

Randomness contract: ``worker_generator(seed, stream)`` is built on
numpy's Philox bit generator (counter-based, splittable).  It produces
the same stream on every platform for a given numpy version, and streams
derived from the same seed never overlap.
"""

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

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
            try:
                whole = int(value) == value
            except (TypeError, ValueError, OverflowError):  # None, NaN, inf
                whole = False
            if not whole or value < 1:
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
        given = np.asarray(self.codes)
        if given.ndim != 1 or given.size < 3:
            raise ValueError("an assignment needs at least one subject per group")
        # checked before the cast, which would wrap 258 and truncate 2.7
        if not ((given == 0) | (given == 1) | (given == 2)).all():
            raise ValueError("assignment codes must be 0, 1 or 2")
        codes = given.astype(np.int8)
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

    @classmethod
    def from_labels(cls, labels) -> "Assignment":
        return cls(np.array([_check_group(str(lab)) for lab in labels], dtype=np.int8))


# quoted: evaluating np.random here would load numpy.random at import time
def worker_generator(seed, stream: int) -> "np.random.Generator":
    """Independent generator for worker/batch ``stream`` under ``seed``.

    Splitting goes through ``SeedSequence(seed, spawn_key=(stream,))``,
    so the stream for a given (seed, stream) pair is fixed regardless of
    how many workers run or in which order.
    """
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(base.entropy, spawn_key=tuple(base.spawn_key) + (stream,)))
    )


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


#: Leading and trailing positions read from the unranking tables; each
#: table then has at most 3**8 = 6,561 rows, whatever n is.
_TABLE_POSITIONS = 8

#: Rows per enumerated batch, read at call time.
_BATCH_ROWS = 4096


class _MiddleChunk:
    """Consecutive middle positions ``start`` onwards, at most ``_TABLE_POSITIONS``.

    ``sequences`` holds every label sequence of the chunk's width whose
    counts fit the group sizes, in lexicographic order, and
    ``lookup[key]`` is the row of the sequence whose base-3 code, first
    position most significant, is ``key``.  Chunks of one width share
    both arrays.
    """

    # plain classes here and in CodeBatch: a NamedTuple costs about 0.2 ms
    # of start-up, a frozen dataclass about 1 ms
    __slots__ = ("start", "sequences", "lookup")

    def __init__(self, start: int, sequences, lookup):
        self.start, self.sequences, self.lookup = start, sequences, lookup


class _UnrankTables(NamedTuple):
    """A design's label sequences of its first and last few positions.

    ``prefixes`` holds every sequence of the first ``head`` positions
    whose counts fit the group sizes, in lexicographic order; prefix i
    is shared by ``completions[i]`` label sequences, the ranks
    ``starts[i]`` onwards, and leaves ``rest_a[i]`` A and ``rest_b[i]``
    B labels to place.  ``suffixes`` holds every sequence of the last
    ``tail`` positions, grouped by its A and B counts (k_A, k_B) with
    each group still lexicographic; group (k_A, k_B) starts at row
    ``offsets[k_A * (tail + 1) + k_B]``.  ``chunks`` splits the positions
    in between, if any, into :class:`_MiddleChunk` tables.
    """

    prefixes: np.ndarray
    starts: np.ndarray
    completions: np.ndarray
    rest_a: np.ndarray
    rest_b: np.ndarray
    suffixes: np.ndarray
    offsets: np.ndarray
    chunks: tuple


class CodeBatch:
    """One enumerated batch, stored as the unranking-table rows of its assignments.

    The first ``head`` positions of the rows are the prefix rows
    ``tables.prefixes[runs]``, each repeated over ``lengths`` consecutive
    rows; the positions of middle chunk j in row i are
    ``tables.chunks[j].sequences[keys[j][i]]``; and the last ``tail``
    positions are ``tables.suffixes[rows[i]]``.  ``codes`` joins them into
    the (m, n) int8 array of label codes, anew on every read; the exact
    engine's evaluator never reads it.  ``len()`` is the row count.
    """

    __slots__ = ("tables", "runs", "lengths", "rows", "keys")

    def __init__(self, tables: _UnrankTables, runs: slice, lengths, rows, keys: tuple):
        self.tables, self.runs, self.lengths, self.rows, self.keys = tables, runs, lengths, rows, keys

    @property
    def codes(self) -> np.ndarray:
        tables = self.tables
        prefixes = tables.prefixes[self.runs].repeat(self.lengths, axis=0)
        middle = [chunk.sequences[key] for chunk, key in zip(tables.chunks, self.keys)]
        return np.concatenate([prefixes, *middle, tables.suffixes[self.rows]], axis=1)

    def __len__(self) -> int:
        return len(self.rows)


def _label_sequences(width: int, sizes: GroupSizes):
    """Label sequences of ``width`` positions within ``sizes``, in order, with A and B counts."""
    codes = np.indices((3,) * width, dtype=np.int8).reshape(width, -1).T
    k_a = (codes == 0).sum(axis=1)
    k_b = (codes == 1).sum(axis=1)
    fits = (k_a <= sizes.n_a) & (k_b <= sizes.n_b) & (width - k_a - k_b <= sizes.n_c)
    return codes[fits], k_a[fits], k_b[fits]


def _unrank_tables(sizes: GroupSizes) -> _UnrankTables:
    """The prefix and suffix tables :func:`_unrank` reads for ``sizes``.

    Completion counts are int64, so the caller must first check that all
    label sequences times n stay below 2**63.
    """
    n = sizes.n
    head = min(n // 2, _TABLE_POSITIONS)
    tail = min(n - head, _TABLE_POSITIONS)
    prefixes, k_a, k_b = _label_sequences(head, sizes)
    rest_a, rest_b = sizes.n_a - k_a, sizes.n_b - k_b
    # completions of a prefix with k_A A's and k_B B's; each is at most
    # the number of label sequences, so int64 holds it exactly
    m = n - head
    ways = np.zeros((head + 1, head + 1), dtype=np.int64)
    for a, b in set(zip(k_a.tolist(), k_b.tolist())):
        rest = sizes.n_a - a
        ways[a, b] = math.comb(m, rest) * math.comb(m - rest, sizes.n_b - b)
    completions = ways[k_a, k_b]
    suffixes, s_a, s_b = _label_sequences(tail, sizes)
    group = s_a * (tail + 1) + s_b
    order = np.argsort(group, kind="stable")
    by_width, chunks = {}, []
    for start in range(head, n - tail, _TABLE_POSITIONS):
        width = min(_TABLE_POSITIONS, n - tail - start)
        if width not in by_width:
            sequences = _label_sequences(width, sizes)[0]
            lookup = np.zeros(3**width, dtype=np.intp)
            lookup[np.ravel_multi_index(tuple(sequences.T), (3,) * width)] = np.arange(len(sequences))
            by_width[width] = sequences, lookup
        chunks.append(_MiddleChunk(start, *by_width[width]))
    return _UnrankTables(
        prefixes=prefixes,
        starts=np.cumsum(completions) - completions,
        completions=completions,
        rest_a=rest_a,
        rest_b=rest_b,
        suffixes=suffixes[order],
        offsets=np.searchsorted(group[order], np.arange((tail + 1) ** 2)),
        chunks=tuple(chunks),
    )


def _unrank(sizes: GroupSizes, tables: _UnrankTables, rank: np.ndarray) -> CodeBatch:
    """The :class:`CodeBatch` of the lexicographic int64 ranks in ``rank``.

    Unranking of multiset permutations (Knuth, TAOCP 4A, 7.2.1.2).
    ``rank`` must be non-empty and in ascending order, as
    :func:`iter_code_batches` produces it in both modes; neither is
    checked.  Each prefix then covers one run of consecutive rows: the
    runs of the prefixes from the first row's to the last row's are
    found by searching ``rank`` for their starts and ends, and each
    prefix's counts are repeated over its run.  The rank within the
    prefix's ``left`` completions remains.  Each middle position takes
    one pass that picks A, B or C for every row at once: of the ``left``
    completions, ``left * n_A / m`` put A next and ``left * n_B / m`` put
    B next, where ``n_A``, ``n_B`` are the labels still to place and
    ``m`` the positions still open.  The codes a middle chunk picks add
    up to its base-3 key, which the chunk's lookup turns into a row of
    its table.  The last ``tail`` positions are row ``rank`` of the
    suffix group with the remaining A and B counts; with no middle
    positions that group is the prefix's own, so a row's suffix row is
    its rank plus one shift per prefix.  No label code is written: the
    batch holds only these table rows.
    """
    n, rows = sizes.n, len(rank)
    head, tail = tables.prefixes.shape[1], tables.suffixes.shape[1]
    first = tables.starts.searchsorted(rank[0], "right") - 1
    last = tables.starts.searchsorted(rank[-1], "right") - 1
    runs = slice(first, last + 1)
    starts = tables.starts[runs]
    lengths = rank.searchsorted(starts + tables.completions[runs]) - rank.searchsorted(starts)
    keys = []
    if head + tail == n:
        group = tables.rest_a[runs] * (tail + 1) + tables.rest_b[runs]
        row = rank + (tables.offsets[group] - starts).repeat(lengths)
    else:
        rank = rank - starts.repeat(lengths)
        left = tables.completions[runs].repeat(lengths)
        n_a = tables.rest_a[runs].repeat(lengths)
        n_b = tables.rest_b[runs].repeat(lengths)
        for chunk in tables.chunks:
            stop = chunk.start + chunk.sequences.shape[1]
            # at most 3**8 - 1; int16 arithmetic is 3x faster than int64 here
            key = np.zeros(rows, dtype=np.int16)
            for pos in range(chunk.start, stop):
                m = n - pos
                with_a = left * n_a // m
                with_b = left * n_b // m
                with_ab = with_a + with_b
                past_a = rank >= with_a
                past_b = rank >= with_ab
                key *= 3
                key += past_a
                key += past_b
                rank -= np.where(past_b, with_ab, np.where(past_a, with_a, 0))
                left = np.where(past_b, left - with_ab, np.where(past_a, with_b, with_a))
                n_a -= ~past_a
                n_b -= past_a & ~past_b
            keys.append(chunk.lookup.take(key))
        row = tables.offsets[n_a * (tail + 1) + n_b] + rank
    return CodeBatch(tables, runs, lengths, row, tuple(keys))


def _a_before_b_starts(sizes: GroupSizes) -> np.ndarray:
    """Shifts that turn ``a-before-b`` ranks into ranks among all sequences.

    With n_A == n_B the kept sequences are, in lexicographic order, the
    blocks ``C^k A ...`` for k = 0 .. n_C, and each is as large as the
    dropped block ``C^k B ...`` that follows it (swap A and B).  Before
    kept block k therefore lie ``starts[k]`` kept and as many dropped
    sequences, so kept rank r in block k is full rank ``r + starts[k]``.
    """
    n, n_a = sizes.n, sizes.n_a
    blocks = [math.comb(n - k - 1, n_a - 1) * math.comb(n - k - n_a, sizes.n_b) for k in range(sizes.n_c)]
    return np.cumsum([0, *blocks], dtype=np.int64)


def iter_code_batches(
    sizes: GroupSizes,
    mode: str = "all",
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> Iterator[CodeBatch]:
    """Yield enumerated assignments as :class:`CodeBatch` objects.

    Each batch's ``codes`` is a (batch, n) int8 array of label codes,
    formed from its table rows when read.  Lexicographic over label
    sequences with A < B < C; every batch but the last holds
    ``_BATCH_ROWS`` rows and is unranked from its own rank range, in
    ascending order as :func:`_unrank` requires.  The prefix,
    suffix and middle-chunk tables (:func:`_unrank_tables`) are built once
    per call, on the first ``next()``, after both guards below; every
    batch reads its first and last positions from them, each prefix over
    one run of consecutive rows, and unranks only the positions in
    between.  Mode
    ``a-before-b`` (defined only for n_A == n_B) keeps the assignments
    whose first A-labeled subject precedes the first B-labeled one,
    exactly half (swapping A and B pairs each kept assignment with a
    dropped one); :func:`_a_before_b_starts` shifts its ranks by a block
    shift that never decreases, so they still ascend.

    Raises :class:`EnumerationLimitError` when the count exceeds
    ``limit`` or when all label sequences (twice the count in
    ``a-before-b``) times n reach 2**63: the rank arithmetic is int64.
    Both come before the first batch.
    """
    count = assignment_count(sizes, mode)
    total = assignment_count(sizes)
    if count > limit:
        raise EnumerationLimitError(count, limit)
    ceiling = (2**63 - 1) // sizes.n // (total // count)
    if count > ceiling:
        raise EnumerationLimitError(count, ceiling, "the int64 rank ceiling")
    tables = _unrank_tables(sizes)
    starts = _a_before_b_starts(sizes) if mode == "a-before-b" else None
    for lo in range(0, count, _BATCH_ROWS):
        rank = np.arange(lo, min(lo + _BATCH_ROWS, count), dtype=np.int64)
        if starts is not None:
            rank += starts[np.searchsorted(starts, rank, side="right") - 1]
        yield _unrank(sizes, tables, rank)


def enumerate_assignments(
    sizes: GroupSizes,
    mode: str = "all",
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> Iterator[Assignment]:
    """Stream every distinct assignment exactly once."""
    for batch in iter_code_batches(sizes, mode, limit):
        for row in batch.codes:
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
