"""Distribution engines: exhaustive enumeration and seeded Monte Carlo.

Both engines evaluate the unadjusted and adjusted estimators over
assignments and reduce each batch to the moments they report: the count
and mean of every statistic, co-moment matrices of the unadjusted and
adjusted estimates and of the Monte Carlo lead term ``zeta``, and third
and fourth moments of ``zeta`` alone.  Batch moments are merged pairwise
(Chan, Golub & LeVeque 1979; Pebay 2008) in fixed batch order, and no
moment is rebuilt from raw power sums.  The exact engine is one serial
loop.  Monte Carlo batches draw from per-batch generator streams split
deterministically from the master seed and may run on a thread pool;
they merge in batch order, so results are bit-identical for any
``threads``.

Singular assignments (covariate collinear with the group dummies) are
excluded and counted by the exact engine, and redrawn and counted by the
Monte Carlo engine, which gives up after :data:`MAX_REDRAW_ROUNDS`
rounds on one batch.
"""

import os
from collections import deque
from contextlib import closing, contextmanager
from dataclasses import dataclass

import numpy as np

from .assignment import (
    DEFAULT_ENUMERATION_LIMIT,
    GroupSizes,
    assignment_count,
    iter_code_batches,
    worker_generator,
)
from .estimators import BatchEvaluator, SingularDesignError, nominal_covariance
from .population import Population
from .theory import _pair_codes, q_tilde


def _labels(codes: np.ndarray) -> list:
    """Label strings (``"ABCC..."``) of a batch of group-code rows."""
    letters = np.ascontiguousarray(np.frombuffer(b"ABC", dtype=np.uint8)[codes])
    return letters.view(f"S{codes.shape[1]}")[:, 0].astype(str).tolist()


#: Redraw rounds a Monte Carlo batch may spend on singular draws.  At a
#: singular rate p, a batch of B rows still holds one after this many
#: rounds with chance about B * p**100 (under 1e-12 for B = 4096, p = 0.7).
MAX_REDRAW_ROUNDS = 100


class _Moments:
    """Mergeable count, mean and central moment sums of row vectors.

    ``order`` 1 keeps the mean, 2 adds the co-moment matrix ``m2`` and 4
    the per-component third and fourth moment sums ``m3`` and ``m4``
    (None when not kept).  ``add`` folds in a batch of rows by the pairwise
    updates of Chan, Golub & LeVeque (1979) and Pebay (2008, SAND2008-6212).
    No update reads a higher-order sum, so the same batches merged in the
    same order give the same bits at every order.  Sums past the float
    range become inf or NaN without a warning; a statistic that overflowed
    reads as undefined (``null`` in reports).
    """

    def __init__(self, dim: int, order: int = 2):
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim)) if order >= 2 else None
        self.m3, self.m4 = (np.zeros(dim), np.zeros(dim)) if order >= 4 else (None, None)

    @np.errstate(over="ignore", invalid="ignore")
    def add(self, rows: np.ndarray) -> None:
        if rows.shape[0] == 0:
            return
        # one contiguous row per component: fast, pairwise-summed reductions
        cols = np.ascontiguousarray(rows.T)
        n_a, n_b = float(self.count), float(rows.shape[0])
        # ndarray.mean's own steps, a pairwise sum and then one division
        mean_b = np.add.reduce(cols, axis=1)
        mean_b /= n_b
        n = n_a + n_b
        delta = mean_b - self.mean
        if self.m2 is not None:
            d = cols - mean_b[:, None]
            # numpy's own einsum calls no BLAS, so its bits do not depend on
            # the BLAS kernel the CPU selects (a matmul's do)
            m2_b, w = np.einsum("ij,kj->ik", d, d), n_a * n_b / n
            if self.m3 is not None:
                d2 = d * d
                m3_b, m4_b = (d2 * d).sum(axis=1), (d2 * d2).sum(axis=1)
                v_a, v_b = np.diag(self.m2), np.diag(m2_b)
                self.m4 += (
                    m4_b
                    + delta**4 * w * (n_a * n_a - n_a * n_b + n_b * n_b) / (n * n)
                    + 6.0 * delta**2 * (n_a * n_a * v_b + n_b * n_b * v_a) / (n * n)
                    + 4.0 * delta * (n_a * m3_b - n_b * self.m3) / n
                )
                self.m3 += (
                    m3_b + delta**3 * w * (n_a - n_b) / n + 3.0 * delta * (n_a * v_b - n_b * v_a) / n
                )
            self.m2 += m2_b + delta[:, None] * delta * w
        self.mean += delta * (n_b / n)
        self.count += rows.shape[0]

    @np.errstate(over="ignore", invalid="ignore")
    def skewness_kurtosis(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-component skewness and kurtosis (order 4); NaN where the variance is 0."""
        var = np.diag(self.m2) / self.count
        var = np.where(var > 0.0, var, np.nan)
        return self.m3 / self.count / var**1.5, self.m4 / self.count / var**2


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _process_in_order(jobs, compute, threads: int):
    """Yield ``compute(job)`` for each of ``jobs``, in job order.

    The yield order never depends on ``threads``, which is what makes
    engine output reproducible across worker counts.  Workers, and with
    them the ``2 * workers + 1`` jobs in flight, are capped at the usable
    CPUs.  However iteration ends, by a failed job or by closing the
    generator, queued jobs are cancelled and running ones waited for.
    """
    workers = min(threads, _usable_cpus())
    if workers <= 1:
        for job in jobs:
            yield compute(job)
        return
    # imported here: the pool and the logging it loads cost serial runs 5 ms
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        try:
            for job in jobs:
                pending.append(pool.submit(compute, job))
                if len(pending) > 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)


@dataclass
class ExactSummary:
    """Exact distribution of both estimators over enumerated assignments.

    Expectations and covariances are taken over the emitted non-singular
    assignments with equal weight; ``singular_count`` says how many were
    excluded.  Biases are against the population means.
    """

    assignment_count: int
    singular_count: int
    truth: np.ndarray
    itt_mean: np.ndarray
    itt_bias: np.ndarray
    itt_cov: np.ndarray
    mr_mean: np.ndarray
    mr_bias: np.ndarray
    mr_cov: np.ndarray
    mr_z_coef_mean: float


@contextmanager
def _open_dump(path, first_column):
    """Dump file for the block that follows; None when ``path`` is None.

    Rows go to a new temporary file beside ``path``, which replaces
    ``path`` only when the block completes.  A block that raises removes
    the temporary file, so a failed run leaves any earlier file at
    ``path`` as it was and never a partial dump.  A symbolic link is
    followed, so its target is replaced and the link kept.  An empty
    path raises :class:`ValueError`: ``realpath`` would turn it into the
    working directory.
    """
    if path is None:
        yield None
        return
    if not os.fspath(path):
        raise ValueError(f"dump path must not be empty, got {path!r}")
    header = f"{first_column},itt_a,itt_b,itt_c,mr_a,mr_b,mr_c,q_hat,sigma_hat_sq\r\n"
    target = os.path.realpath(path)
    # a device or pipe such as /dev/null is written to, never replaced
    replace = not os.path.exists(target) or os.path.isfile(target)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp") if replace else target
    try:
        fh = open(tmp, "x" if replace else "w", newline="", encoding="utf-8")
    except OSError as exc:
        exc.filename = os.fspath(path)  # name the file the caller asked for
        raise
    try:
        with fh:
            fh.write(header)
            yield fh
        if replace:
            os.replace(tmp, target)
    except BaseException:
        if replace:
            os.remove(tmp)
        raise


#: Dump rows formatted per write.  The text and Python floats of a whole
#: 4096-row batch raised peak memory by about 3 MB; 64-row chunks keep a
#: dump's peak at that of writing row by row, for a few percent of speed.
_DUMP_CHUNK_ROWS = 64

#: Index elements a Monte Carlo chunk draws and evaluates at once:
#: ``max(1, _DRAW_CHUNK_ELEMENTS // n)`` rows of n int64 indices, 512 KB,
#: drawn into one buffer per batch, so a running batch's index and gather
#: memory fits a 2 MB L2 (2**18 elements needed 2 MB of indices alone).
#: The ``permuted`` draw costs the same per element at 81, 327 and 2,500
#: rows of n = 800 (about 20 ns on a 2-vCPU Xeon, numpy 2.4); the extra
#: per-chunk evaluation calls cost about 2% of wall time at 2 threads.
_DRAW_CHUNK_ELEMENTS = 2**16


def _dump_rows(fh, keys, res):
    """Write one batch of dump rows, keyed by the sequence ``keys``.

    Values are written as their shortest round-trip ``repr`` and rows end
    in ``\\r\\n``: the bytes :class:`csv.writer` writes for the same cells.

    Each ``itt_*`` cell is a group mean, which takes at most C(n, n_k)
    values, so ITT cells repeat heavily: ``enumerate --sizes 5,5,4 --mode
    a-before-b`` writes 378,378 of them with 4,164 distinct values.  Each
    batch formats each distinct ITT value once, before the chunk loop,
    and gathers the texts.  The key is the float64 bit pattern, not the
    float: ``0.0`` and ``-0.0`` compare equal but print differently, and
    NaN never equals itself.  Nothing is kept between batches.
    """
    itt = res["itt"]
    bits = itt.view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    # numpy 1.x and 2.x give a 2-D input's inverse different shapes
    itt_text = texts[inverse.reshape(itt.shape)]
    for start in range(0, len(keys), _DUMP_CHUNK_ROWS):
        chunk = slice(start, start + _DUMP_CHUNK_ROWS)
        columns = np.column_stack(
            [res["mr"][chunk], res["q_hat"][chunk], res["sigma_hat_sq"][chunk]]
        )
        rows = zip(keys[chunk], *itt_text[chunk].T.tolist(), *columns.T.tolist())
        fh.write(
            "".join(
                [
                    f"{key},{i_a},{i_b},{i_c},{m_a!r},{m_b!r},{m_c!r},{q!r},{s2!r}\r\n"
                    for key, i_a, i_b, i_c, m_a, m_b, m_c, q, s2 in rows
                ]
            )
        )


def exact_distribution(
    pop: Population,
    sizes: GroupSizes,
    mode: str = "all",
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    dump_path=None,
) -> ExactSummary:
    """Evaluate both estimators on every enumerated assignment.

    One serial loop: a thread pool was never clearly faster.  Each batch
    is reduced to moments as it arrives and, with ``dump_path``, written
    to the dump; no per-assignment estimate is kept.  Raises
    :class:`SingularDesignError` when every assignment is singular.
    """
    sizes.validate_for(pop.n)
    total = assignment_count(sizes, mode)  # raises for unknown mode
    evaluator = BatchEvaluator(pop, sizes)
    truth = evaluator.truth

    itt, mr, q_hat = _Moments(3), _Moments(3), _Moments(1, order=1)
    with _open_dump(dump_path, "assignment") as dump:
        for codes in iter_code_batches(sizes, mode, limit):
            res = evaluator.evaluate_codes(codes)
            # a boolean mask copies the batch even when it keeps every row
            keep = slice(None) if res["valid"].all() else res["valid"]
            itt.add(res["itt"][keep] - truth)
            mr.add(res["mr"][keep] - truth)
            q_hat.add(res["q_hat"][keep, None])
            if dump is not None:
                _dump_rows(dump, _labels(codes), res)
        if itt.count == 0:
            raise SingularDesignError("all assignments are singular")
    return ExactSummary(
        assignment_count=total,
        singular_count=total - itt.count,
        truth=truth,
        itt_mean=truth + itt.mean,
        itt_bias=itt.mean,
        itt_cov=itt.m2 / itt.count,
        mr_mean=truth + mr.mean,
        mr_bias=mr.mean,
        mr_cov=mr.m2 / mr.count,
        mr_z_coef_mean=float(q_hat.mean[0]),
    )


def contrast_symmetry_deviation(pop: Population, sizes: GroupSizes, pair=("A", "C")) -> float:
    """Worst asymmetry of the adjusted pair contrast about its true value.

    Enumerates every assignment (mode ``all``) and keeps, per batch, only
    the adjusted estimate of ``pair[1] - pair[0]`` on the non-singular
    ones.  When that contrast is distributed symmetrically about the true
    difference, the sorted centered values cancel pairwise and this
    returns roundoff.  Raises :class:`ValueError` unless ``pair`` names
    two distinct groups, and :class:`SingularDesignError` when every
    assignment is singular.
    """
    s, t = _pair_codes(pair)
    evaluator = BatchEvaluator(pop, sizes)
    parts = []
    for codes in iter_code_batches(sizes):
        res = evaluator.evaluate_codes(codes)
        valid = res["valid"]
        parts.append(res["mr"][valid, t] - res["mr"][valid, s])
    values = np.concatenate(parts)
    if values.size == 0:
        raise SingularDesignError("all assignments are singular")
    truth = evaluator.truth
    centered = np.sort(values - (truth[t] - truth[s]))
    return float(np.abs(centered + centered[::-1]).max())


@dataclass
class MCSummary:
    """Monte Carlo distribution summary; bit-reproducible per seed.

    ``zeta`` refers to the scaled lead term sqrt(n) * (group-mean
    deviation - q_tilde * covariate group mean), whose covariance the
    asymptotic theory predicts; skewness/kurtosis per component feed the
    normality checks (NaN for a component with zero variance).
    Covariances are sample covariances across replicates; ``*_se`` are
    Monte Carlo standard errors of the means.  ``mean_sigma_hat_sq`` and
    ``mean_nominal_cov`` are NaN when n <= 4 (no residual degrees of
    freedom).
    """

    replicates: int
    singular_redraws: int
    truth: np.ndarray
    q_tilde: float
    itt_mean: np.ndarray
    itt_bias: np.ndarray
    itt_cov: np.ndarray
    itt_se: np.ndarray
    mr_mean: np.ndarray
    mr_bias: np.ndarray
    mr_cov: np.ndarray
    mr_se: np.ndarray
    mean_q_hat: float
    mean_sigma_hat_sq: float
    mean_nominal_cov: np.ndarray
    zeta_mean: np.ndarray
    zeta_cov: np.ndarray
    zeta_skewness: np.ndarray
    zeta_kurtosis: np.ndarray
    max_abs_dev_az_a: float


def _batch_plan(reps: int, n: int):
    """Yield the batch plan as ``(index, size)`` jobs, lazily: any ``reps`` starts at once."""
    # fixed formula of (reps, n) only, never of the thread count: it
    # fixes the per-batch streams and merge boundaries, not memory
    rows = max(128, min(4096, 2_000_000 // max(n, 1)))
    for start in range(0, reps, rows):
        yield start // rows, min(rows, reps - start)


def monte_carlo(
    pop: Population,
    sizes: GroupSizes,
    reps: int,
    seed,
    threads: int = 1,
    dump_path=None,
) -> MCSummary:
    """Summarize both estimators over ``reps`` independent assignments.

    Each batch draws from its own stream and is drawn and evaluated in
    chunks of ``max(1, _DRAW_CHUNK_ELEMENTS // n)`` rows, in row order,
    so it consumes its stream exactly as one whole-batch draw would and
    gives the same rows.  Every chunk is drawn into the same index
    buffer, allocated once per batch, so the index and gather memory per
    running batch is one chunk.  Redraw rounds of a batch's singular rows
    are chunked the same way.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    sizes.validate_for(pop.n)
    qt = q_tilde(pop, sizes)
    evaluator = BatchEvaluator(pop, sizes)
    truth = evaluator.truth
    n = pop.n
    # a numpy mean, not the moment set's exactly rounded one: it fixes
    # max_abs_dev_az_a's bits
    az_mean = float((pop.a * pop.z).mean())

    itt, mr, zeta = _Moments(3), _Moments(3), _Moments(3, order=4)
    scalars = _Moments(18, order=1)  # q_hat, sigma_hat_sq, nominal_cov's 16 entries

    base_row = np.arange(n, dtype=np.int64)
    chunk_rows = max(1, _DRAW_CHUNK_ELEMENTS // n)
    # Indices of failed batches.  A batch after one of them is never merged
    # (the run raises the earlier batch's error first), so it stops early.
    failed = []

    def compute(job):
        index, size = job
        rng = worker_generator(seed, index)
        res, drawn, bad = None, 0, np.arange(size)
        buf = np.empty((min(chunk_rows, size), n), dtype=np.int64)
        # round 0 draws the batch, later rounds redraw its singular rows
        for _ in range(1 + MAX_REDRAW_ROUNDS):
            if bad.size == 0:
                break
            if any(i < index for i in failed):
                raise SingularDesignError(f"batch {index} stopped: an earlier batch failed")
            for start in range(0, bad.size, chunk_rows):
                rows = bad[start : start + chunk_rows]
                idx = buf[: rows.size]
                idx[:] = base_row
                rng.permuted(idx, axis=1, out=idx)
                patch = evaluator.evaluate_index(idx)
                if res is None:
                    res = {k: np.empty_like(a, shape=(size,) + a.shape[1:]) for k, a in patch.items()}
                for key, arr in patch.items():
                    res[key][rows] = arr
            drawn += int(bad.size)
            bad = bad[~res["valid"][bad]]
        redraws = drawn - size
        if bad.size:
            failed.append(index)
            singular = redraws + int(bad.size)
            raise SingularDesignError(
                f"singular design: {singular} of {drawn} draws in batch {index} were "
                f"singular (fraction {singular / drawn:.3g}) after {MAX_REDRAW_ROUNDS} rounds"
            )
        res["nominal_cov"] = nominal_covariance(res, evaluator.counts)
        res["redraws"] = redraws
        return res

    redraws, max_dev, written = 0, 0.0, 0
    results = _process_in_order(_batch_plan(reps, n), compute, threads)
    with _open_dump(dump_path, "replicate") as dump, closing(results):
        for res in results:
            redraws += res["redraws"]
            dev = res["itt"] - truth
            itt.add(dev)
            mr.add(res["mr"] - truth)
            zeta.add(np.sqrt(n) * (dev - qt * res["zbar"]))
            nominal = res["nominal_cov"].reshape(-1, 16)
            scalars.add(np.column_stack([res["q_hat"], res["sigma_hat_sq"], nominal]))
            max_dev = max(max_dev, float(np.abs(res["az_a"] - az_mean).max()))
            if dump is not None:
                _dump_rows(dump, range(written, written + len(res["q_hat"])), res)
                written += len(res["q_hat"])
            # free this batch before the generator computes the next one
            del res, dev, nominal

    itt_cov = itt.m2 / (reps - 1)
    mr_cov = mr.m2 / (reps - 1)
    zeta_skewness, zeta_kurtosis = zeta.skewness_kurtosis()
    return MCSummary(
        replicates=reps,
        singular_redraws=redraws,
        truth=truth,
        q_tilde=qt,
        itt_mean=truth + itt.mean,
        itt_bias=itt.mean,
        itt_cov=itt_cov,
        itt_se=np.sqrt(np.diag(itt_cov) / reps),
        mr_mean=truth + mr.mean,
        mr_bias=mr.mean,
        mr_cov=mr_cov,
        mr_se=np.sqrt(np.diag(mr_cov) / reps),
        mean_q_hat=float(scalars.mean[0]),
        mean_sigma_hat_sq=float(scalars.mean[1]),
        mean_nominal_cov=scalars.mean[2:].reshape(4, 4),
        zeta_mean=zeta.mean,
        zeta_cov=zeta.m2 / (reps - 1),
        zeta_skewness=zeta_skewness,
        zeta_kurtosis=zeta_kurtosis,
        max_abs_dev_az_a=max_dev,
    )
