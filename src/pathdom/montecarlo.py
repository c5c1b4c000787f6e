"""Seeded Monte Carlo sampling of dominating-set sizes on the path.

Samples are drawn in fixed-size chunks, each chunk from its own
pseudo-random substream derived from (seed, chunk index), and chunk
histograms are merged by plain addition.  The chunk layout depends only
on (samples), never on the worker count, so a run is a pure function of
(n, samples, seed) however the chunks are scheduled.

On the path the size depends only on the up/down word of a sample: for
each pair of neighbours, which one is revealed later.  A sample is one
i.i.d. uniform 16-bit reveal key per vertex, the leading digits of its
reveal time, split from raw 64-bit generator words in a byte-order
independent way.  A pair of neighbours with equal keys (probability 2^-16)
is decided by fresh 64-bit digits of both vertices' reveal times, drawn one
per vertex per round until they differ, so the word follows a uniform
order exactly; the tied pairs, about 125 a chunk at n = 2000, are refined
in a loop of Python that calls no numpy sort.  A chunk's keys are drawn
and compared SLAB_ROWS (16) vertices at a time, 128 KiB of keys at 4096
samples, and the comparisons are packed 8 samples a byte straight into the
table that gamma_batch_path scans in place: the chunk is one PackedWords,
whose len() is its sample count, and no boolean word of the whole chunk is
ever built.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections import Counter
from dataclasses import dataclass

from .domination import PackedWords, gamma_batch_path, max_dominating_size, min_dominating_size
from .errors import ConsistencyError, check_cap

CHUNK_SIZE = 4096
SLAB_ROWS = 16  # vertices whose keys are held at once; a multiple of 4
SAMPLE_BUDGET = 500_000_000  # cap on n * max(samples, CHUNK_SIZE)
# Tokens in the chunk queue: 1024 four-byte tokens are 4096 bytes, PIPE_BUF
# on Linux, and no Linux pipe buffer is smaller than that one page.
TOKENS_MAX = 1024


@dataclass(frozen=True)
class SampleConfig:
    n: int
    samples: int
    seed: int
    workers: int = 1
    force: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.workers < 1:
            raise ValueError("workers must be positive")


@dataclass(frozen=True)
class Histogram:
    """Empirical distribution of the dominating-set size."""

    n: int
    bins: dict[int, int]  # size -> occurrences, keys sorted ascending
    total: int
    mean: float
    variance: float

    @property
    def std_dev(self) -> float:
        return self.variance**0.5


def _chunk_words(rng, n: int, count: int) -> PackedWords:
    """The up/down words of one chunk, from n x count reveal keys drawn a slab at a time.

    Bit j of letter v in the result is set when vertex v+1 is revealed after
    vertex v in sample j.  Key j of raw word i is (word >> 16 * j) & 0xFFFF
    on every machine: astype copies nothing on a little-endian machine and
    byte-swaps on a big-endian one.  A slab of SLAB_ROWS rows is a whole
    number of raw words and the last slab takes the ceiling, so the chunk
    reads ceil(n * count / 4) words in row-major key order whatever the slab
    height.  A slab's comparisons land in table rows top .. top + rows - 1,
    the first against the previous slab's last keys, kept in one reused row,
    and are packed there from one reused min(SLAB_ROWS, n) x count buffer,
    later, which then marks the slab's ties.  Each slab's keys are released
    before the next is drawn, so a chunk holds its packed table, n * count / 8
    bytes, and at most one slab of keys, 2 * SLAB_ROWS * count bytes, with
    later, at most SLAB_ROWS * count; gamma_batch_path then adds one block of
    SIZE_ROWS unpacked rows as it counts.  At n = 2000 and 4096 samples
    that is a 0.98 MiB table, a 128 KiB slab of 16 vertices, 64 KiB of later
    and a 128 KiB count block, and a chunk's tracemalloc peak is the table
    plus 220 KiB.

    Keys are the leading digits of i.i.d. uniform reals; a pair with equal
    keys draws the next 64-bit digit of both vertices (once for a vertex in
    two such pairs) and repeats until they differ.  A pair still tied at a
    round was tied at every earlier round, so each vertex's digits come in
    sequence and the comparison is exact.  Ties are refined after the last
    key, each round drawing one digit per distinct (vertex, sample) cell of
    its tied pairs, in ascending order of cell.  At n = 2000 a chunk ties
    in about 125 pairs (1999 * 4096 / 2^16), so the rounds are a loop of
    Python over the tied cells, which maps none of numpy's sort, running-sum
    or ufunc.at code: no other step of a sample runs it.  A tied pair's bit
    starts clear and is set once, in the round that finds the right vertex
    later.
    """
    import numpy as np

    words = PackedWords.empty(n, count)
    later = np.empty((min(SLAB_ROWS, n), count), dtype=bool)  # a slab's letters, then ties
    last = np.zeros(count, dtype="<u2")  # the previous slab's last row of keys
    tied = []  # cell p * count + j of each pair p of vertices p, p + 1 tied in sample j
    for top in range(0, n, SLAB_ROWS):
        rows = min(SLAB_ROWS, n - top)
        raw = rng.bit_generator.random_raw(-(-rows * count // 4))
        keys = raw.astype("<u8", copy=False).view("<u2")[: rows * count].reshape(rows, count)
        # later[i] is the letter of table row top + i; table row 0 holds no
        # letter, so the first slab drops later[0].
        first = 0 if top else 1
        np.greater(keys[0], last, out=later[0])
        np.greater(keys[1:], keys[:-1], out=later[1:rows])
        words.table[top + first : top + rows] = np.packbits(later[first:rows], axis=1)
        np.equal(keys[0], last, out=later[0])  # the letters are packed: now the ties
        np.equal(keys[1:], keys[:-1], out=later[1:rows])
        tied += (np.flatnonzero(later[first:rows]) + (top + first - 1) * count).tolist()
        last[:] = keys[-1]
        del raw, keys  # the next slab is drawn with this one released
    while tied:
        # A pair's left vertex is its own cell, its right one count cells on.
        cells = sorted({*tied, *(cell + count for cell in tied)})
        digits = dict(zip(cells, rng.bit_generator.random_raw(len(cells)).tolist()))
        still = []
        for cell in tied:
            left, right = digits[cell], digits[cell + count]
            if right > left:
                pair, sample = divmod(cell, count)
                words.table[pair + 1, sample >> 3] |= 0x80 >> (sample & 7)
            elif right == left:
                still.append(cell)
        tied = still
    return words


def _chunk_histogram(config: SampleConfig, index: int) -> Counter:
    """Sizes of chunk `index`: CHUNK_SIZE samples, the last chunk fewer."""
    import numpy as np

    count = min(CHUNK_SIZE, config.samples - index * CHUNK_SIZE)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
    )
    sizes = gamma_batch_path(config.n, _chunk_words(rng, config.n, count))
    # Counted over the chunk's spread of sizes, not over 0 .. max(sizes).
    low = int(sizes.min())
    counts = np.bincount(sizes - low).tolist()
    return Counter({low + v: c for v, c in enumerate(counts) if c})


class PendingSample:
    """A sample whose chunks are being drawn: start_sample returns one.

    The chunk tokens are written into one pipe and its write end is closed
    before K - 1 children are forked, K = min(workers, chunks, cores) where
    os.fork exists and 1 elsewhere.  Each child takes tokens until the pipe
    is empty, sends its merged Counter (or the exception a chunk raised)
    back on its own pipe, and leaves by os._exit, so it never returns into
    the caller's frames and flushes nothing it inherited.  The caller joins
    the queue in histogram(), adds the parts and reaps the children; bins
    are sums of the same chunk histograms for every K.  With K = 1 nothing
    is forked and histogram() takes every token.  close(), which histogram()
    and leaving a with block also call, stops and reaps any child not yet
    collected and closes the queue: a sample is joined once.
    """

    def __init__(self, config: SampleConfig, chunks: int, workers: int):
        self.config = config
        self._chunk_count = chunks
        self._tokens = min(chunks, TOKENS_MAX)
        self._children: dict[int, int] = {}  # pid -> read end of its result pipe
        read, write = os.pipe()
        self._queue: int | None = read  # read end of the token pipe
        try:
            # One write of at most PIPE_BUF bytes into an empty pipe: never
            # split, and never blocked, before any reader exists.
            os.write(write, b"".join(t.to_bytes(4, "little") for t in range(self._tokens)))
            os.close(write)
            for _ in range(workers - 1):
                self._fork()
        except BaseException:
            self.close()
            raise

    def _fork(self) -> None:
        read, write = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:  # the child: whatever happens, it ends here
            code = 1
            try:
                os.close(read)
                try:
                    part: object = self._take()
                except BaseException as exc:  # sent to the caller, which raises it
                    part = exc
                data = pickle.dumps(part)
                with open(write, "wb") as out:
                    out.write(data)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self._children[pid] = read

    def _take(self) -> Counter:
        """Take tokens until the queue is empty and add up their chunks.
        Token t covers chunks t * C // T up to (t + 1) * C // T of C chunks
        and T tokens, so consecutive chunks share a token past TOKENS_MAX."""
        merged: Counter = Counter()
        chunks, tokens = self._chunk_count, self._tokens
        while token := os.read(self._queue, 4):
            t = int.from_bytes(token, "little")
            for index in range(t * chunks // tokens, (t + 1) * chunks // tokens):
                merged.update(_chunk_histogram(self.config, index))
        return merged

    def _reap(self, pid: int) -> int:
        os.close(self._children.pop(pid))
        return os.waitpid(pid, 0)[1]

    def histogram(self) -> Histogram:
        """Join the queue, add every child's part to the caller's and reap
        the children; raise what a chunk raised, in this process or a child."""
        if self._queue is None:
            raise RuntimeError("this sample has already been joined or closed; start a new one")
        try:
            merged = self._take()
            for pid, read in list(self._children.items()):
                with open(read, "rb", closefd=False) as result:
                    data = result.read()
                status = self._reap(pid)
                if not data:
                    raise ChildProcessError(
                        "a sampling worker ended without its chunks "
                        f"(exit status {os.waitstatus_to_exitcode(status)})"
                    )
                part = pickle.loads(data)  # written by a child forked above
                if isinstance(part, BaseException):
                    raise part
                merged.update(part)
        finally:
            self.close()
        bins = {size: merged[size] for size in sorted(merged)}
        total = sum(bins.values())
        mean = sum(size * c for size, c in bins.items()) / total
        variance = sum(c * (size - mean) ** 2 for size, c in bins.items()) / total
        n = self.config.n
        if min(bins) < min_dominating_size(n) or max(bins) > max_dominating_size(n):
            raise ConsistencyError(
                "sampled a size outside the provable range; the batch evaluator is broken"
            )
        return Histogram(n=n, bins=bins, total=total, mean=mean, variance=variance)

    def close(self) -> None:
        """Stop and reap every child not yet collected and close the queue."""
        for pid in list(self._children):
            os.kill(pid, signal.SIGKILL)
            self._reap(pid)
        if self._queue is not None:
            os.close(self._queue)
            self._queue = None

    def __enter__(self) -> PendingSample:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_sample(config: SampleConfig) -> PendingSample:
    """Start drawing the sample of `config`; its histogram() returns it."""
    # A chunk costs n / SLAB_ROWS slab draws and n - 1 scan steps whatever its size.
    check_cap(
        config.n * max(config.samples, CHUNK_SIZE), SAMPLE_BUDGET, config.force,
        "sampling budget", measure=f"n * max(samples, {CHUNK_SIZE})",
    )
    chunks = -(-config.samples // CHUNK_SIZE)
    # The CPUs this process may run on, where the platform can say.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(config.workers, chunks, cores or 1) if hasattr(os, "fork") else 1
    if workers > 1:
        import numpy.random  # noqa: F401  -- loaded once here, not in each child

    return PendingSample(config, chunks, workers)


def sample_gamma(config: SampleConfig) -> Histogram:
    """Histogram of the size over uniform random revelation orders."""
    return start_sample(config).histogram()


def normalize(hist: Histogram, mode: str) -> list[tuple[float, float]]:
    """Empirical distribution points (x, relative frequency) under a rescaling.

    per_vertex divides each size by n, landing in [1/3, 1/2]; centered
    subtracts the exact expectation first, so the points straddle 0.
    """
    items = sorted(hist.bins.items())
    if mode == "per_vertex":
        return [(size / hist.n, count / hist.total) for size, count in items]
    if mode == "centered":
        mu = _exact_mean_float(hist.n)
        return [((size - mu) / hist.n, count / hist.total) for size, count in items]
    raise ValueError("normalization mode must be 'per_vertex' or 'centered'")


def _exact_mean_float(n: int) -> float:
    # Exact rational mean where affordable, float recurrence beyond.
    from . import expectation

    if n <= 4000:
        return float(expectation.expected_gamma_path_closed_form(n))
    return expectation.expected_gamma_path_float(n)
