"""Sampler checks: determinism, support, and agreement with exact counts."""

import itertools
import math
import os
import select
import signal
import time
from collections import Counter

import numpy as np
import pytest

from pathdom import (
    SampleConfig,
    cli,
    expected_gamma_path,
    max_dominating_size,
    montecarlo,
    normalize,
    path_census,
    sample_gamma,
)
from pathdom.errors import ConsistencyError, ResourceLimitError
from pathdom.montecarlo import CHUNK_SIZE, SLAB_ROWS, _chunk_words


def test_one_vertex_has_an_empty_word():
    assert sample_gamma(SampleConfig(n=1, samples=5000, seed=5)).bins == {1: 5000}


def test_two_path_is_degenerate():
    hist = sample_gamma(SampleConfig(n=2, samples=1000, seed=5))
    assert hist.bins == {1: 1000}
    assert hist.mean == 1.0
    assert hist.variance == 0.0


def test_three_path_mean_near_exact():
    hist = sample_gamma(SampleConfig(n=3, samples=60_000, seed=11))
    assert abs(hist.mean - float(expected_gamma_path(3))) < 0.02


def test_identical_configs_identical_histograms():
    config = SampleConfig(n=50, samples=3000, seed=123)
    assert sample_gamma(config) == sample_gamma(config)


def test_worker_count_does_not_change_output():
    base = sample_gamma(SampleConfig(n=40, samples=9000, seed=77))
    split = sample_gamma(SampleConfig(n=40, samples=9000, seed=77, workers=3))
    assert base.bins == split.bins
    assert base.mean == split.mean


def _counting_forks(monkeypatch):
    """Patch os.fork to record each child's pid; the list is the caller's."""
    real, pids = os.fork, []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _set_cores(monkeypatch, cpus, affinity=None):
    """A machine of `cpus` CPUs on which this process may run on `affinity`,
    all of them if None; "none" takes the platform's affinity call away."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if affinity == "none":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        allowed = set(range(cpus)) if affinity is None else affinity
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed, raising=False)


def test_pool_never_exceeds_the_jobs_or_the_cores(monkeypatch):
    # 9000 samples make 3 chunks; the caller takes chunks too, so K workers
    # fork min(K, chunks, cores) - 1 children, cores counted by affinity
    # where the platform has the call.
    pids = _counting_forks(monkeypatch)
    base = sample_gamma(SampleConfig(n=20, samples=9000, seed=5))
    for workers, cpus, affinity, children in [
        (10_000, 8, None, 2), (2, 8, None, 1), (10_000, 1, None, 0), (1, 8, None, 0),
        (10_000, 8, {0}, 0), (10_000, 8, {3, 5}, 1),
        (10_000, 8, "none", 2), (10_000, 1, "none", 0),
    ]:
        _set_cores(monkeypatch, cpus, affinity)
        del pids[:]
        pooled = sample_gamma(SampleConfig(n=20, samples=9000, seed=5, workers=workers))
        assert pooled == base
        assert len(pids) == children, (workers, cpus, affinity)
        assert all(map(_reaped, pids))


def test_without_fork_the_caller_takes_every_chunk(monkeypatch):
    base = sample_gamma(SampleConfig(n=20, samples=9000, seed=5))
    monkeypatch.delattr(os, "fork")
    assert sample_gamma(SampleConfig(n=20, samples=9000, seed=5, workers=3)) == base


def test_chunks_past_the_token_count_share_tokens(monkeypatch):
    # 3000 one-sample chunks: past TOKENS_MAX, so consecutive chunks share a
    # token, and every chunk is drawn exactly once whoever takes it.  The
    # tokens are one write that a pipe takes at once, however many chunks.
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 1)
    _set_cores(monkeypatch, 3)
    assert montecarlo.TOKENS_MAX * 4 <= select.PIPE_BUF < 3000 * 4
    calls = []
    evaluate = montecarlo.gamma_batch_path
    monkeypatch.setattr(montecarlo, "gamma_batch_path",
                        lambda n, words: calls.append(n) or evaluate(n, words))
    config = SampleConfig(n=3, samples=3000, seed=9)
    alone = sample_gamma(config)
    assert len(calls) == 3000
    shared = sample_gamma(SampleConfig(n=3, samples=3000, seed=9, workers=3))
    assert shared == alone and shared.total == 3000


@pytest.fixture
def taken():
    """A pipe on which a forked child writes one byte as it takes a chunk."""
    read, write = os.pipe()
    yield read, write
    os.close(read)
    os.close(write)


def _break_chunks(monkeypatch, taken, in_child, in_caller=None):
    """Two workers on two chunks: the child runs in_child(config, index) on
    each chunk it takes, the caller in_caller(config, index), if given, and
    else draws its chunk once the child has taken the other one.  Returns
    the list of forked pids."""
    caller = os.getpid()
    chunk = montecarlo._chunk_histogram
    read, write = taken

    def broken(config, index):
        if os.getpid() != caller:
            os.write(write, b".")
            return in_child(config, index)
        if in_caller is not None:
            return in_caller(config, index)
        assert select.select([read], [], [], 60)[0], "the child took no chunk"
        return chunk(config, index)

    pids = _counting_forks(monkeypatch)
    _set_cores(monkeypatch, 2)
    monkeypatch.setattr(montecarlo, "_chunk_histogram", broken)
    return pids


def _raise(exc):
    def chunk(config, index):
        raise exc(f"chunk {index} broke")
    return chunk


TWO_CHUNKS = SampleConfig(n=20, samples=2 * CHUNK_SIZE, seed=5, workers=2)


@pytest.mark.parametrize("exc", [ValueError, MemoryError, KeyboardInterrupt])
def test_a_chunk_raising_in_a_child_raises_in_the_caller(monkeypatch, taken, exc):
    pids = _break_chunks(monkeypatch, taken, _raise(exc))
    with pytest.raises(exc, match="broke"):
        sample_gamma(TWO_CHUNKS)
    assert len(pids) == 1 and _reaped(pids[0])


def test_a_chunk_raising_in_a_child_is_one_cli_error_line(monkeypatch, capsys, taken):
    pids = _break_chunks(monkeypatch, taken, _raise(ValueError))
    argv = ["sample", "--n", "20", "--samples", str(2 * CHUNK_SIZE), "--workers", "2"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: chunk ") and err.endswith(" broke\n") and err.count("\n") == 1
    assert len(pids) == 1 and _reaped(pids[0])


@pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
def test_a_chunk_raising_in_the_caller_stops_the_children(monkeypatch, taken, exc):
    def sleeps(config, index):  # would hold the test for a minute if it were waited for
        time.sleep(60)

    pids = _break_chunks(monkeypatch, taken, sleeps, _raise(exc))
    started = time.monotonic()
    with pytest.raises(exc, match="broke"):
        sample_gamma(TWO_CHUNKS)
    assert time.monotonic() - started < 30
    assert len(pids) == 1 and _reaped(pids[0])


def test_a_child_that_dies_without_its_chunks_is_an_error(monkeypatch, taken):
    pids = _break_chunks(
        monkeypatch, taken, lambda config, index: os.kill(os.getpid(), signal.SIGKILL)
    )
    with pytest.raises(ChildProcessError, match="without its chunks"):
        sample_gamma(TWO_CHUNKS)
    assert len(pids) == 1 and _reaped(pids[0])


@pytest.mark.parametrize("workers", [1, 2])
def test_a_joined_sample_is_not_drawn_again(monkeypatch, workers):
    _set_cores(monkeypatch, 2)
    calls = []
    evaluate = montecarlo.gamma_batch_path
    monkeypatch.setattr(montecarlo, "gamma_batch_path",
                        lambda n, words: calls.append(n) or evaluate(n, words))
    config = SampleConfig(n=20, samples=2 * CHUNK_SIZE, seed=5, workers=workers)
    sample = montecarlo.start_sample(config)
    assert sample.histogram() == sample_gamma(SampleConfig(n=20, samples=2 * CHUNK_SIZE, seed=5))
    del calls[:]
    with pytest.raises(RuntimeError, match="already been joined"):
        sample.histogram()
    assert calls == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list")
def test_every_way_out_closes_the_token_pipe(monkeypatch, taken):
    def descriptors():
        return sorted(os.listdir("/proc/self/fd"))

    before = descriptors()
    _set_cores(monkeypatch, 2)
    for workers in (1, 2):
        sample_gamma(SampleConfig(n=20, samples=2 * CHUNK_SIZE, seed=5, workers=workers))
        assert descriptors() == before, workers
    _break_chunks(monkeypatch, taken, lambda config, index: time.sleep(60), _raise(ValueError))
    with pytest.raises(ValueError, match="broke"):
        sample_gamma(TWO_CHUNKS)
    assert descriptors() == before


def test_different_seeds_differ():
    a = sample_gamma(SampleConfig(n=30, samples=5000, seed=1))
    b = sample_gamma(SampleConfig(n=30, samples=5000, seed=2))
    assert a.bins != b.bins


@pytest.mark.parametrize("n", [5, 17, 100])
def test_support_within_bounds(n):
    hist = sample_gamma(SampleConfig(n=n, samples=4000, seed=3))
    assert min(hist.bins) >= (n + 2) // 3
    assert max(hist.bins) <= (n + 1) // 2
    assert sum(hist.bins.values()) == hist.total == 4000


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_frequencies_match_exact_distribution(n):
    hist = sample_gamma(SampleConfig(n=n, samples=100_000, seed=99))
    for size, count in enumerate(path_census(n)):
        p = count / math.factorial(n)
        se = math.sqrt(p * (1 - p) / hist.total)
        emp = hist.bins.get(size, 0) / hist.total
        assert abs(emp - p) <= 5 * se


def test_paper_sample_size_matches_census_law():
    # The paper's 40000 samples, here at n = 7 where the exact law is known:
    # ten chunks, the last one partial, catch a bias the mean checks miss.
    census = path_census(7)
    hist = sample_gamma(SampleConfig(n=7, samples=40_000, seed=4242))
    assert set(hist.bins) <= {s for s, c in enumerate(census) if c}
    for size, count in enumerate(census):
        p = count / math.factorial(7)
        se = math.sqrt(p * (1 - p) / hist.total)
        assert abs(hist.bins.get(size, 0) / hist.total - p) <= 5 * se


def _up_down_law(n):
    """Exact law of (vertex v+1 revealed after vertex v, for each v) over all n! orders."""
    patterns = Counter(
        tuple(a < b for a, b in zip(times, times[1:]))
        for times in itertools.permutations(range(n))
    )
    return {pattern: count / math.factorial(n) for pattern, count in patterns.items()}


# The whole-chunk reference route: every key of the chunk split at once,
# then one comparison over the full (n, count) arrays.  The streamed word
# must equal it draw for draw.
def _reveal_keys(rng, n, count):
    raw = rng.bit_generator.random_raw(-(-n * count // 4))
    return raw.astype("<u8", copy=False).view("<u2")[: n * count].reshape(n, count)


def _up_down_word(keys, rng):
    later = keys[1:] > keys[:-1]
    columns = np.flatnonzero((keys[1:] == keys[:-1]).any(axis=0))
    pairs, at = np.nonzero(keys[1:, columns] == keys[:-1, columns])
    samples = columns[at]
    count = keys.shape[1]
    while pairs.size:
        cells = np.concatenate([pairs, pairs + 1]) * count + np.tile(samples, 2)
        drawn, where = np.unique(cells, return_inverse=True)
        digits = rng.bit_generator.random_raw(drawn.size)[where]
        left, right = digits[: pairs.size], digits[pairs.size :]
        later[pairs, samples] = right > left
        tied = right == left
        pairs, samples = pairs[tied], samples[tied]
    return later


class _BinaryKeys:
    """A generator whose raw words split into keys of 0 and 1, so about half
    of all neighbour pairs tie, across slab boundaries too; tie digits are
    masked alike and take 16 values."""

    def __init__(self, seed):
        self.bit_generator = self
        self._raw = np.random.default_rng(seed).bit_generator.random_raw

    def random_raw(self, size):
        return self._raw(size) & np.uint64(0x0001_0001_0001_0001)


def test_reveal_keys_split_raw_words_arithmetically():
    n, count = 7, 5  # 35 keys from 9 words, the last one split in part
    keys = _reveal_keys(np.random.default_rng(31), n, count)
    raw = np.random.default_rng(31).bit_generator.random_raw(9).tolist()
    split = [(word >> 16 * j) & 0xFFFF for word in raw for j in range(4)]
    assert keys.shape == (n, count)
    assert keys.ravel().tolist() == split[: n * count]


def _letters(words):
    """The (n - 1, count) boolean word held in a chunk's packed table."""
    return np.unpackbits(words.table[1:], axis=1, count=words.count).astype(bool)


@pytest.mark.parametrize("count", [1, 3, 5, 4096])
@pytest.mark.parametrize(
    # 31 to 33 straddle the second boundary of 16-row slabs, and 67 ends
    # three rows into a fifth.
    "n", [1, 2, 3, SLAB_ROWS - 1, SLAB_ROWS, SLAB_ROWS + 1, 2 * SLAB_ROWS + 3, 31, 32, 33, 67]
)
@pytest.mark.parametrize("make_rng, slab", [
    pytest.param(np.random.default_rng, SLAB_ROWS, id="pcg64"),
    pytest.param(_BinaryKeys, SLAB_ROWS, id="binary-keys"),
    pytest.param(np.random.default_rng, 4, id="pcg64-4-row-slabs"),
    pytest.param(_BinaryKeys, 4, id="binary-keys-4-row-slabs"),
])
def test_streamed_word_equals_the_whole_chunk_route(monkeypatch, make_rng, slab, n, count):
    # Every slab boundary must keep the letters, the ties and the stream
    # position: slabs of 4 rows put several boundaries in each word.
    monkeypatch.setattr(montecarlo, "SLAB_ROWS", slab)
    rng = make_rng(n * 10_000 + count)
    words = _chunk_words(rng, n, count)
    reference_rng = make_rng(n * 10_000 + count)
    reference = _up_down_word(_reveal_keys(reference_rng, n, count), reference_rng)
    width = -(-count // 8)
    assert len(words) == count
    assert words.table.dtype == np.uint8 and words.table.shape == (n, width)
    assert (words.table[0] == 0xFF).all()
    # The packed letters, pad bits included, are the reference word's.
    assert np.array_equal(words.table[1:], np.packbits(reference, axis=1))
    # Both routes left the stream at the same point.
    assert rng.bit_generator.random_raw(4).tolist() == (
        reference_rng.bit_generator.random_raw(4).tolist())


def _assert_follows_up_down_law(word, n):
    samples = word.shape[1]
    assert word.shape == (n - 1, samples)
    seen = Counter(map(tuple, word.T.tolist()))
    law = _up_down_law(n)
    assert set(seen) <= set(law)
    for pattern, p in law.items():
        se = math.sqrt(p * (1 - p) / samples)
        assert abs(seen[pattern] / samples - p) <= 5 * se


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize(
    "alphabet, dtype",
    [pytest.param(a, np.uint64, id=str(a)) for a in (1, 2)]
    + [pytest.param(a, np.uint16, id=f"{a}-uint16") for a in (1, 2)],
)
def test_up_down_word_is_exact(n, alphabet, dtype):
    # The whole-chunk route on keys from {0} or {0, 1}, which tie often, so
    # nearly every column is refined; with {0} every vertex sits in two tied pairs.
    samples = 20_000
    rng = np.random.default_rng(2024)
    keys = rng.integers(0, alphabet, size=(n, samples), dtype=dtype)
    word = _up_down_word(keys, rng)
    strict = keys[1:] != keys[:-1]
    assert np.array_equal(word[strict], (keys[1:] > keys[:-1])[strict])
    _assert_follows_up_down_law(word, n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("slab", [4, 32])
def test_streamed_word_is_exact(monkeypatch, n, slab):
    # Keys from {0, 1} tie often, so nearly every column is refined; with
    # slabs of 4 rows, n = 5 and n = 6 put tied pairs across a boundary,
    # and slabs of 32 rows, like any height from 6 up, hold each word whole.
    monkeypatch.setattr(montecarlo, "SLAB_ROWS", slab)
    _assert_follows_up_down_law(_letters(_chunk_words(_BinaryKeys(2024), n, 20_000)), n)


# Bins of the whole-chunk route at this seed.
PINNED_BINS = {
    843: 1, 844: 1, 845: 2, 846: 1, 847: 6, 848: 9, 849: 8, 850: 9, 851: 25,
    852: 32, 853: 49, 854: 79, 855: 84, 856: 97, 857: 130, 858: 154, 859: 216,
    860: 248, 861: 247, 862: 293, 863: 326, 864: 328, 865: 340, 866: 320, 867: 329,
    868: 273, 869: 281, 870: 226, 871: 226, 872: 153, 873: 123, 874: 120, 875: 82,
    876: 60, 877: 42, 878: 29, 879: 16, 880: 17, 881: 7, 882: 2, 883: 2, 884: 2,
    885: 1, 886: 2, 888: 1, 890: 1,
}


def test_seeded_histogram_is_pinned():
    # A change of slab height, scan or tie order that moves one draw shows here.
    bins = sample_gamma(SampleConfig(n=2000, samples=5000, seed=271828)).bins
    assert bins == PINNED_BINS


def test_chunk_memory_stays_below_its_packed_table_plus_a_quarter_mib():
    # The evaluator's packed table takes an eighth of a byte a key, and the
    # sampler packs its comparisons straight into it; besides the table a
    # chunk holds one slab of keys (128 KiB) and its comparisons (64 KiB),
    # or one block of counted rows (128 KiB).
    import tracemalloc

    n, samples = 2000, 4096
    tracemalloc.start()
    try:
        sample_gamma(SampleConfig(n=n, samples=samples, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * samples // 8 + 2**18


def test_a_chunk_shorter_than_a_slab_holds_comparisons_of_its_own_height():
    # At 5 vertices the keys take 40 KiB and the comparisons 20 KiB; a
    # SLAB_ROWS-high buffer of comparisons would take 64 KiB.  The first
    # call warms numpy up outside the trace.
    import tracemalloc

    _chunk_words(np.random.default_rng(0), 5, CHUNK_SIZE)
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        _chunk_words(rng, 5, CHUNK_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * 2**10


def test_sampling_never_calls_np_unique(monkeypatch):
    # The first np.unique of a process maps about 0.37 MB of numpy's code
    # and tables, and the tie rounds need no sort or running sum of numpy
    # either: they draw their cells in a loop of Python.  Binary keys tie
    # in about half of all pairs, so most tie cells are drawn for two pairs.
    n, count = 2 * SLAB_ROWS + 3, CHUNK_SIZE
    reference_rng = _BinaryKeys(n)
    reference = _up_down_word(_reveal_keys(reference_rng, n, count), reference_rng)

    for name in ("unique", "argsort", "cumsum"):
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"np.{name} was called")

        monkeypatch.setattr(np, name, refuse)
    rng = _BinaryKeys(n)
    words = _chunk_words(rng, n, count)
    assert np.array_equal(words.table[1:], np.packbits(reference, axis=1))
    assert rng.bit_generator.random_raw(4).tolist() == (
        reference_rng.bit_generator.random_raw(4).tolist())
    hist = sample_gamma(SampleConfig(n=300, samples=5000, seed=3))
    assert hist.total == 5000 and 100 <= min(hist.bins) <= max(hist.bins) <= 150
    assert sample_gamma(SampleConfig(n=2000, samples=5000, seed=271828)).bins == PINNED_BINS


def test_chunk_histogram_counts_wide_sizes_over_their_spread(monkeypatch):
    # Past n = 131070 sizes are uint32.  The count runs from the chunk's
    # smallest size, so it takes a few KiB where one from 0 would take 1.6 MB;
    # the chunk drawn is one sample of 5 vertices, whatever the stub returns.
    import tracemalloc

    sizes = np.random.default_rng(5).integers(200_000, 200_400, CHUNK_SIZE, dtype=np.uint32)
    monkeypatch.setattr(montecarlo, "gamma_batch_path", lambda n, batch: sizes)
    values, counts = np.unique(sizes, return_counts=True)
    tracemalloc.start()
    try:
        hist = montecarlo._chunk_histogram(SampleConfig(n=5, samples=1, seed=1), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist == Counter(dict(zip(values.tolist(), counts.tolist())))
    assert all(type(size) is int and type(c) is int for size, c in hist.items())
    assert peak < 2**17


# Bins of the paper's histogram, n = 2000 and 40000 samples, at seed 1.
PAPER_BINS = {
    838: 1, 840: 1, 841: 1, 842: 1, 843: 5, 844: 4, 845: 15, 846: 20, 847: 28,
    848: 46, 849: 80, 850: 123, 851: 206, 852: 255, 853: 373, 854: 537, 855: 667,
    856: 881, 857: 1091, 858: 1382, 859: 1579, 860: 1902, 861: 2125, 862: 2252,
    863: 2519, 864: 2628, 865: 2630, 866: 2697, 867: 2476, 868: 2356, 869: 2061,
    870: 1862, 871: 1619, 872: 1349, 873: 1063, 874: 856, 875: 682, 876: 503,
    877: 355, 878: 273, 879: 172, 880: 115, 881: 76, 882: 46, 883: 39, 884: 17,
    885: 14, 886: 6, 887: 8, 888: 2, 889: 1,
}


def test_paper_histogram_is_pinned():
    assert sample_gamma(SampleConfig(n=2000, samples=40000, seed=1)).bins == PAPER_BINS


def test_evaluator_is_called_once_a_chunk_through_the_module_attribute(monkeypatch):
    # The benchmark's tracer wraps montecarlo.gamma_batch_path and counts
    # n * len(batch) reveals and one chunk per call.
    calls = []
    evaluate = montecarlo.gamma_batch_path

    def recorder(n, batch):
        sizes = evaluate(n, batch)
        calls.append((n, len(batch), sizes.tolist()))
        return sizes

    monkeypatch.setattr(montecarlo, "gamma_batch_path", recorder)
    hist = sample_gamma(SampleConfig(n=50, samples=9000, seed=13))
    assert [(n, count) for n, count, _ in calls] == [(50, 4096), (50, 4096), (50, 808)]
    assert hist.bins == Counter(size for *_, sizes in calls for size in sizes)


def test_size_outside_the_provable_range_is_an_error(monkeypatch, capsys):
    evaluate = montecarlo.gamma_batch_path

    def broken(n, batch):
        sizes = evaluate(n, batch)
        sizes[0] = max_dominating_size(n) + 1
        return sizes

    monkeypatch.setattr(montecarlo, "gamma_batch_path", broken)
    with pytest.raises(ConsistencyError, match="outside the provable range"):
        sample_gamma(SampleConfig(n=30, samples=100, seed=1))
    capsys.readouterr()
    assert cli.main(["verify"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: sampled a size outside"), err


class TestNormalize:
    def test_per_vertex_degenerate(self):
        hist = sample_gamma(SampleConfig(n=2, samples=500, seed=4))
        assert normalize(hist, "per_vertex") == [(0.5, 1.0)]

    def test_per_vertex_range(self):
        hist = sample_gamma(SampleConfig(n=90, samples=5000, seed=21))
        points = normalize(hist, "per_vertex")
        assert all(1 / 3 <= x <= 1 / 2 for x, _ in points)
        assert abs(sum(w for _, w in points) - 1.0) < 1e-12

    def test_centered_mean_near_zero(self):
        samples = 20_000
        hist = sample_gamma(SampleConfig(n=60, samples=samples, seed=8))
        points = normalize(hist, "centered")
        mean = sum(x * w for x, w in points)
        tolerance = 10 * (hist.std_dev / math.sqrt(samples)) / 60
        assert abs(mean) <= tolerance

    def test_unknown_mode_rejected(self):
        hist = sample_gamma(SampleConfig(n=5, samples=100, seed=1))
        with pytest.raises(ValueError):
            normalize(hist, "log")


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "samples": 10, "seed": 1},
            {"n": 5, "samples": 0, "seed": 1},
            {"n": 5, "samples": 10, "seed": -1},
            {"n": 5, "samples": 10, "seed": 2**64},
            {"n": 5, "samples": 10, "seed": 1, "workers": 0},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SampleConfig(**kwargs)

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError, match="budget"):
            sample_gamma(SampleConfig(n=10**6, samples=10**6, seed=0))

    def test_budget_overridable(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "SAMPLE_BUDGET", 10 * CHUNK_SIZE - 1)
        with pytest.raises(
            ResourceLimitError, match=f"n \\* max\\(samples, {CHUNK_SIZE}\\) = {10 * CHUNK_SIZE}"
        ):
            sample_gamma(SampleConfig(n=10, samples=20, seed=0))
        hist = sample_gamma(SampleConfig(n=10, samples=20, seed=0, force=True))
        assert hist.total == 20

