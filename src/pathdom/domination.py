"""The online domination procedure.

Vertices are revealed one at a time in the order given by a permutation;
a revealed vertex joins the dominating set exactly when none of its
neighbors is already in the set (a member dominates itself and all its
neighbors).  The final set is therefore always an independent dominating
set, and its size depends only on the graph and the revelation order.

The rule lives here in three forms: the scalar simulator
run_online_domination, the reference the tests hold the others to; the
exhaustive engine (final_set_counts, orders_with_size), the one brute
force over orders, guarded by DEFAULT_BRUTE_CAP, whose forward pass merges
prefixes by chosen set and inert reveals and asks _free_vertices who
joins, and whose listing walks only inside the final sets of that pass; and
the vectorized path evaluator gamma_batch_path.  On the path the final
set depends only on the up/down word of an order, which vertex of each
neighbouring pair is revealed later, so gamma_batch_path takes that word
packed as a PackedWords (the sampler packs its reveal-key comparisons
straight into one, and the word routes write one from integer word codes),
and runs both end scans of the path in one loop over it, bit-packed across
samples.  The loop is a
segmented scan (Blelloch, "Prefix sums and their applications", 1990):
SEGMENTS blocks of rows advance together, one bitwise call a block row,
each starting as if the vertex before it were free; P, the running AND of
each segment's steps, then tells which bits of a segment's first rows flip
once the segment before it is known, fixed segment by segment in order.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import DEFAULT_BRUTE_CAP, check_cap

if TYPE_CHECKING:
    import numpy as np

    from .graphs import Graph

SIZE_ROWS = 128  # rows mirrored, and chosen rows summed, at a time; at most 255 (uint8 sums)
SIZE_BYTES = 512  # packed bytes of a row summed at a time: 4096 samples, one sampler chunk
SEGMENTS = 16  # blocks of scan rows that gamma_batch_path advances together


@dataclass(frozen=True)
class DominationOutcome:
    """Dominating set produced by one run, in insertion order."""

    chosen: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.chosen)

    @property
    def chosen_set(self) -> frozenset[int]:
        return frozenset(self.chosen)


def check_permutation(perm: Sequence[int], n: int | None = None) -> None:
    """Validate that perm is a bijection on {1, ..., len(perm)}.

    When n is given, the length must also equal n.  Raises ValueError on
    any violation.
    """
    if n is not None and len(perm) != n:
        raise ValueError(
            f"permutation length {len(perm)} does not match vertex count {n}"
        )
    m = len(perm)
    if m < 1:
        raise ValueError("a permutation must have length at least 1")
    seen = bytearray(m + 1)
    try:  # operator.index admits ints, bools and numpy integers only
        for v in map(operator.index, perm):
            if not 1 <= v <= m or seen[v]:
                raise ValueError
            seen[v] = 1
    except (TypeError, ValueError):
        raise ValueError(f"not a permutation of 1..{m}: {tuple(perm)}") from None


def run_online_domination(graph: Graph, perm: Sequence[int]) -> DominationOutcome:
    """Reveal vertices in the order perm and grow the dominating set greedily."""
    check_permutation(perm, graph.n)
    adj = graph.adj
    in_set = bytearray(graph.n + 1)
    chosen: list[int] = []
    for v in perm:
        for u in adj[v]:
            if in_set[u]:
                break
        else:
            in_set[v] = 1
            chosen.append(v)
    return DominationOutcome(chosen=tuple(chosen))


def gamma(graph: Graph, perm: Sequence[int]) -> int:
    """Size of the dominating set produced for the given revelation order."""
    return run_online_domination(graph, perm).size


def max_dominating_size(n: int) -> int:
    """Largest size any revelation order can force on the n-path: ceil(n/2)."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n + 1) // 2


def min_dominating_size(n: int) -> int:
    """Smallest size any revelation order can reach on the n-path: ceil(n/3)."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n + 2) // 3


def is_independent_dominating(graph: Graph, vertex_set: Iterable[int]) -> bool:
    """True iff the set is independent and dominates every vertex."""
    members = set(vertex_set)
    for v in members:
        graph.check_vertex(v)
    for v in members:
        if any(u in members for u in graph.adj[v]):
            return False  # two adjacent members
    for v in graph.vertices:
        if v not in members and not any(u in members for u in graph.adj[v]):
            return False  # v is left undominated
    return True


@dataclass(frozen=True)
class PackedWords:
    """The up/down words of `count` orders of the n-path, packed as the table
    gamma_batch_path scans; len() is `count`.

    table has shape (n, 2 * ceil(count / 8)) and dtype uint8, and row 0 is
    all ones.  For 1 <= v < n, the left half of row v holds letter v of
    every word, true when vertex v+1 is revealed after vertex v: sample j at
    bit 7 - j % 8 of byte j // 8, as np.packbits lays it out.  The right
    half is the evaluator's, and gamma_batch_path overwrites the whole table.
    """

    table: np.ndarray
    count: int

    @classmethod
    def empty(cls, n: int, count: int) -> PackedWords:
        """A table for `count` words of the n-path, with no letter written yet."""
        import numpy as np

        if n < 1:
            raise ValueError("n must be positive")
        table = np.empty((n, 2 * -(-count // 8)), dtype=np.uint8)
        table[0] = 0xFF
        return cls(table, count)

    @classmethod
    def from_codes(cls, n: int, codes: np.ndarray) -> PackedWords:
        """The words of the n-path given as integer codes, letter j of a
        word as bit j of its code: word i of extremal.up_down_words is code i."""
        import numpy as np

        codes = np.asarray(codes)
        if n - 1 > 8 * codes.itemsize:
            raise ValueError(f"{n - 1} letters do not fit in {8 * codes.itemsize}-bit codes")
        words = cls.empty(n, len(codes))
        letters = words.table[:, : -(-len(codes) // 8)]
        little = codes.astype(codes.dtype.newbyteorder("<"), copy=False)
        columns = little.view(np.uint8).reshape(len(codes), codes.itemsize)  # byte j of a code
        column, bit = np.empty((2, len(codes)), dtype=np.uint8)
        for v in range(1, n):  # row v holds letter v - 1: bit (v - 1) % 8 of a byte
            if v % 8 == 1:
                np.copyto(column, columns[:, v // 8])
            np.right_shift(column, (v - 1) % 8, out=bit)
            letters[v] = np.packbits(np.bitwise_and(bit, 1, out=bit).view(bool))
        return words

    def __len__(self) -> int:
        return self.count


def gamma_batch_path(n: int, words: PackedWords) -> np.ndarray:
    """Vectorized gamma over many revelation orders of the n-vertex path.

    words holds the up/down words of k orders, evaluated in its own table,
    which it overwrites; PackedWords.from_codes writes one from integer word
    codes, so a whole word list needs no boolean table.  Returns the k
    sizes; size i matches gamma(path(n), order) for any order with word i.
    With n = 1 the word is empty and every size is 1.

    A neighbour revealed earlier is settled by its far side alone, so a
    scan from each end gives every vertex's status against that side, and
    the vertex is chosen when both sides allow it.  The right scan is the
    left scan of the mirrored path, whose comparisons are the complements
    in reverse, so one loop runs both scans on rows packed 8 samples a byte.
    Both run in one uint8 table t of n rows, the PackedWords layout: row v
    first holds the step into v, letter v in the left half and the
    complement of letter n-v in the right half, and the scan overwrites it
    in place.  A scan step is t[v] = ~(step & t[v-1]); odd rows are held
    complemented, so odd v ANDs with the step and even v ORs with the
    inverted step, and the odd rows flip once at the end.

    The scan is segmented.  Rows 1 .. SEGMENTS * L, with L = (n - 1) //
    SEGMENTS rounded down to even, form SEGMENTS segments of L rows, and
    one ufunc call advances row i of every segment.  L is even, so the row
    before each segment is even and holds the scan value itself, not its
    complement.  Each segment starts as if that row were all ones, a free
    vertex.  Where it is 0 instead, the bits differ exactly until
    the segment's first false step, so before the scan P[i], the AND of a
    segment's steps through its row i, is kept for as long as it is
    nonzero somewhere (about a dozen rows on random words).  After it,
    segments 1 .. SEGMENTS - 1 are fixed in order, by XOR of P & ~(last row
    of the segment before) into their first rows: in order, because a run
    of true steps, as in the all-up and all-down words, can cross a whole
    segment and change its last row.  The rows past SEGMENTS * L, every row
    when n < 33, take one ufunc call each.  The sizes are summed in blocks of
    SIZE_ROWS rows by SIZE_BYTES bytes, 8 * SIZE_BYTES samples, so the bits
    unpacked at once take SIZE_ROWS * 8 * SIZE_BYTES bytes (512 KiB) at
    most, whatever k is; a sampler chunk is one block wide.
    """
    import numpy as np

    if n < 1:
        raise ValueError("n must be positive")
    if isinstance(words, np.ndarray):
        raise TypeError("gamma_batch_path takes a PackedWords: see PackedWords.from_codes")
    t, k = words.table, len(words)
    w = -(-k // 8)
    if t.shape != (n, 2 * w):
        raise ValueError(f"expected a table of shape {(n, 2 * w)}, got {t.shape}")
    for top in range(1, n, SIZE_ROWS):  # the mirror: row v is ~row n - v
        mirror = t[n - top : max(n - top - SIZE_ROWS, 0) : -1, :w]
        np.invert(mirror, out=t[top : top + SIZE_ROWS, w:])
    # segs[j, i] is row j * span + 1 + i, so segment row i is odd for even i.
    span = (n - 1) // SEGMENTS & ~1
    segs = t[1 : 1 + SEGMENTS * span].reshape(SEGMENTS, span, 2 * w)
    runs = []  # P: the AND of each segment's steps through row i, while nonzero
    for i in range(span):
        run = runs[-1] & segs[:, i] if i else segs[:, 0].copy()
        if not run.any():
            break
        runs.append(run)
    np.invert(t[2::2], out=t[2::2])  # the steps into even rows
    combine = (np.bitwise_or, np.bitwise_and)  # into even rows, into odd rows
    for i in range(1, span):  # row i = 0 ANDs its step with a free vertex: no call
        combine[i & 1 ^ 1](segs[:, i], segs[:, i - 1], out=segs[:, i])
    if runs:  # where the row before a segment is 0, its bits in P flip
        runs = np.stack(runs, axis=1)
        for j in range(1, SEGMENTS):  # in order: a run of steps can cross a segment
            segs[j, : len(runs[j])] ^= runs[j] & ~segs[j - 1, -1]
    for v in range(1 + SEGMENTS * span, n):
        combine[v & 1](t[v], t[v - 1], out=t[v])
    np.invert(t[1::2], out=t[1::2])
    sizes = np.zeros(k, dtype=np.intp)
    right = t[::-1, w:]  # the right scan, in vertex order
    for left in range(0, w, SIZE_BYTES):
        cols = slice(left, min(left + SIZE_BYTES, w))
        block = sizes[8 * left : 8 * cols.stop]
        for top in range(0, n, SIZE_ROWS):  # no name keeps the unpacked bits alive
            chosen = t[top : top + SIZE_ROWS, cols] & right[top : top + SIZE_ROWS, cols]
            block += np.unpackbits(chosen, axis=1, count=block.size).sum(0, dtype=np.uint8)
    return sizes


# ---------------------------------------------------------------------------
# Exhaustive engine
# ---------------------------------------------------------------------------
#
# A revealed vertex joins exactly when no neighbour is chosen, and the chosen
# set C (bit v-1 for vertex v) only grows.  So every vertex outside the closed
# neighbourhood N[C] is unrevealed, and every one in N[C] \ C is inert: it
# never joins.  The rest of a run depends only on C and the number d of inert
# reveals so far.  A free vertex v moves (C, d) to (C | v, d) with weight 1,
# an inert reveal to (C, d + 1) with weight |N[C]| - |C| - d.  After k reveals
# d = k - |C|, so a layer is keyed by C alone: at most (independent sets) x
# (n + 1) states against n! orders.  _free_vertices holds the reveal rule.
# orders_with_size walks only inside the final sets of the forward pass.


def check_engine_cap(n: int, force: bool) -> None:
    """Refuse the engine on n vertices past DEFAULT_BRUTE_CAP, unless forced;
    callers that build the graph themselves check it first."""
    check_cap(n, DEFAULT_BRUTE_CAP, force, "exhaustive search over all orders")


def _closed_neighborhoods(graph: Graph, force: bool) -> list[int]:
    """Bitmask of each vertex and its neighbors, by vertex - 1, behind the guard."""
    check_engine_cap(graph.n, force)
    return [sum(1 << (u - 1) for u in (v, *graph.adj[v])) for v in graph.vertices]


def _free_vertices(chosen: int, closed: list[int], full: int) -> int:
    """Bitmask of the vertices outside N[chosen]: those that join when revealed."""
    covered = 0
    while chosen:
        bit = chosen & -chosen
        chosen ^= bit
        covered |= closed[bit.bit_length() - 1]
    return full & ~covered


def final_set_counts(graph: Graph, *, force: bool = False) -> dict[frozenset[int], int]:
    """Number of revelation orders that end in each final dominating set.

    A forward pass over reveal prefixes: after k steps each chosen set holds
    the number of length-k prefixes that reach it.  The counts sum to n!.
    """
    closed = _closed_neighborhoods(graph, force)
    full = (1 << graph.n) - 1
    layer: dict[int, int] = {0: 1}
    for hidden in range(graph.n, 0, -1):
        following: defaultdict[int, int] = defaultdict(int)
        for chosen, count in layer.items():
            free = _free_vertices(chosen, closed, full)
            inert = hidden - free.bit_count()  # |N[C]| - |C| - d, hidden but never joining
            if inert:
                following[chosen] += inert * count
            while free:
                bit = free & -free
                free ^= bit
                following[chosen | bit] += count
        layer = following
    return {
        frozenset(v for v in graph.vertices if chosen >> (v - 1) & 1): count
        for chosen, count in layer.items()
    }


def orders_with_size(
    graph: Graph, size: int, limit: int | None = None, *, force: bool = False,
    final_sets: Iterable[frozenset[int]] | None = None,
) -> list[tuple[int, ...]]:
    """Revelation orders whose final dominating set has `size` vertices.

    Orders come in lexicographic order, the order of itertools.permutations,
    and at most `limit` of them when a limit is given.  From a reveal prefix
    with chosen set C the final sets still reachable are exactly those of
    final_set_counts that contain C: a final set is independent, so each of
    its vertices outside C lies outside N[C], is hidden, and joins when it is
    revealed next.  A depth-first walk over reveal prefixes therefore enters
    a prefix only when its chosen set lies inside a final set of that size,
    and every branch ends in a listed order.  A caller that holds the final
    sets of the forward pass, the keys of final_set_counts(graph), passes
    them as final_sets, and the pass is not run again.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    closed = _closed_neighborhoods(graph, force)
    if limit == 0:
        return []
    full = (1 << graph.n) - 1
    if final_sets is None:
        final_sets = final_set_counts(graph, force=force)
    targets = [
        sum(1 << (v - 1) for v in final_set)
        for final_set in final_sets
        if len(final_set) == size
    ]
    fits: dict[int, bool] = {}  # chosen set -> lies inside some target
    prefix: list[int] = []

    def walk(revealed: int, chosen: int) -> Iterator[tuple[int, ...]]:
        if revealed == full:
            yield tuple(prefix)
            return
        free = _free_vertices(chosen, closed, full)
        hidden = full ^ revealed
        while hidden:
            bit = hidden & -hidden
            hidden ^= bit
            grown = chosen | bit & free  # an inert reveal leaves chosen as it is
            if grown not in fits:
                fits[grown] = any(grown & target == grown for target in targets)
            if fits[grown]:
                prefix.append(bit.bit_length())
                yield from walk(revealed | bit, grown)
                prefix.pop()

    return list(itertools.islice(walk(0, 0), limit))
