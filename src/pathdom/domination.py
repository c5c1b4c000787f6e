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
straight into one, and PackedWords.every_word writes every word of a path),
bit-packed across samples.  It scans the table twice in place: from the
right end, for each vertex whether its right neighbour is chosen before it,
then greedily from the left, a vertex joining when its right side allows it
and the vertex before did not join.  Both passes are the one recurrence
x[i] = s[i] | ~x[i-1], the first on the letters and the second on its
complemented result, run as a segmented scan (Blelloch, "Prefix sums and
their applications", 1990), _scan: SEGMENTS blocks of rows advance
together, one OR a block row, each starting as if the row before it were
all ones; P, the running AND of each segment's ~s, then tells which
bits of a segment's first rows flip once the row before it is known: its
last row is fixed segment by segment in order, the others in every segment
at once.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import DEFAULT_BRUTE_CAP, WORD_LIST_CAP, check_cap

if TYPE_CHECKING:
    import numpy as np

    from .graphs import Graph

SIZE_ROWS = 32  # chosen rows summed at a time; at most 255 (uint8 sums)
SIZE_BYTES = 512  # packed bytes of a row summed at a time: 4096 samples, one sampler chunk
SEGMENTS = 32  # blocks of scan rows that gamma_batch_path advances together
RUN_ROWS = 16  # rows of P that _scan keeps; 600 sampler chunks at n = 2000 needed 11


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

    table has shape (n, ceil(count / 8)) and dtype uint8, and row 0 is all
    ones.  For 1 <= v < n, row v holds letter v of every word, true when
    vertex v+1 is revealed after vertex v: sample j at bit 7 - j % 8 of
    byte j // 8, as np.packbits lays it out.  gamma_batch_path overwrites
    the table with its two scans.
    """

    table: np.ndarray
    count: int

    @classmethod
    def empty(cls, n: int, count: int) -> PackedWords:
        """A table for `count` words of the n-path, with no letter written yet."""
        import numpy as np

        if n < 1:
            raise ValueError("n must be positive")
        table = np.empty((n, -(-count // 8)), dtype=np.uint8)
        table[0] = 0xFF
        return cls(table, count)

    @classmethod
    def every_word(cls, n: int, *, force: bool = False) -> PackedWords:
        """All 2^(n-1) up/down words of the n-path, word i with letter j as
        bit j of i, refused past WORD_LIST_CAP unless forced.

        Byte b of letter j holds words 8b .. 8b + 7, so for j < 3 every byte
        of the letter is one pattern; for j >= 3 the letter is constant on
        runs of 2^j words, and its row is runs of 2^(j-3) bytes of 0x00, then
        of 0xFF.
        """
        if n < 1:
            raise ValueError("n must be positive")
        check_cap(n, WORD_LIST_CAP, force, "up/down word listing")
        words = cls.empty(n, 1 << (n - 1))
        for j in range(n - 1):  # row j + 1 holds letter j
            if j < 3:
                words.table[j + 1] = (0x55, 0x33, 0x0F)[j]
            else:
                runs = words.table[j + 1].reshape(-1, 2, 1 << (j - 3))
                runs[:, 0], runs[:, 1] = 0x00, 0xFF
        return words

    def __len__(self) -> int:
        return self.count


def _scan(t: np.ndarray) -> None:
    """Run the scan x[i] = s[i] | ~x[i-1] down the rows of t in place.

    Row 0 holds x[0] and row i >= 1 its operand s[i]; the scan leaves x[i]
    in row i, one np.bitwise_or a row.  Where s[i] is 1, x[i] is 1; where it
    is 0, x[i] is the complement of x[i-1].

    The scan is segmented.  Rows 1 .. SEGMENTS * L, with L = (len(t) - 1) //
    SEGMENTS, form SEGMENTS segments of L rows, and one call advances row i
    of every segment.  Each segment starts as if the row before it were all
    ones, where its first row is its own operand: no call.  Where that row
    is 0 instead, the bits differ exactly until the segment's first s of 1,
    so before the scan P[i], the AND of ~s through a segment's row i, is kept
    for as long as it is nonzero somewhere (at most 11 rows in 600 sampler
    chunks), one row of every segment at a time.  After it, a segment's row
    i takes the XOR of P[i] & ~(x of the row before the segment).  P's last
    row goes first, into every segment in order, because a run of zero
    operands, as in the all-up and all-down words, can cross a whole segment
    and change its last row, which the next segment starts from.  The rows
    before every segment are then final, and each other row of P is fixed
    into all segments in one call, in place, so P is never copied.  A run
    that outlives RUN_ROWS rows of P drops P, which never wrote t, and the
    pass runs in order, as it does when L is 0 (len(t) < SEGMENTS + 1).  The
    rows past SEGMENTS * L take one call each.
    """
    import numpy as np

    span = max((len(t) - 1) // SEGMENTS, 0)
    # segs[j, i] is row j * span + 1 + i.
    segs = t[1 : 1 + SEGMENTS * span].reshape(SEGMENTS, span, t.shape[1])
    runs = []  # P: the AND of each segment's ~s through row i, while nonzero
    for i in range(span):
        run = ~segs[:, i]
        if i:
            run &= runs[-1]
        if not np.count_nonzero(run):  # a first run.any() maps 128-256 KiB of numpy
            break
        if len(runs) == RUN_ROWS:  # a run this long: scan the pass in order
            span, runs = 0, []
            break
        runs.append(run)
    for i in range(1, span):
        np.bitwise_or(segs[:, i], ~segs[:, i - 1], out=segs[:, i])
    if runs:  # where x of the row before a segment is 0, its bits in P flip
        last = runs.pop()  # P's last row, which may be a segment's last row
        for j in range(SEGMENTS):  # in order: a run of steps can cross a segment
            before = segs[j - 1, -1] if j else t[0]
            segs[j, len(runs)] ^= last[j] & ~before
        flips = ~np.concatenate([t[:1], segs[:-1, -1]])  # the rows before, now final
        for i, run in enumerate(runs):
            run &= flips
            segs[:, i] ^= run
    for v in range(1 + SEGMENTS * span, len(t)):
        np.bitwise_or(t[v], ~t[v - 1], out=t[v])


def gamma_batch_path(n: int, words: PackedWords) -> np.ndarray:
    """Vectorized gamma over many revelation orders of the n-vertex path.

    words holds the up/down words of k orders, evaluated in its own table,
    which it overwrites; PackedWords.every_word writes a whole word list
    straight into one, so it needs no boolean table.  Returns the k
    sizes, uint16 while ceil(n/2) fits in it and uint32 beyond; size i
    matches gamma(path(n), order) for any order with word i.  With n = 1
    the word is empty and every size is 1.

    Let R(v) be true when vertex v's right neighbour is not in the set as v
    is revealed.  A neighbour revealed earlier is settled by its far side
    alone, so R(n) = 1 and R(v) = letter v OR NOT R(v+1).  Then vertex v
    is chosen exactly when c(v) = R(v) AND NOT c(v-1), with c(0) = 0: if
    v - 1 is chosen, v is not, the set being independent; if it is not,
    it never blocks v, and v joins unless blocked from the right.  Both are
    the scan x(v) = s(v) | ~x(v-1), run by _scan in place in the one table
    t, rows packed 8 samples a byte:

    - pass 1 runs up the rows, t[:0:-1], with s(v) = letter v, and leaves
      R(v) in row v; its first row, n - 1, already holds R(n-1), which is
      letter n - 1;
    - rows 1 .. n - 1 are inverted to NOT R(v);
    - pass 2 runs down them with s(v) = NOT R(v) and x(0) = row 0, all
      ones, NOT c(0), and leaves NOT c(v) = NOT R(v) OR c(v-1) in row v.

    Row n - 1 then holds NOT c(n-1), which is c(n) = R(n) AND NOT c(n-1),
    and goes to row 0 before rows 1 .. n - 1 are inverted to c(v).  The
    sizes are the bits of all n rows, summed in blocks of SIZE_ROWS rows
    by SIZE_BYTES bytes, 8 * SIZE_BYTES samples, so the bits unpacked at
    once take SIZE_ROWS * 8 * SIZE_BYTES bytes (128 KiB) at most, whatever
    k is; a sampler chunk is one block wide.
    """
    import numpy as np

    if n < 1:
        raise ValueError("n must be positive")
    if isinstance(words, np.ndarray):
        raise TypeError("gamma_batch_path takes a PackedWords, not an array")
    t, k = words.table, len(words)
    w = -(-k // 8)
    if t.shape != (n, w):
        raise ValueError(f"expected a table of shape {(n, w)}, got {t.shape}")
    _scan(t[:0:-1])  # its row i is row n - 1 - i
    np.invert(t[1:], out=t[1:])
    _scan(t)
    t[0] = t[-1]
    np.invert(t[1:], out=t[1:])
    dtype = np.uint16 if max_dominating_size(n) <= np.iinfo(np.uint16).max else np.uint32
    sizes = np.zeros(k, dtype=dtype)
    for left in range(0, w, SIZE_BYTES):
        cols = slice(left, min(left + SIZE_BYTES, w))
        block = sizes[8 * left : 8 * cols.stop]
        for top in range(0, n, SIZE_ROWS):  # no name keeps the unpacked bits alive
            block += np.unpackbits(
                t[top : top + SIZE_ROWS, cols], axis=1, count=block.size
            ).sum(0, dtype=np.uint8)
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
    graph: Graph, size: int, limit: int | None = None, *, force: bool = False
) -> list[tuple[int, ...]]:
    """Revelation orders whose final dominating set has `size` vertices.

    Orders come in lexicographic order, the order of itertools.permutations,
    and at most `limit` of them when a limit is given.  From a reveal prefix
    with chosen set C the final sets still reachable are exactly those of
    final_set_counts that contain C: a final set is independent, so each of
    its vertices outside C lies outside N[C], is hidden, and joins when it is
    revealed next.  A depth-first walk over reveal prefixes therefore enters
    a prefix only when its chosen set lies inside a final set of that size,
    and every branch ends in a listed order.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    closed = _closed_neighborhoods(graph, force)
    if limit == 0:
        return []
    full = (1 << graph.n) - 1
    targets = [
        sum(1 << (v - 1) for v in final_set)
        for final_set in final_set_counts(graph, force=force)
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
