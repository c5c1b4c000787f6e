"""Graph families on vertex set {1, ..., n}.

Paths are labeled along the line, with edges (i, i+1).  Cycles close the
path with the extra edge (n, 1).  Stars and wheels put the hub last: a
star with k leaves has leaves 1..k and hub k+1, a wheel with k spokes has
rim cycle 1..k and hub k+1.  Complete multipartite graphs assign
consecutive labels part by part.  An explicit edge list covers everything
else, so one simulation engine serves every family.  degree_counts gives
the degree classes of every family from its size alone, or an explicit one
from its n and edge list, and check_size refuses a size its builder refuses,
with the builder's message: below the smallest, or no parts or an empty one
of a multipartite graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Graph:
    """Undirected graph with 1-based vertex labels and sorted adjacency tuples."""

    n: int
    adj: tuple[tuple[int, ...], ...]  # adj[0] is an unused placeholder

    def check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} out of range for a {self.n}-vertex graph")

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self.adj[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self.adj[v])

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self.vertices for v in self.adj[u] if u < v]


_SMALLEST = {  # family -> (the smallest size it is built for, the refusal below it)
    "path": (1, "a path needs at least 1 vertex"),
    "cycle": (3, "a cycle needs at least 3 vertices"),
    "star": (1, "a star needs at least 1 leaf"),
    "wheel": (3, "a wheel needs at least 3 spokes"),
    "explicit": (1, "a graph needs at least 1 vertex"),
}


def check_size(family: str, size: int | Sequence[int]) -> None:
    if family == "complete_multipartite":
        if not size:
            raise ValueError("at least one part is required")
        if any(p < 1 for p in size):
            raise ValueError("every part must have size >= 1")
        return
    smallest, refusal = _SMALLEST[family]
    if size < smallest:
        raise ValueError(refusal)


def _checked_edges(n: int, edges: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """The edges in order, each as (smaller, larger) label, refused at the
    first one out of range or a self-loop."""
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        yield (u, v) if u < v else (v, u)


def _build(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    neigh: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in _checked_edges(n, edges):
        neigh[u].add(v)
        neigh[v].add(u)
    return Graph(n=n, adj=tuple(tuple(sorted(s)) for s in neigh))


def path(n: int) -> Graph:
    """Path on n >= 1 vertices, edges (i, i+1)."""
    check_size("path", n)
    inner = zip(range(1, n - 1), range(3, n + 1))  # (v - 1, v + 1) for 1 < v < n
    adj = ((), ()) if n == 1 else ((), (2,), *inner, (n - 1,))
    return Graph(n=n, adj=adj)


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    check_size("cycle", n)
    edges = [(i, i + 1) for i in range(1, n)]
    edges.append((n, 1))
    return _build(n, edges)


def star(leaves: int) -> Graph:
    """Star with the given number of leaves; the hub is vertex leaves+1."""
    check_size("star", leaves)
    hub = leaves + 1
    return _build(hub, ((i, hub) for i in range(1, hub)))


def wheel(spokes: int) -> Graph:
    """Wheel: rim cycle 1..spokes plus hub spokes+1 joined to every rim vertex."""
    check_size("wheel", spokes)
    hub = spokes + 1
    edges = [(i, i + 1) for i in range(1, spokes)]
    edges.append((spokes, 1))
    edges.extend((i, hub) for i in range(1, hub))
    return _build(hub, edges)


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts take consecutive label blocks, and
    the vertices of a part share one adjacency tuple, the labels outside it."""
    check_size("complete_multipartite", part_sizes)
    n = sum(part_sizes)
    adj: list[tuple[int, ...]] = [()]
    first = 1  # the part's first label
    for size in part_sizes:
        adj += [(*range(1, first), *range(first + size, n + 1))] * size
        first += size
    return Graph(n=n, adj=tuple(adj))


def degree_counts(
    family: str, size: int | Sequence[int] | tuple[int, Iterable[tuple[int, int]]]
) -> dict[int, int]:
    """{degree: number of vertices} of a family's graph, without building it.

    size is n for a path or a cycle, the leaves of a star, the spokes of a
    wheel, the part sizes of a complete_multipartite graph and the pair
    (n, edges) of an explicit one, refused where its builder refuses it; a
    vertex in a part of p of N vertices has degree N - p, and an explicit
    graph's degrees are counted over its deduplicated edges.
    """
    if family == "complete_multipartite":
        check_size(family, size)
        classes = [(sum(size) - p, p) for p in size]
    elif family == "explicit" and isinstance(size, tuple):
        n, edges = size
        check_size(family, n)
        degree = [0] * (n + 1)
        for u, v in set(_checked_edges(n, edges)):
            degree[u] += 1
            degree[v] += 1
        classes = Counter(degree[1:]).items()
    elif family in _SMALLEST and family != "explicit":
        check_size(family, size)
        classes = {
            "path": [(0, 1)] if size == 1 else [(1, 2), (2, size - 2)],
            "cycle": [(2, size)],
            "star": [(1, size), (size, 1)],
            "wheel": [(3, size), (size, 1)],
        }[family]
    else:
        raise ValueError(f"no degree counts for a {family} graph without its edges")
    counts: dict[int, int] = {}
    for degree, count in classes:
        if count:
            counts[degree] = counts.get(degree, 0) + count
    return counts


def explicit(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Arbitrary graph from an edge list; the escape hatch for everything else."""
    check_size("explicit", n)
    return _build(n, edges)
