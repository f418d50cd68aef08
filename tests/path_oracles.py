"""Closed-path counts and path lists over graph sequences, which only the
tests read: the library counts paths by grid and lists them in ``PathSet``."""

from __future__ import annotations

from biunitary.graphs import count_paths


def count_loops(g, base: str, length: int) -> int:
    """Exact number of closed back-and-forth paths of `length` steps based at `base`."""
    return count_paths(g, base, length).get(str(base), 0)


def enumerate_paths(g, starts, length: int) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All back-and-forth paths of `length` steps on `g` from the given start
    vertices: odd steps run along the edges of `g`, even steps against them.

    Returns ``(edge_ids, vertex_sequence)`` pairs sorted by start vertex and
    then lexicographically on the edge id tuple, giving a reproducible basis
    order.
    """
    rev = g.reverse()
    paths = [((), (str(v),)) for v in sorted(set(map(str, starts)))]
    for i in range(length):
        step = rev if i % 2 else g
        new = []
        for edges, verts in paths:
            for e in sorted(step.edges_from(verts[-1])):
                new.append((edges + (e,), verts + (step.range(e),)))
        paths = new
    paths.sort(key=lambda p: (p[1][0], p[0]))
    return paths
