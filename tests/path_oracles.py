"""Closed-path counts and path lists over graph sequences, which only the
tests read: the library counts paths by grid and lists them in ``PathSet``."""

from __future__ import annotations

from biunitary.graphs import _seq_graph, count_paths


def count_loops(seq, base: str, length: int) -> int:
    """Exact number of closed paths of `length` steps based at `base`."""
    return count_paths(seq, base, length).get(str(base), 0)


def enumerate_paths(seq, starts, length: int) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All paths of `length` steps from the given start vertices.

    Returns ``(edge_ids, vertex_sequence)`` pairs sorted by start vertex and
    then lexicographically on the edge id tuple, giving a reproducible basis
    order.
    """
    paths = [((), (str(v),)) for v in sorted(set(map(str, starts)))]
    for i in range(length):
        g = _seq_graph(seq, i)
        new = []
        for edges, verts in paths:
            for e in sorted(g.edges_from(verts[-1])):
                new.append((edges + (e,), verts + (g.range(e),)))
        paths = new
    paths.sort(key=lambda p: (p[1][0], p[0]))
    return paths
