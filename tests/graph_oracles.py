"""The graph walks that ``graphs.spanning_tree`` replaced, kept as oracles
which only the tests read: a union-find connectivity test, a depth-first
two-colouring and a breadth-first tree over an edge map."""

from __future__ import annotations

from collections import deque


def union_find_connected(g) -> bool:
    """Whether the layered graph `g` is connected, by union-find on its edges."""
    if not g.vertices:
        return False
    parent = {v: v for v, _ in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for _, s, r in g.edges:
        parent[find(s)] = find(r)
    roots = {find(v) for v, _ in g.vertices}
    return len(roots) == 1


def two_color(edges: list[tuple[str, str]], root: str) -> dict[str, int]:
    """Depth-first two-colouring of the component of `root`, which gets 0."""
    adj: dict[str, set[str]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    color = {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        for u in adj.get(v, ()):
            if u not in color:
                color[u] = 1 - color[v]
                stack.append(u)
    return color


def bfs_tree(by_pair: dict[tuple[str, str], list[str]], root: str) -> list[tuple[str, str, str]]:
    """Breadth-first spanning tree of an edge map ``(x, y) -> [edge, ...]``.

    Returns ``(x, y, edge)`` triples in the order the vertices ``y`` are
    first reached, each carried by the first edge listed for ``(x, y)``.
    """
    out: dict[str, list[tuple[str, str]]] = {}
    for (x, y), edges in sorted(by_pair.items()):
        out.setdefault(x, []).append((y, edges[0]))
    reached = {root}
    tree = []
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y, e in out.get(x, ()):
            if y not in reached:
                reached.add(y)
                tree.append((x, y, e))
                queue.append(y)
    return tree
