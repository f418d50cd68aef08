"""Graphs: Perron-Frobenius data, reversal, path counting, square validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biunitary import (
    GraphError,
    LayeredGraph,
    build_dynkin,
    build_trivial,
    count_paths,
    perron_frobenius,
    validate_square,
)
from biunitary.graphs import spanning_tree

from graph_oracles import bfs_tree, two_color, union_find_connected
from path_oracles import count_loops, enumerate_paths


def path_graph(n: int, name: str = "A") -> LayeredGraph:
    """A_n as a layered graph, odd-numbered vertices on layer 0."""
    verts = [(str(i), 0 if i % 2 == 1 else 1) for i in range(1, n + 1)]
    edges = []
    for i in range(1, n):
        a, b = (i, i + 1) if i % 2 == 1 else (i + 1, i)
        edges.append((f"{name}:{a}-{b}", str(a), str(b)))
    return LayeredGraph(name, verts, edges, 0, 1)


@pytest.mark.parametrize("n", [3, 4, 6, 11, 15])
def test_perron_frobenius_a3(n):
    # closed form on A_n: lam = 2 cos(pi/(n+1)), w_j = sin(j pi/(n+1)) / sin(pi/(n+1))
    g = path_graph(n)
    lam, w = perron_frobenius(g, base="1")
    assert abs(lam - 2 * math.cos(math.pi / (n + 1))) < 1e-15
    for j in range(1, n + 1):
        want = math.sin(j * math.pi / (n + 1)) / math.sin(math.pi / (n + 1))
        assert abs(w[str(j)] - want) < 1e-14 * want


def test_perron_frobenius_parallel_edges():
    d = 4
    g = LayeredGraph("P", [("x", 0), ("y", 1)],
                     [(f"e{j}", "x", "y") for j in range(d)], 0, 1)
    lam, w = perron_frobenius(g)
    assert abs(lam - d) < 1e-12
    assert abs(w["x"] - 1) < 1e-12 and abs(w["y"] - 1) < 1e-12


def test_perron_frobenius_star():
    n = 5
    g = LayeredGraph("S", [(f"g{j}", 0) for j in range(n)] + [("c", 1)],
                     [(f"e{j}", f"g{j}", "c") for j in range(n)], 0, 1)
    lam, w = perron_frobenius(g, base="g0")
    assert abs(lam - math.sqrt(n)) < 1e-12
    assert all(abs(w[f"g{j}"] - 1) < 1e-12 for j in range(n))
    assert abs(w["c"] - math.sqrt(n)) < 1e-12
    # default scale without a base vertex: max entry one
    _, w2 = perron_frobenius(g)
    assert abs(max(w2.values()) - 1) < 1e-12


def test_perron_frobenius_rejects_disconnected():
    g = LayeredGraph("D", [("a", 0), ("b", 1), ("c", 0), ("d", 1)],
                     [("e1", "a", "b"), ("e2", "c", "d")], 0, 1)
    with pytest.raises(GraphError):
        perron_frobenius(g)


def test_reverse_is_involutive_and_preserves_ids():
    g = path_graph(3)
    rr = g.reverse().reverse()
    assert rr.edges == g.edges
    assert rr.source_layer == g.source_layer


def test_reverse_parallel_edges_keep_ids():
    g = LayeredGraph("P", [("x", 0), ("y", 1)],
                     [("e0", "x", "y"), ("e1", "x", "y")], 0, 1)
    r = g.reverse()
    assert r.edges == (("e0", "y", "x"), ("e1", "y", "x"))


def test_count_paths_a3_length_two():
    g = path_graph(3)
    counts = count_paths(g, "1", 2)
    assert counts == {"1": 1, "3": 1}


@pytest.mark.parametrize("n,expected", [(3, [1, 2, 4, 8]), (4, [1, 2, 5, 13])])
def test_count_loops_against_dense_power_oracle(n, expected):
    g = path_graph(n)
    # independent oracle: dense powers of the full undirected adjacency matrix
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        adj[i - 1, i] = adj[i, i - 1] = 1
    for k, exp in enumerate(expected, start=1):
        want = int(np.linalg.matrix_power(adj, 2 * k)[0, 0])
        assert want == exp
        assert count_loops(g, "1", 2 * k) == exp


def test_count_loops_matches_dense_powers_on_builder_graphs():
    # oracle equivalence on every builder's horizontal graph
    from conftest import ALL_BUILDERS, make_builder

    for name in ALL_BUILDERS:
        g = make_builder(name).top
        verts = sorted({v for v, _ in g.vertices})
        idx = {v: i for i, v in enumerate(verts)}
        adj = np.zeros((len(verts), len(verts)), dtype=np.int64)
        for _, s, r in g.edges:
            adj[idx[s], idx[r]] += 1
            adj[idx[r], idx[s]] += 1
        for k in (1, 2, 3):
            power = np.linalg.matrix_power(adj, 2 * k)
            for x in set(g.src_vertices):
                got = count_loops(g, x, 2 * k)
                assert got == int(power[idx[x], idx[x]]), (name, x, k)


def test_enumerate_paths_matches_counts():
    g = path_graph(4)
    for length in (1, 2, 3, 4):
        paths = enumerate_paths(g, g.src_vertices, length)
        total = 0
        for x in g.src_vertices:
            c = count_paths(g, x, length)
            total += sum(c.values())
        assert len(paths) == total
        assert len({p for p, _ in paths}) == len(paths)


def test_validate_square_a3_passes():
    rep = validate_square(build_dynkin("A3"))
    assert rep.passed
    assert rep.max_residual < 1e-12


def test_validate_square_perturbed_weight_fails():
    c = build_dynkin("A3")
    mu = dict(c.mu)
    mu["1:2"] += 0.1
    mu["3:2"] += 0.1
    rep = validate_square(c.with_mu(mu))
    assert not rep.passed
    assert 0.05 < rep.max_residual < 0.5


def test_validate_square_trivial():
    rep = validate_square(build_trivial(2))
    assert rep.passed


@st.composite
def small_bipartite(draw):
    nl = draw(st.integers(1, 3))
    nr = draw(st.integers(1, 3))
    verts = [(f"l{i}", 0) for i in range(nl)] + [(f"r{j}", 1) for j in range(nr)]
    edges = []
    eid = 0
    for i in range(nl):
        for j in range(nr):
            mult = draw(st.integers(0, 2))
            for _ in range(mult):
                edges.append((f"e{eid}", f"l{i}", f"r{j}"))
                eid += 1
    if not edges:
        edges = [("e0", "l0", "r0")]
    return LayeredGraph("H", verts, edges, 0, 1)


@settings(max_examples=40, deadline=None)
@given(small_bipartite())
def test_reverse_involution_property(g):
    assert g.reverse().reverse().edges == g.edges


def edge_map(g, directed):
    """``(x, y) -> [edge, ...]`` in id order, both ways unless `directed`."""
    out = {}
    for e, s, r in g.edges:
        out.setdefault((s, r), []).append(e)
        if not directed:
            out.setdefault((r, s), []).append(e)
    return out


@settings(max_examples=40, deadline=None)
@given(small_bipartite())
def test_spanning_tree_agrees_with_the_old_walks(g):
    assert g.is_connected() == union_find_connected(g)
    # the there-and-back steps on layer 0, shaped like the flat solve's vertical graph
    steps = LayeredGraph("GG", [(v, 0) for v in g.src_vertices],
                         [(f"{a}|{b}", s, t) for a, s, r in g.edges for b, t, u in g.edges
                          if u == r], 0, 0)
    # edge ids in the reverse of vertex order, so id order does not sort successors
    flipped = LayeredGraph("F", g.vertices, [(f"f{len(g.edges) - i:02d}", s, r)
                                             for i, (_, s, r) in enumerate(g.edges)], 0, 1)
    for h in (g, g.reverse(), steps, flipped):
        for root, _ in h.vertices:
            for directed in (True, False):
                assert spanning_tree(h, root, directed) == bfs_tree(edge_map(h, directed), root)
    # the parity colouring of build_dynkin
    for root, _ in g.vertices:
        color = {root: 0}
        for x, y, _ in spanning_tree(g, root, directed=False):
            color[y] = 1 - color[x]
        assert color == two_color([(s, r) for _, s, r in g.edges], root)
