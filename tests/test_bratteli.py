"""Conditional expectation on two-level diagrams: the averaging formula."""

import numpy as np
from hypothesis import given, settings, strategies as st

from biunitary import (
    Bratteli2,
    StringElement2,
    conditional_expectation,
    embed_level_one,
    normalized_weights,
)

from string_oracles import pair_product, pair_star, pair_trace


def random_diagram(rng) -> Bratteli2:
    n_mid = int(rng.integers(1, 4))
    level1 = []
    for v in range(n_mid):
        for m in range(int(rng.integers(1, 4))):
            level1.append((f"a{v}.{m}", f"v{v}"))
    n_term = int(rng.integers(1, 4))
    level2 = []
    for v in range(n_mid):
        for w in range(n_term):
            for m in range(int(rng.integers(0, 3))):
                level2.append((f"b{v}.{w}.{m}", f"v{v}", f"w{w}"))
    if not any(s == "v0" for _, s, _ in level2):
        level2.append(("b.fix", "v0", "w0"))
    return Bratteli2(level1, level2)


def random_trace(rng, diagram) -> dict:
    raw = {}
    for p in diagram.paths:
        raw.setdefault(diagram.terminal[p], float(rng.uniform(0.2, 2.0)))
    return normalized_weights(diagram, raw)


def test_single_parallel_edge_is_fixed():
    d = Bratteli2([("a", "v")], [("b0", "v", "w"), ("b1", "v", "w")])
    el = StringElement2.unit(d, ("a", "b0"), ("a", "b1"))
    out = conditional_expectation(d, el)
    assert np.max(np.abs(out.vec - el.vec)) == 0.0


def test_two_parallel_edges_average():
    d = Bratteli2([("a0", "v"), ("a1", "v")], [("b", "v", "w")])
    el = StringElement2.unit(d, ("a0", "b"), ("a0", "b"))
    out = conditional_expectation(d, el)
    want = StringElement2.zero(d)
    for e in ("a0", "a1"):
        want = want + StringElement2.unit(d, (e, "b"), (e, "b"), 0.5)
    assert np.max(np.abs(out.vec - want.vec)) < 1e-15


def test_mixed_first_legs_map_to_zero():
    d = Bratteli2([("a0", "v"), ("a1", "v")], [("b", "v", "w")])
    el = StringElement2.unit(d, ("a0", "b"), ("a1", "b"))
    out = conditional_expectation(d, el)
    assert np.max(np.abs(out.vec)) == 0.0


def test_field_algebra_matches_the_pair_loops():
    rng = np.random.default_rng(2024)
    for _ in range(8):
        d = random_diagram(rng)
        weights = random_trace(rng, d)
        a, b = (StringElement2(d, rng.standard_normal(d.dim) + 1j * rng.standard_normal(d.dim))
                for _ in range(2))
        prod = a @ b
        assert type(prod) is StringElement2 and prod.diagram is d
        assert np.max(np.abs(prod.vec - pair_product(d, a.vec, b.vec))) < 1e-12
        assert np.max(np.abs(a.star().vec - pair_star(d, a.vec))) < 1e-12
        assert abs(a.trace(weights) - pair_trace(d, a.vec, weights)) < 1e-12
        for w, grid in d.grids.items():
            for i, j in np.ndindex(grid.shape):
                p, q = d.pairs[grid[i, j]]
                assert d.terminal[p] == d.terminal[q] == w


def test_seeded_corpus_properties():
    rng = np.random.default_rng(2024)
    diagrams = [random_diagram(rng) for _ in range(5)]
    per_diagram = 100
    for d in diagrams:
        weights = random_trace(rng, d)
        units = [embed_level_one(d, e1, e2)
                 for e1, v1 in d.level1 for e2, v2 in d.level1 if v1 == v2]
        for _ in range(per_diagram):
            el = StringElement2(d, rng.standard_normal(d.dim)
                                + 1j * rng.standard_normal(d.dim))
            ex = conditional_expectation(d, el)
            again = conditional_expectation(d, ex)
            assert np.max(np.abs(again.vec - ex.vec)) < 1e-12
            assert abs(el.trace(weights) - ex.trace(weights)) < 1e-12
            for b in units[:6]:
                comm = (ex @ b) - (b @ ex)
                assert np.max(np.abs(comm.vec)) < 1e-12
            # orthogonality of the expectation in the trace inner product
            n_all = el.norm2(weights)
            n_in = ex.norm2(weights)
            n_out = (el - ex).norm2(weights)
            assert abs(n_all ** 2 - n_in ** 2 - n_out ** 2) < 1e-10
            # the two-norm gap bound
            if n_all > 0:
                eps = abs(n_all - n_in) / n_all
                if eps < 1:
                    assert n_out <= (2 * eps) ** 0.5 * n_all + 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_gap_bound_property(seed):
    rng = np.random.default_rng(seed)
    d = random_diagram(rng)
    weights = random_trace(rng, d)
    el = StringElement2(d, rng.standard_normal(d.dim) + 1j * rng.standard_normal(d.dim))
    ex = conditional_expectation(d, el)
    n_all = el.norm2(weights)
    if n_all == 0:
        return
    eps = abs(n_all - ex.norm2(weights)) / n_all
    if eps < 1:
        assert (el - ex).norm2(weights) <= (2 * eps) ** 0.5 * n_all + 1e-10
