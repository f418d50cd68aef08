"""Connection values, unitarity checks, renormalizations, products, builders."""

import cmath
import math

import numpy as np
import pytest

from biunitary import (
    Cell,
    Connection,
    ConnectionError,
    OrientedCellQuery,
    build_cyclic_group,
    build_dynkin,
    build_identity,
    build_trivial,
    check_biunitarity,
    check_unitarity,
    extended_value,
    hom_space,
    horizontal_product,
    renormalize,
    validate_square,
    vertical_product,
)

EPS_A3 = 1j * cmath.exp(1j * math.pi / 8)


def table_diff(a: Connection, b: Connection) -> float:
    keys = set(a.values) | set(b.values)
    return max(abs(a.values.get(c, 0) - b.values.get(c, 0)) for c in keys)


def scale_one_value(conn: Connection, factor: float) -> Connection:
    values = dict(conn.values)
    first = sorted(values)[0]
    values[first] = values[first] * factor
    return Connection(conn.top, conn.left, conn.bottom, conn.right, conn.mu,
                      values, gamma=conn.gamma, base=conn.base, name=conn.name + "#")


class TestGamma:
    @pytest.mark.parametrize("gamma", [(0.0, 0.0), (1.5, -1.0), (math.nan, 2.0), (math.inf, 2.0),
                                       (2.0,), (2.0, 2.0, 2.0), (1j, 2.0), "ab", 2.0])
    def test_gamma_must_be_a_pair_of_positive_finite_numbers(self, gamma):
        c = build_dynkin("A3")
        with pytest.raises(ConnectionError,
                           match=r"^gamma = .* is not a pair of positive finite numbers$"):
            Connection(c.top, c.left, c.bottom, c.right, c.mu, c.values,
                       gamma=gamma, base=c.base)

    def test_zero_gamma_stops_before_the_flat_solve(self):
        # it once reached the st-2 weights of flat_fields as a ZeroDivisionError
        c = build_dynkin("A3")
        with pytest.raises(ConnectionError):
            Connection(c.top, c.left, c.bottom, c.right, c.mu, c.values,
                       gamma=(0.0, 0.0), base=c.base)

    def test_derived_connections_carry_no_gamma(self):
        c = build_dynkin("A3")
        d = Connection(c.top, c.left, c.bottom, c.right, c.mu, c.values)
        assert d.gamma is None
        assert vertical_product(c, renormalize(c, "bar")).gamma is None
        assert renormalize(c, "prime").gamma == c.gamma


class TestBase:
    @pytest.mark.parametrize("base", ["1:2", "3:2", "0:9", 1])
    def test_base_must_be_a_source_vertex_of_the_top_graph(self, base):
        c = build_dynkin("A3")
        with pytest.raises(ConnectionError,
                           match=r"^base = .* is not a source vertex of the top graph$"):
            Connection(c.top, c.left, c.bottom, c.right, c.mu, c.values,
                       gamma=c.gamma, base=base)

    @pytest.mark.parametrize("kind", ["prime", "bar", "bar_prime"])
    def test_renormalizations_drop_the_base(self, kind):
        c = build_dynkin("A4")
        r = renormalize(c, kind)
        assert r.base is None
        assert r.gamma == c.gamma
        assert not set(r.top.src_vertices) & set(c.top.src_vertices)

    def test_square_validation_needs_gamma_and_base(self):
        c = build_dynkin("A3")
        for d in (Connection(c.top, c.left, c.bottom, c.right, c.mu, c.values, base=c.base),
                  Connection(c.top, c.left, c.bottom, c.right, c.mu, c.values, gamma=c.gamma)):
            with pytest.raises(ConnectionError, match="^square validation needs "):
                validate_square(d)


class TestValues:
    def test_a3_cell_with_matching_corners(self):
        c = build_dynkin("A3")
        v = c.value(("H:1-2", "G:1-2", "Hp:2-1", "Gp:2-1"))
        want = EPS_A3 + math.sqrt(2) * EPS_A3.conjugate()
        assert abs(v - want) < 1e-15
        assert abs(v - (-0.9238795 - 0.3826834j)) < 1e-6

    def test_a3_cell_without_corner_match(self):
        c = build_dynkin("A3")
        v = c.value(("H:1-2", "G:1-2", "Hp:2-3", "Gp:2-3"))
        assert abs(v - EPS_A3) < 1e-15
        assert abs(v - (-0.3826834 + 0.9238795j)) < 1e-6

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_non_finite_values_are_refused(self, bad):
        c = build_dynkin("A3")
        values = dict(c.values)
        values[sorted(values)[0]] = bad
        with pytest.raises(ConnectionError, match=r"^cell Cell\(.*\): value .* is not finite$"):
            Connection(c.top, c.left, c.bottom, c.right, c.mu, values)

    def test_trivial_values_are_paired_deltas(self):
        c = build_trivial(2)
        for i in range(2):
            for j in range(2):
                for i2 in range(2):
                    for j2 in range(2):
                        v = c.value((f"H:{j}", f"G:{i}", f"Hp:{j2}", f"Gp:{i2}"))
                        assert v == (1.0 if (i == i2 and j == j2) else 0.0)

    def test_trivial_d3_cell_counts(self):
        c = build_trivial(3)
        # 81 = 3^4 composable cells in total, the paired deltas pick out 9
        assert len(c.top.edges) * len(c.left.edges) * len(c.right.edges) \
            * len(c.bottom.edges) == 81
        assert len(c.values) == 9
        assert all(v == 1.0 for _, v in c.cells())

    def test_invalid_cell_raises(self):
        c = build_dynkin("A3")
        with pytest.raises(ConnectionError):
            c.value(("H:1-2", "G:3-2", "Hp:2-1", "Gp:2-1"))


class TestUnitarity:
    def test_a3_biunitary(self):
        rep = check_biunitarity(build_dynkin("A3"), 1e-12)
        assert rep.passed

    def test_trivial_exact(self):
        rep = check_unitarity(build_trivial(3))
        assert rep.max_residual == 0.0

    def test_scaled_value_fails(self):
        rep = check_unitarity(scale_one_value(build_dynkin("A3"), 1.1))
        assert rep.max_residual >= 0.05

    def test_random_table_fails(self):
        c = build_dynkin("A4")
        rng = np.random.default_rng(0)
        values = {cell: complex(*rng.standard_normal(2)) for cell in c.values}
        noisy = Connection(c.top, c.left, c.bottom, c.right, c.mu, values)
        assert not check_biunitarity(noisy).passed

    def test_unitarity_implies_block_value_mass(self):
        # sum of |value|^2 over each corner block equals the block size
        c = build_trivial(2)
        blocks = {}
        for cell, v in c.cells():
            x = c.top.source(cell.top)
            w = c.bottom.range(cell.bottom)
            blocks[(x, w)] = blocks.get((x, w), 0.0) + abs(v) ** 2
        for (x, w), mass in blocks.items():
            rows = sum(len(c.right.edges_between(c.top.range(t), w))
                       for t in c.top.edges_from(x))
            assert mass == rows


class TestRenormalize:
    @pytest.mark.parametrize("kind", ["prime", "bar"])
    def test_involutions(self, kind):
        c = build_dynkin("A3")
        assert table_diff(renormalize(renormalize(c, kind), kind), c) < 1e-14

    def test_half_turn_equals_composition(self):
        c = build_dynkin("A4")
        bp = renormalize(c, "bar_prime")
        pb = renormalize(renormalize(c, "prime"), "bar")
        assert bp.top.structurally_equal(pb.top)
        assert bp.left.structurally_equal(pb.left)
        assert table_diff(bp, pb) < 1e-12

    def test_reflections_stay_biunitary(self):
        c = build_dynkin("A4")
        for kind in ("prime", "bar", "bar_prime"):
            assert check_biunitarity(renormalize(c, kind), 1e-10).passed

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            renormalize(build_trivial(2), "sideways")


class TestExtendedValue:
    def test_trivial_reversed_horizontals(self):
        c = build_trivial(2)
        cell = Cell("H:0", "G:0", "Hp:0", "Gp:0")
        q = OrientedCellQuery(cell, top_reversed=True, bottom_reversed=True)
        assert extended_value(c, q) == 1.0

    def test_reversed_horizontals_conjugate(self):
        c = build_dynkin("A3")
        cell = Cell("H:1-2", "G:1-2", "Hp:2-1", "Gp:2-1")
        q = OrientedCellQuery(cell, top_reversed=True, bottom_reversed=True)
        assert abs(extended_value(c, q) - c.value(cell).conjugate()) < 1e-15

    def test_reversed_verticals_weight_factor(self):
        c = build_dynkin("A3")
        cell = Cell("H:1-2", "G:1-2", "Hp:2-1", "Gp:2-1")
        q = OrientedCellQuery(cell, left_reversed=True, right_reversed=True)
        factor = math.sqrt(c.mu["0:1"] * c.mu["2:1"] / (c.mu["3:2"] * c.mu["1:2"]))
        assert abs(extended_value(c, q) - factor * c.value(cell)) < 1e-15

    def test_double_mirror_restores_value(self):
        c = build_dynkin("A4")
        for cell in c.values:
            q = OrientedCellQuery(cell, top_reversed=True, bottom_reversed=True)
            once = extended_value(c, q)
            assert once.conjugate() == c.value(cell)

    def test_single_reversal_rejected(self):
        c = build_trivial(2)
        q = OrientedCellQuery(Cell("H:0", "G:0", "Hp:0", "Gp:0"), top_reversed=True)
        with pytest.raises(ConnectionError):
            extended_value(c, q)


class TestProducts:
    def test_vertical_product_shape(self):
        c = build_dynkin("A3")
        wt = vertical_product(c, renormalize(c, "bar"))
        assert wt.is_a_type
        assert wt.top.structurally_equal(c.top)
        assert check_unitarity(wt, 1e-10).passed

    def test_trivial_product_vertical_edges(self):
        c = build_trivial(2)
        wt = vertical_product(c, renormalize(c, "bar"))
        assert len(wt.left.edges) == 4
        assert all(v in (1.0, 0.0) or abs(v - round(v.real)) < 1e-15
                   for v in wt.values.values())

    def test_vertical_unit_law(self):
        c = build_dynkin("A3")
        wt = vertical_product(c, renormalize(c, "bar"))
        ident = build_identity(wt.top, wt.mu)
        unit = vertical_product(ident, wt)
        assert len(hom_space(unit, wt)) >= 1
        assert sorted(len(unit.left.edges_between(x, z)) for x in unit.x_vertices
                      for z in unit.x_vertices) == \
               sorted(len(wt.left.edges_between(x, z)) for x in wt.x_vertices
                      for z in wt.x_vertices)

    def test_graph_mismatch_raises(self):
        c = build_dynkin("A3")
        with pytest.raises(ConnectionError):
            vertical_product(c, c)

    def test_horizontal_product_unitary_and_associative(self):
        c = build_dynkin("A3")
        wt = vertical_product(c, renormalize(c, "bar"))
        blk = horizontal_product(wt, renormalize(wt, "prime"))
        assert check_unitarity(blk, 1e-10).passed
        left = horizontal_product(horizontal_product(wt, renormalize(wt, "prime")), wt)
        right = horizontal_product(wt, horizontal_product(renormalize(wt, "prime"), wt))
        assert table_diff(left, right) < 1e-12


class TestBuilders:
    @pytest.mark.parametrize("name,gamma", [
        ("A3", 2 * math.cos(math.pi / 4)),
        ("A4", 2 * math.cos(math.pi / 5)),
        ("E6", 2 * math.cos(math.pi / 12)),
    ])
    def test_dynkin_eigenvalues(self, name, gamma):
        c = build_dynkin(name)
        assert abs(c.gamma[0] - gamma) < 1e-10
        assert abs(c.gamma[1] - gamma) < 1e-10

    @pytest.mark.parametrize("name", ["A3", "A4", "A5", "A6", "A7", "A11", "A15", "D4",
                                      "D5", "D6", "D7", "D8", "E6", "E7", "E8"])
    def test_dynkin_biunitary(self, name):
        # exact Perron-Frobenius weights make every Dynkin builder bi-unitary to rounding
        c = build_dynkin(name)
        rep = check_biunitarity(c, 1e-10)
        assert rep.passed and rep.max_residual < 1e-14
        assert validate_square(c).max_residual < 1e-14

    def test_dynkin_unknown_raises(self):
        with pytest.raises(ValueError):
            build_dynkin("F4")

    def test_dynkin_base_override(self):
        c = build_dynkin("A5", base="3")
        assert c.base == "0:3"
        assert abs(c.mu["0:3"] - 1.0) < 1e-12
        assert check_biunitarity(c, 1e-10).passed

    def test_dynkin_rejects_odd_base(self):
        with pytest.raises(ValueError):
            build_dynkin("A5", base="2")

    def test_trivial_rejects_single_edge(self):
        with pytest.raises(ValueError):
            build_trivial(1)

    def test_trivial_gamma(self):
        c = build_trivial(2)
        assert c.gamma == (2.0, 2.0)
        assert all(m == 1.0 for m in c.mu.values())

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cyclic_biunitary(self, n):
        c = build_cyclic_group(n)
        assert check_biunitarity(c, 1e-10).passed
        assert abs(c.gamma[0] - math.sqrt(n)) < 1e-12

    def test_cyclic_values_are_roots_of_unity(self):
        c = build_cyclic_group(3)
        roots = {cmath.exp(2j * math.pi * j / 3) for j in range(3)}
        for _, v in c.cells():
            assert min(abs(v - r) for r in roots) < 1e-12

    def test_cyclic_rejects_small(self):
        with pytest.raises(ValueError):
            build_cyclic_group(1)

    def test_identity_connection_exact(self):
        c = build_dynkin("A3")
        ident = build_identity(c.top, c.mu)
        assert check_biunitarity(ident).max_residual == 0.0
        assert len(hom_space(ident, ident)) == 1
