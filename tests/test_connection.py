"""Connection values, unitarity checks, renormalizations, products, builders."""

import cmath
import hashlib
import json
import math
from operator import attrgetter

import numpy as np
import pytest

from biunitary import (
    Cell,
    Connection,
    ConnectionError,
    build_cyclic_group,
    build_dynkin,
    build_identity,
    build_trivial,
    check_biunitarity,
    check_unitarity,
    connection_to_document,
    hom_space,
    renormalize,
    validate_square,
    vertical_product,
)
from biunitary.cli import _build_builtin

from connection_oracles import OrientedCellQuery, extended_value, horizontal_product

EPS_A3 = 1j * cmath.exp(1j * math.pi / 8)


# sha256 of the sorted-key JSON document of each builtin of tools/reports.py, of
# the document of its vertical product with its bar renormalization, and of its
# cells in insertion order, the order in which products add cell products
PINNED = {
    "dynkin A3": ("17a57d497145a6b18217176350de840122e58c5437660de9d4b697ca81e8549e",
                  "2c01cd2b1c45d253df32467cd492f82adb966460f8b6e3d75e5a81d4deaa6bbe",
                  "c1d2e3fbed5755cf88719b0328985dee287ef9898fdf97611c12ff93ab82a796"),
    "dynkin A4": ("168d3e041a84c8dcd039710e000ef8dd256e04f0d755a71efb1f3b7dd5e62b11",
                  "8e63a8ec193695521b20ef5c07748de9e312081e0976bcb322df96deeb055dc3",
                  "4fcbe6b2775c2ca45381d3b7180862ac77b6dc054f7e6de965da70fe8b090e90"),
    "dynkin A5": ("a5974811935164843bb7b5a6ec10204aa68cbab670d15bf141a45e78884472ab",
                  "7975e0fe485bfbc417c3d099888b3d1c97b50fcb2a613a64373707dd5c576f8f",
                  "bdc755fea43ecc6a3355b706cad9fbcbbefbce23ed864fe73712776772f77d0f"),
    "dynkin A6": ("155de4d6261288e9fefb7723be0045ca021d980d1171706b5687a43914b84735",
                  "2475ef6f9b4e2acb9b11603516c52aa1b97a10f90e749ca479f5c5a60a040e8c",
                  "c10d832a2eb66171e5b0a0b0171186be867668b85f5c36ae80f6a9863b000735"),
    "dynkin A7": ("6335af432637e9553ece6dcf5df7bf530b881e553bc275c81ccf4204798f1de7",
                  "0a2e8d51c1bb7a295fc763435ff110f98c917625c9660634e3fef709c8b93385",
                  "abdc39329e9d86e8ec4b47a21eef877401039db249f99186c2a70ffd8a2cb644"),
    "dynkin D4": ("13bc80e7de3d4e23e3c705c5567891caa4cd57eb7d504c0586b5030821303bdd",
                  "d3914aa11b408c607e6649ac88f196d976b417558ae2d1a00281652e6d4bec7e",
                  "f28d4489a0a63fcce709b8ed8d979fe315dbfa3e19455364513f027419a9c22f"),
    "dynkin D5": ("aefdcd393486688ede0b0323bd422bf4e399fe6eeb595035ee672f5c2982577b",
                  "d3530754eba61d16d33bd388e29e6d321ef1043f4407be62ddbfef902e973361",
                  "26b2745256efb14ba928d02443142a6f6447ca3c14ba2761ffb8935fbdc098b7"),
    "dynkin E6": ("e223cf380fefda672dcac370c0bbf29f459d5c0ed6e23b04ae90d083e3b48e9f",
                  "63bcc99a50a89c0ed76cdb521ccab3e39d166b364de86c2c3e2231e915f89e96",
                  "49f572b9f881af51aae631c63ed85f9ca805add425920742f8ffafbc555e70f5"),
    "trivial 2": ("ef3e0e431afa6bc546765a59484ab5ff64b54c4d32154a2b312f6385037a62fb",
                  "bef316baaccea758040344a1ecfe5accdaf1fa6139d6da5787b11f4d0def7a12",
                  "c47a64d98b7943d503b908fd908ee67447d9a49bdc5f322cd22977d01d64e7d8"),
    "trivial 3": ("c5b3655c1cdfe84166fe7e58b279f16db84846ce1ba996314029d991c668af36",
                  "4b635a2394bf6196c1d9351140bf2522312612950120f7a99245e2923ed3246b",
                  "5023dfee8268bc0525fb1578a03d8c0e26c8fe289ebb59ce6fe56772148b1de8"),
    "cyclic 2": ("7a845a0c9465a53b428c3226ee355f6cd40cd787da1b6179a194f718782fc13f",
                 "5a2a6f74b610bd366f7b00ef17269fa6792a7788850228ccce44cb3daca10966",
                 "80c0990b9c92e02cbed99b80e3aa8b5144594c555a8a3d0d139636ac03a7ca30"),
    "cyclic 3": ("8bae5f1e1d57f95761614895b3277f0840499e48fc209555f357654ae28eebc1",
                 "541b20aa5f0ebee84c4844d5bb14710ced70216abb2ab20856e6398ec79a7273",
                 "b8befadb2ef241bb0a13c9ad425a2accea4b06f30a2e19796916a06497ec64f2"),
    "cyclic 4": ("4e10e5a0019e217487c6f739079cbee81b38960496ca7659bf2f1fbdf59bcd2d",
                 "c67983ae56dbf662d0bcb57fcc2db6a08f66b575ef56ac122b9741f5a9a79721",
                 "c802d9e175755e1007d68946d03ef829097d6910d72563ab8ed75bfc4c815fff"),
    "cyclic 5": ("6c51f6311905a43b3a85d672b100a595366b549bde3a20b12137ef17c3d77aa5",
                 "d369030918555582bac4343eb393dda10f7aff13855ff999343b498cbcc9a2b9",
                 "d89c9d2fcbe1352acab76da6bce6bbf9166c32dde77f042f4d3e18197ec341e9"),
    "dynkin E7": ("3627597d09a652dd708658787708d202772dcb5b464b07c5d6bf07cc3ac0db28",
                  "2715ee4e85923ba180742a8e300300efa5ac2bfbbc803a989041162dd701373d",
                  "07e9794f310e6aa9a7609b3dccf9b825fae7a64524456a221be9cb873952a4d0"),
    "dynkin A11": ("f48146c69e2a4e8af578e02f81305697165eb693e6039d6cbdaf8f8c9b87c942",
                   "58a029c80dba0e21212228c439cc68d2bdc055007f251f273f9d19c8d8cbaf1d",
                   "250e65456cc771f14ae93b146983dc2afc8e27461d56cb485c7bd0be3fec468e"),
    "dynkin A15": ("7d89d98e383ba3d645f0e0d37bf9d22384531ca8275d74e5f91761de6d9c3d4a",
                   "29470ce1a611c0941564350e24ce9a59ec878e7839bc7ed63f497c3b1e4c1760",
                   "0f90f3c117072953c64004864b3a2d663446b69871df6fb4f39dd10657a298b2"),
}


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

    def test_square_validation_needs_gamma_not_base(self):
        c = build_dynkin("A3")
        d = Connection(c.top, c.left, c.bottom, c.right, c.mu, c.values, gamma=c.gamma)
        assert validate_square(d).passed
        d = Connection(c.top, c.left, c.bottom, c.right, c.mu, c.values, base=c.base)
        with pytest.raises(ConnectionError, match="^square validation needs "):
            validate_square(d)

    @pytest.mark.parametrize("conn", [build_dynkin("A4"), build_dynkin("D5"), build_dynkin("E6"),
                                      build_trivial(3), build_cyclic_group(4)],
                             ids=attrgetter("name"))
    @pytest.mark.parametrize("kind", ["prime", "bar", "bar_prime"])
    def test_renormalizations_pass_square_validation(self, conn, kind):
        rep = validate_square(renormalize(conn, kind))
        assert rep.passed and rep.max_residual < 1e-14


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

    @pytest.mark.parametrize("spec", PINNED)
    def test_builtin_documents_and_cell_order_are_pinned(self, spec):
        # each cell of this product is one term (the horizontal graphs are simple,
        # or the cells deltas), so its digest does not see the cell order
        c = _build_builtin(spec.split())
        texts = [json.dumps(connection_to_document(d), sort_keys=True)
                 for d in (c, vertical_product(c, renormalize(c, "bar")))]
        texts.append(json.dumps([list(cell) for cell in c.values]))
        assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == PINNED[spec]

    def test_identity_connection_exact(self):
        c = build_dynkin("A3")
        ident = build_identity(c.top, c.mu)
        assert check_biunitarity(ident).max_residual == 0.0
        assert len(hom_space(ident, ident)) == 1
