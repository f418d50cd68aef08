"""Acceptance suite: every criterion at its stated tolerance.

Each test covers one numbered criterion, aggregates its worst residual over
the whole builder list, and prints one summary line; the assertion carries
the same tolerance the summary reports.
"""

import json
import math

import numpy as np

from biunitary import (
    LadderEngine,
    check_biunitarity,
    discover_irreducibles,
    flat_fields,
    jones_projection,
    jones_span_dimension,
    mpo_O,
    operator_rank,
    pmpo_P,
    sector_statistics,
)
from biunitary.bratteli import (
    StringElement2,
    conditional_expectation,
    embed_level_one,
)
from biunitary.cli import main as cli_main

from conftest import ALL_BUILDERS, make_builder
from loop_oracles import shift2
from test_bratteli import random_diagram, random_trace
from transport_oracle import transport_T

THEOREM_KS = (1, 2, 3, 4)


def _edges_by_pair(conn):
    out = {}
    for e, s, r in conn.left.edges:
        out.setdefault((s, r), []).append(e)
    return out


def test_criterion_01_biunitarity():
    tol = 1e-10
    worst = 0.0
    for name in ALL_BUILDERS:
        rep = check_biunitarity(make_builder(name), tol)
        assert rep.passed, name
        worst = max(worst, rep.max_residual)
    print(f"\n[criterion 1] bi-unitarity of all {len(ALL_BUILDERS)} builders: "
          f"max residual {worst:.2e} < {tol:g}  PASS")
    assert worst < tol


def test_criterion_02_rank_equals_flat_dimension(systems, bases_for):
    rows = []
    for name in ALL_BUILDERS:
        s = systems(name)
        for k in THEOREM_KS:
            _, lb = bases_for(name, k)
            rank = operator_rank(pmpo_P(s.fd, s.reps, k, lb))
            flat = flat_fields(s.wn, k, return_basis=False).dimension
            rows.append((name, k, rank, flat))
            assert rank == flat, (name, k, rank, flat)
    print(f"\n[criterion 2] projector rank == flat-field dimension on "
          f"{len(rows)} (builder, k) pairs, exact integer equality  PASS")


def test_criterion_03_oracle_dimensions(systems, bases_for):
    oracles = {"dynkin:A3": (1, 2, 4, 8), "dynkin:A4": (1, 2, 5, 13),
               "trivial:2": (4, 16, 64, 256)}
    for name, dims in oracles.items():
        s = systems(name)
        for k, want in enumerate(dims, start=1):
            _, lb = bases_for(name, k)
            assert operator_rank(pmpo_P(s.fd, s.reps, k, lb)) == want
            assert flat_fields(s.wn, k, return_basis=False).dimension == want
    print("\n[criterion 3] oracle dimensions for A3, A4, trivial d=2 "
          "(k = 1..4) all match  PASS")


def test_criterion_04_global_index(systems):
    tol = 1e-6
    expected = {
        "dynkin:A3": 2.0,
        "dynkin:A4": 3.6180340,
        "dynkin:A5": 6 / (4 * math.sin(math.pi / 6) ** 2),
        "trivial:2": 1.0,
        "trivial:3": 1.0,
        "cyclic:2": 2.0,
        "cyclic:3": 3.0,
        "cyclic:4": 4.0,
        "cyclic:5": 5.0,
    }
    worst = 0.0
    for name, want in expected.items():
        worst = max(worst, abs(systems(name).fd.w - want))
    print(f"\n[criterion 4] global index values: worst deviation {worst:.2e} "
          f"< {tol:g}  PASS")
    assert worst < tol


def test_criterion_05_fusion_algebra(systems):
    worst_d = worst_power = worst_weighted = 0.0
    for name in ALL_BUILDERS:
        s = systems(name)
        fd = s.fd
        labels = fd.labels
        for a in labels:
            assert fd.conj[fd.conj[a]] == a
            assert np.array_equal(fd.m_table[a], fd.m_table[fd.conj[a]].T)
            for b in labels:
                assert fd.n_table[(fd.identity, a, b)] == (1 if a == b else 0)
                assert fd.n_table[(a, fd.identity, b)] == (1 if a == b else 0)
                assert fd.n_table[(a, b, fd.identity)] == (1 if b == fd.conj[a] else 0)
                total = sum(fd.n_table[(a, b, c)] * fd.d[c] for c in labels)
                worst_d = max(worst_d, abs(fd.d[a] * fd.d[b] - total))
                for c in labels:
                    for dd in labels:
                        lhs = sum(fd.n_table[(a, b, e)] * fd.n_table[(e, c, dd)]
                                  for e in labels)
                        rhs = sum(fd.n_table[(b, c, f)] * fd.n_table[(a, f, dd)]
                                  for f in labels)
                        assert lhs == rhs
        g2 = s.wn.gamma[1]
        for n in range(1, 5):
            mult = fd.multiplicities(n)
            total = sum(mult[a] * fd.d[a] for a in labels)
            worst_power = max(worst_power, abs(total - g2 ** (2 * n)))
        mu = np.array([fd.mu[x] for x in fd.v0])
        weighted = sum(fd.d[a] * (mu @ fd.m_table[a]) for a in labels)
        worst_weighted = max(worst_weighted, float(np.max(np.abs(weighted - fd.w * mu))))
    assert worst_d < 1e-8 and worst_weighted < 1e-8 and worst_power < 1e-6
    print(f"\n[criterion 5] fusion algebra on all builders: dim-hom {worst_d:.2e} "
          f"< 1e-8, power sums {worst_power:.2e} < 1e-6, weighted multiplicity "
          f"{worst_weighted:.2e} < 1e-8  PASS")


def test_criterion_06_mpo_identities(systems, bases_for):
    worst_fusion = worst_idem = worst_phi = worst_shift = worst_tsum = 0.0
    for name in ALL_BUILDERS:
        s = systems(name)
        for k in (1, 2, 3):
            sb, lb = bases_for(name, k)
            phi = np.diag(lb.fold_factor)
            ops = {}
            for a in s.fd.labels:
                rep = s.reps[a]
                lad = LadderEngine(rep).half_ladder(sb.pathset, k)
                o = mpo_O(rep, k, lb)
                ot = mpo_O(rep, k, sb)
                ops[a] = o.matrix
                worst_phi = max(worst_phi, float(np.max(np.abs(
                    phi @ o.matrix - ot.matrix @ phi))))
                acc = np.zeros_like(ot.matrix)
                for (x, y), edges in _edges_by_pair(rep).items():
                    sx, sy = sb.block_slices[x], sb.block_slices[y]
                    for z in edges:
                        acc[sy, sx] += transport_T(lad, z, z, sb)
                worst_tsum = max(worst_tsum, float(np.max(np.abs(acc - ot.matrix))))
            for a in s.fd.labels:
                for b in s.fd.labels:
                    want = sum(s.fd.n_table[(a, b, c)] * ops[c] for c in s.fd.labels)
                    worst_fusion = max(worst_fusion, float(np.max(np.abs(
                        ops[a] @ ops[b] - want))))
            p = pmpo_P(s.fd, s.reps, k, lb)
            worst_idem = max(worst_idem, p.idempotency_defect())
            sh = shift2(lb)
            worst_shift = max(worst_shift, float(np.max(np.abs(
                sh @ p.matrix - p.matrix @ sh))))
    assert worst_fusion < 1e-8 and worst_idem < 1e-8 and worst_phi < 1e-10
    assert worst_shift < 1e-12 and worst_tsum < 1e-12
    print(f"\n[criterion 6] operator identities (all builders, k <= 3): "
          f"fusion {worst_fusion:.2e} < 1e-8, idempotency {worst_idem:.2e} < 1e-8, "
          f"folding {worst_phi:.2e} < 1e-10, rotation {worst_shift:.2e} < 1e-12, "
          f"transport sum {worst_tsum:.2e} < 1e-12  PASS")


def test_criterion_07_flatness_relations(systems, bases_for):
    tol = 1e-9
    worst_t = worst_o = worst_p = 0.0
    for name in ALL_BUILDERS:
        s = systems(name)
        v0 = s.fd.v0
        for k in (1, 2):
            res = flat_fields(s.wn, k, return_basis=True)
            sb = res.basis
            fields = res.fields()
            mu_vec = np.array([s.wn.mu[x] for x in sb.base])
            pt = pmpo_P(s.fd, s.reps, k, sb)
            for a in s.fd.labels:
                rep = s.reps[a]
                lad = LadderEngine(rep).half_ladder(sb.pathset, k)
                ot = mpo_O(rep, k, sb).matrix
                transports = {}
                for (x, y), edges in _edges_by_pair(rep).items():
                    for z1 in edges:
                        for z2 in edges:
                            transports[(x, y, z1, z2)] = transport_T(lad, z1, z2, sb)
                for f in fields:
                    for (x, y, z1, z2), tm in transports.items():
                        got = tm @ f.vec[sb.block_slices[x]]
                        want = f.vec[sb.block_slices[y]] if z1 == z2 else 0 * got
                        worst_t = max(worst_t, float(np.max(np.abs(got - want))))
                    for i_x, x in enumerate(v0):
                        probe = np.zeros(sb.dim, dtype=complex)
                        sx = sb.block_slices[x]
                        probe[sx] = f.vec[sx]
                        out = ot @ probe
                        for i_y, y in enumerate(v0):
                            sy = sb.block_slices[y]
                            want = s.fd.m_table[a][i_x, i_y] * f.vec[sy]
                            worst_o = max(worst_o, float(np.max(np.abs(out[sy] - want))))
            for f in fields:
                weighted = mu_vec * f.vec
                worst_p = max(worst_p, float(np.max(np.abs(pt.matrix @ weighted - weighted))))
    assert worst_t < tol and worst_o < tol and worst_p < tol
    print(f"\n[criterion 7] flatness relations on solved fields (all builders, "
          f"k <= 2): transports {worst_t:.2e}, operator action {worst_o:.2e}, "
          f"weighted fixed point {worst_p:.2e}, all < {tol:g}  PASS")


def test_criterion_08_convergence_diagnostics(systems):
    s3 = systems("dynkin:A3")
    worst_exact = 0.0
    for n in range(1, 7):
        st = sector_statistics(s3.fd, s3.wn, n)
        for x in s3.fd.v0:
            worst_exact = max(worst_exact, abs(st.kappa[x] - 1 / math.sqrt(2)))
        for a in s3.fd.labels:
            worst_exact = max(worst_exact, abs(st.lam[a] - 1 / math.sqrt(2)))
    assert worst_exact < 1e-12

    s4 = systems("dynkin:A4")
    sqw = math.sqrt(s4.fd.w)
    st10 = sector_statistics(s4.fd, s4.wn, 10)
    kappa_dev = max(abs(st10.kappa[x] - s4.fd.mu[x] / sqw) for x in s4.fd.v0)
    st6 = sector_statistics(s4.fd, s4.wn, 6)
    lam_dev = max(abs(st6.lam[a] - s4.fd.d[a] / sqw) for a in s4.fd.labels)
    assert kappa_dev < 1e-3 and lam_dev < 1e-2
    print(f"\n[criterion 8] profiles: A3 exact to {worst_exact:.2e} < 1e-12; "
          f"A4 path profile at n=10 off by {kappa_dev:.2e} < 1e-3, power profile "
          f"at n=6 off by {lam_dev:.2e} < 1e-2  PASS")


def test_criterion_09_jones_projections(systems, bases_for):
    tol = 1e-10
    worst = 0.0
    checked = []
    for name in ["dynkin:A3", "dynkin:A4", "dynkin:A5", "dynkin:A6", "dynkin:A7"]:
        s = systems(name)
        g1 = s.wn.gamma[0]
        for k in (2, 3, 4):
            sb, _ = bases_for(name, k)
            es = [jones_projection(s.wn.top, s.wn.mu, g1, i, k, sb)
                  for i in range(1, k)]
            for i, e in enumerate(es):
                worst = max(worst, float(np.max(np.abs((e @ e - e).vec))))
                worst = max(worst, float(np.max(np.abs((e.star() - e).vec))))
                if i + 1 < len(es):
                    worst = max(worst, float(np.max(np.abs(
                        (es[i] @ es[i + 1] @ es[i] - (g1 ** -2) * es[i]).vec))))
                for j in range(i + 2, len(es)):
                    worst = max(worst, float(np.max(np.abs(
                        (es[i] @ es[j] - es[j] @ es[i]).vec))))
            span = jones_span_dimension(s.wn.top, s.wn.mu, g1, s.fd.w, k, sb)
            rank = operator_rank(pmpo_P(s.fd, s.reps, k, sb))
            assert span == rank, (name, k, span, rank)
            checked.append((name, k))
    assert worst < tol
    print(f"\n[criterion 9] Temperley-Lieb relations to {worst:.2e} < {tol:g} and "
          f"span == projector rank on {len(checked)} (diagram, k) pairs  PASS")


def test_criterion_10_conditional_expectation():
    rng = np.random.default_rng(97)
    diagrams = [random_diagram(rng) for _ in range(5)]
    worst_idem = worst_tr = worst_comm = 0.0
    count = 0
    for d in diagrams:
        weights = random_trace(rng, d)
        units = [embed_level_one(d, e1, e2)
                 for e1, v1 in d.level1 for e2, v2 in d.level1 if v1 == v2]
        for _ in range(20):
            count += 1
            el = StringElement2(d, rng.standard_normal(d.dim)
                                + 1j * rng.standard_normal(d.dim))
            ex = conditional_expectation(d, el)
            worst_idem = max(worst_idem, float(np.max(np.abs(
                conditional_expectation(d, ex).vec - ex.vec))))
            worst_tr = max(worst_tr, abs(el.trace(weights) - ex.trace(weights)))
            for b in units[:8]:
                worst_comm = max(worst_comm, float(np.max(np.abs(
                    ((ex @ b) - (b @ ex)).vec))))
            n_all = el.norm2(weights)
            eps = abs(n_all - ex.norm2(weights)) / n_all
            if eps < 1:
                assert (el - ex).norm2(weights) <= (2 * eps) ** 0.5 * n_all + 1e-10
    assert count == 100
    assert worst_idem < 1e-10 and worst_tr < 1e-10 and worst_comm < 1e-10
    print(f"\n[criterion 10] conditional expectation on {count} elements over "
          f"5 diagrams: idempotency {worst_idem:.2e}, trace preservation "
          f"{worst_tr:.2e}, commutation {worst_comm:.2e}; two-norm gap bound "
          f"holds  PASS")


def test_criterion_11_determinism(capsys):
    def report(command, seed):
        code = cli_main([command, "--builtin", "dynkin A4", "-k", "2",
                         "--format", "json", "--seed", str(seed)]
                        if command == "verify-theorem" else
                        [command, "--builtin", "dynkin A4",
                         "--format", "json", "--seed", str(seed)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("seed")  # provenance carries the seed itself
        return json.dumps(doc, sort_keys=True)

    for command in ("decompose", "verify-theorem"):
        texts = {report(command, seed) for seed in (0, 1, 2)}
        assert len(texts) == 1, command

    profiles = []
    for seed in (0, 1, 2):
        fd, _, _ = discover_irreducibles(make_builder("dynkin:A6"), seed=seed)
        profiles.append(sorted((round(fd.d[a], 9), fd.m_table[a].tobytes())
                               for a in fd.labels))
    assert profiles[0] == profiles[1] == profiles[2]
    with capsys.disabled():
        print("\n[criterion 11] decompose and verify-theorem reports byte-identical "
              "across 3 seeds (outside the provenance seed field); class profile "
              "multiset invariant  PASS")
