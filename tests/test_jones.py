"""Temperley-Lieb idempotents in the string spaces of the path diagrams."""

import numpy as np
import pytest

from biunitary import (
    TraceData,
    jones_projection,
    jones_span_dimension,
    operator_rank,
    pmpo_P,
)

from conftest import ALL_BUILDERS
from string_oracles import ranked_span_dimension


@pytest.fixture(scope="module", params=["dynkin:A3", "dynkin:A4", "dynkin:A5",
                                        "dynkin:A6", "dynkin:A7"])
def tl_setup(request, systems, bases_for):
    s = systems(request.param)
    return s


def build_projections(s, sb, k):
    g1 = s.wn.gamma[0]
    return [jones_projection(s.wn.top, s.wn.mu, g1, i, k, sb) for i in range(1, k)]


class TestRelations:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_defining_relations(self, tl_setup, bases_for, k):
        s = tl_setup
        sb, _ = bases_for(s.name, k)
        es = build_projections(s, sb, k)
        g1 = s.wn.gamma[0]
        for i, e in enumerate(es):
            assert np.max(np.abs((e @ e - e).vec)) < 1e-10
            assert np.max(np.abs((e.star() - e).vec)) < 1e-10
            if i + 1 < len(es):
                both = es[i] @ es[i + 1] @ es[i] - (g1 ** -2) * es[i]
                assert np.max(np.abs(both.vec)) < 1e-10
                back = es[i + 1] @ es[i] @ es[i + 1] - (g1 ** -2) * es[i + 1]
                assert np.max(np.abs(back.vec)) < 1e-10
            for j in range(i + 2, len(es)):
                comm = es[i] @ es[j] - es[j] @ es[i]
                assert np.max(np.abs(comm.vec)) < 1e-10

    def test_markov_trace(self, tl_setup, bases_for):
        s = tl_setup
        sb, _ = bases_for(s.name, 2)
        tr = TraceData(sb, s.wn.mu, s.wn.gamma[0], s.fd.w)
        (e1,) = build_projections(s, sb, 2)
        assert abs(tr.trace(e1) - s.wn.gamma[0] ** -2) < 1e-12

    def test_position_out_of_range(self, tl_setup, bases_for):
        s = tl_setup
        sb, _ = bases_for(s.name, 2)
        with pytest.raises(ValueError):
            jones_projection(s.wn.top, s.wn.mu, s.wn.gamma[0], 2, 2, sb)


class TestSpan:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_span_dimension_matches_projector_rank(self, tl_setup, bases_for, k):
        s = tl_setup
        sb, lb = bases_for(s.name, k)
        span = jones_span_dimension(s.wn.top, s.wn.mu, s.wn.gamma[0], s.fd.w, k, sb)
        rank = operator_rank(pmpo_P(s.fd, s.reps, k, lb))
        assert span == rank


@pytest.mark.parametrize("name", ALL_BUILDERS)
def test_span_dimension_matches_the_ranked_oracle(systems, bases_for, name):
    s = systems(name)
    for k in (2, 3, 4):
        sb, _ = bases_for(name, k)
        args = (s.wn.top, s.wn.mu, s.wn.gamma[0], s.fd.w, k, sb)
        assert jones_span_dimension(*args) == ranked_span_dimension(*args), k
