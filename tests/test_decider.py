import itertools
import random
from fractions import Fraction

import networkx as nx
import pytest

from suspmix.exact import QVector, RealBasis, setwise_commensurate
from suspmix.decider import (
    CohomologyResult,
    HypothesisError,
    MixingVerdict,
    ShiftOracle,
    approximate_locally_constant,
    are_cohomologous,
    cycle_data,
    decide_mixing_sft,
    decide_mixing_synchronized,
    normalize_to_delta_grid,
    periodic_obstruction,
    periodic_words_in_cylinder,
    unit_cross_section,
    weigh_windows,
)
from suspmix.roofs import (
    LocallyConstantRoof,
    WeightedShift,
    birkhoff_sum,
    example_roof_harmonic,
)
from suspmix.shift import (
    Alphabet,
    EdgeShift,
    EventuallyPeriodicPoint,
    Word,
    admissible_words,
    base_period,
    full_shift,
    higher_block_recode,
    sft_from_forbidden_words,
)

from reference import cycles_up_to

BINARY = Alphabet.of_size(2)
RATIONAL = RealBasis.rational()
ALPHA = RealBasis.with_constants(("alpha", 1.6180339887498949))


def roof_two_three():
    return LocallyConstantRoof.from_symbols(
        {0: RATIONAL.from_rational(2), 1: RATIONAL.from_rational(3)}
    )


def mixing_roof():
    """1 on [0], alpha on [1]: rank-2 periodic spectrum on the full shift."""
    return LocallyConstantRoof.from_symbols({0: ALPHA.unit(0), 1: ALPHA.unit(1)})


def roof_weights(roof, shift):
    """The weighted presentation that decide_mixing_sft reads."""
    depth = roof.past + roof.future
    return weigh_windows(*higher_block_recode(shift, depth), depth + 1, roof.value_on_window)


def closed_walk_gcd(weighted, max_len):
    """Brute-force oracle: grid of all closed-walk weight sums.

    Dynamic programming over (current vertex, accumulated sum) from each
    start vertex; the set of achievable sums stays small because weights
    are small integers.
    """
    shift = weighted.shift
    sums = set()
    for start in shift.vertices:
        frontier = {(start, weighted.weights[0].basis.zero())}
        for _ in range(max_len):
            nxt = set()
            for v, acc in frontier:
                for i in shift.out_edges(v):
                    e = shift.edges[i]
                    nxt.add((e.target, acc + weighted.weights[i]))
            frontier = nxt
            sums.update(acc for v, acc in frontier if v == start)
    return setwise_commensurate(sorted(sums, key=float))


class TestCycleData:
    def test_telescoping(self):
        weighted = roof_weights(roof_two_three(), full_shift(BINARY))
        data = cycle_data(weighted)
        for cyc in cycles_up_to(weighted.shift, 6):
            walk_sum = RATIONAL.zero()
            cycle_sum = RATIONAL.zero()
            for i in cyc:
                walk_sum = walk_sum + weighted.weights[i]
                cycle_sum = cycle_sum + data.cycle_values[i]
            assert walk_sum == cycle_sum

    def test_tree_edges_vanish(self):
        weighted = roof_weights(roof_two_three(), full_shift(BINARY))
        data = cycle_data(weighted)
        zeros = [c for c in data.cycle_values if c.is_zero()]
        assert len(zeros) == len(weighted.shift.vertices) - 1

    def test_two_cycle(self):
        ab = RealBasis.with_constants(("a", 1.2599210498948732), ("b", 1.4422495703074083))
        shift = EdgeShift([0, 1], [(0, 1, 1), (1, 0, 0)], BINARY)
        weighted = WeightedShift(shift, (ab.unit(1), ab.unit(2)), {})
        data = cycle_data(weighted)
        nonzero = data.nonzero_cycle_values()
        assert len(nonzero) == 1
        assert nonzero[0] == ab.unit(1) + ab.unit(2)

    def test_constant_weights(self):
        c = RATIONAL.from_rational(Fraction(3, 2))
        weighted = roof_weights(
            LocallyConstantRoof.constant(c, BINARY), full_shift(BINARY)
        )
        data = cycle_data(weighted)
        assert setwise_commensurate(data.nonzero_cycle_values()) == c

    def test_matches_closed_walk_oracle(self):
        weighted = roof_weights(roof_two_three(), full_shift(BINARY))
        data = cycle_data(weighted)
        assert setwise_commensurate(data.nonzero_cycle_values()) == closed_walk_gcd(
            weighted, 8
        )


def random_weighted_graph(rng):
    n = rng.randint(2, 6)
    vertices = list(range(n))
    order = vertices[:]
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n], 0) for i in range(n)]
    for _ in range(rng.randint(0, 12 - n)):
        edges.append((rng.choice(vertices), rng.choice(vertices), 0))
    shift = EdgeShift(vertices, edges, Alphabet.of_size(1))
    weights = tuple(
        RATIONAL.from_rational(rng.randint(1, 9)) for _ in shift.edges
    )
    return WeightedShift(shift, weights, {})


class TestOracleEquivalence:
    def test_random_graphs(self):
        rng = random.Random(20250824)
        for _ in range(10):
            weighted = random_weighted_graph(rng)
            data = cycle_data(weighted)
            delta = setwise_commensurate(data.nonzero_cycle_values())
            assert delta == closed_walk_gcd(weighted, 12)


class TestDecideSft:
    def test_integer_roof_not_mixing(self):
        verdict = decide_mixing_sft(full_shift(BINARY), roof_two_three())
        assert verdict.kind == "NotTopMixing"
        assert verdict.delta == RATIONAL.from_rational(1)

    def test_constant_roof(self):
        c = RATIONAL.from_rational(Fraction(7, 2))
        shift = sft_from_forbidden_words(BINARY, [Word.parse("11")])
        verdict = decide_mixing_sft(shift, LocallyConstantRoof.constant(c, BINARY))
        assert verdict.kind == "NotTopMixing"
        assert verdict.delta == c

    def test_rank_two_roof_mixes(self):
        verdict = decide_mixing_sft(full_shift(BINARY), mixing_roof())
        assert verdict.kind == "TopMixing"

    def test_not_transitive_unknown(self):
        shift = EdgeShift([0, 1], [(0, 0, 0), (1, 1, 1)], BINARY)
        verdict = decide_mixing_sft(shift, roof_two_three())
        assert verdict.kind == "Unknown"

    def test_single_orbit_warns(self):
        shift = EdgeShift([0, 1], [(0, 1, 1), (1, 0, 0)], BINARY)
        verdict = decide_mixing_sft(shift, roof_two_three())
        assert verdict.kind == "NotTopMixing"
        assert "single periodic orbit" in verdict.reason

    def test_invariant_under_relabeling(self):
        shift = sft_from_forbidden_words(BINARY, [Word.parse("11")])
        renamed = EdgeShift(
            ["x" + str(v) for v in shift.vertices],
            [("x" + str(e.source), "x" + str(e.target), e.label) for e in shift.edges],
            BINARY,
        )
        r = roof_two_three()
        v1, v2 = decide_mixing_sft(shift, r), decide_mixing_sft(renamed, r)
        assert v1.kind == v2.kind and v1.delta == v2.delta

    def test_invariant_under_recode(self):
        shift = sft_from_forbidden_words(BINARY, [Word.parse("11")])
        recoded, _ = higher_block_recode(shift, 2)
        r = roof_two_three()
        v1, v2 = decide_mixing_sft(shift, r), decide_mixing_sft(recoded, r)
        assert v1.kind == v2.kind and v1.delta == v2.delta

    def test_cohomology_invariance(self):
        shift = full_shift(BINARY)
        r = roof_two_three()
        g = {0: RATIONAL.from_rational(Fraction(1, 4)), 1: RATIONAL.zero()}
        perturbed = LocallyConstantRoof.from_function(
            0,
            1,
            lambda w: r.value_on_window(w[0:1]) + g[w[1]] - g[w[0]],
            shift,
        )
        v1, v2 = decide_mixing_sft(shift, r), decide_mixing_sft(shift, perturbed)
        assert v1.kind == v2.kind and v1.delta == v2.delta


class TestDecideSynchronized:
    def test_full_shift_oracle(self):
        oracle = ShiftOracle.from_edge_shift(full_shift(BINARY))
        verdict = decide_mixing_synchronized(
            oracle, Word.parse("0"), roof_two_three(), 4
        )
        assert verdict.kind == "NotMixingUpToBound"
        assert verdict.delta == RATIONAL.from_rational(1)
        assert verdict.bound == 4

    def test_rank_two_certifies_mixing(self):
        oracle = ShiftOracle.from_edge_shift(full_shift(BINARY))
        verdict = decide_mixing_synchronized(oracle, Word.parse("0"), mixing_roof(), 3)
        assert verdict.kind == "TopMixing"

    def test_no_orbit_found(self):
        # golden mean: no periodic point through 1 of period 1
        oracle = ShiftOracle.from_edge_shift(
            sft_from_forbidden_words(BINARY, [Word.parse("11")])
        )
        verdict = decide_mixing_synchronized(
            oracle, Word.parse("11"), roof_two_three(), 4
        )
        assert verdict.kind == "Unknown"

    def test_periodic_words_respect_cylinder(self):
        oracle = ShiftOracle.from_edge_shift(
            sft_from_forbidden_words(BINARY, [Word.parse("11")])
        )
        words = periodic_words_in_cylinder(oracle, Word.parse("0"), 4)
        for w in words:
            repeated = w * (4 // len(w) + 1)
            assert repeated[0] == 0


class TestCohomology:
    def test_roof_vs_smaller_constant(self):
        shift = full_shift(BINARY)
        const2 = LocallyConstantRoof.constant(RATIONAL.from_rational(2), BINARY)
        result = are_cohomologous(roof_two_three(), const2, shift)
        assert not result.cohomologous
        assert result.witness_orbit is not None
        obstruction = periodic_obstruction(roof_two_three(), const2, result.witness_orbit)
        assert not obstruction.is_zero()

    def test_roof_vs_itself(self):
        shift = full_shift(BINARY)
        r = roof_two_three()
        result = are_cohomologous(r, r, shift)
        assert result.cohomologous and result.transfer.is_zero()

    def test_roof_vs_shifted_roof(self):
        shift = full_shift(BINARY)
        r = roof_two_three()
        shifted = LocallyConstantRoof.from_function(
            0, 1, lambda w: r.value_on_window(w[1:2]), shift
        )
        result = are_cohomologous(r, shifted, shift)
        assert result.cohomologous
        # verify r - r∘σ = g∘σ - g on sample points
        g = result.transfer
        for w in admissible_words(shift, 6):
            p = EventuallyPeriodicPoint.periodic(w)
            lhs = r.value_at(p, 0) - shifted.value_at(p, 0)
            rhs = g.value_at(p, 1) - g.value_at(p, 0)
            assert (lhs - rhs).is_zero()

    def test_obstruction_values(self):
        r = roof_two_three()
        const2 = LocallyConstantRoof.constant(RATIONAL.from_rational(2), BINARY)
        one_bar = EventuallyPeriodicPoint.periodic(Word.parse("1"))
        assert periodic_obstruction(r, const2, one_bar) == RATIONAL.from_rational(1)
        assert periodic_obstruction(r, r, one_bar).is_zero()
        const52 = LocallyConstantRoof.constant(
            RATIONAL.from_rational(Fraction(5, 2)), BINARY
        )
        zo = EventuallyPeriodicPoint.periodic(Word.parse("01"))
        assert periodic_obstruction(r, const52, zo).is_zero()
        zero_bar = EventuallyPeriodicPoint.periodic(Word.parse("0"))
        assert periodic_obstruction(r, const52, zero_bar) == RATIONAL.from_rational(
            Fraction(-1, 2)
        )

    def test_livsic_forward_direction(self):
        shift = sft_from_forbidden_words(BINARY, [Word.parse("11")])
        r = LocallyConstantRoof.from_symbols(
            {0: RATIONAL.from_rational(1), 1: RATIONAL.from_rational(2)}
        )
        g = {0: RATIONAL.from_rational(Fraction(1, 8)), 1: RATIONAL.zero()}
        s = LocallyConstantRoof.from_function(
            0,
            1,
            lambda w: r.value_on_window(w[0:1]) + g[w[1]] - g[w[0]],
            shift,
        )
        result = are_cohomologous(r, s, shift)
        assert result.cohomologous
        oracle = ShiftOracle.from_edge_shift(shift)
        for q in range(1, 9):
            for w in periodic_words_in_cylinder(oracle, Word(), q):
                if len(w) != q:
                    continue
                p = EventuallyPeriodicPoint.periodic(w)
                assert periodic_obstruction(r, s, p).is_zero()


class TestNormalize:
    def test_already_on_grid(self):
        shift = full_shift(BINARY)
        delta = RATIONAL.from_rational(1)
        norm = normalize_to_delta_grid(shift, roof_two_three(), delta)
        assert norm.delta == delta
        assert norm.transfer.is_zero()
        values = {float(v) for v in norm.roof.values()}
        assert values == {2.0, 3.0}

    def test_half_integer_two_cycle(self):
        shift = EdgeShift([0, 1], [(0, 1, 1), (1, 0, 0)], BINARY)
        roof = LocallyConstantRoof.from_symbols(
            {
                1: RATIONAL.from_rational(Fraction(3, 2)),
                0: RATIONAL.from_rational(Fraction(5, 2)),
            }
        )
        delta = RATIONAL.from_rational(1)
        norm = normalize_to_delta_grid(shift, roof, delta)
        for v in norm.roof.values():
            q = v.ratio_to(delta)
            assert q is not None and q.denominator == 1 and q >= 1
        p = EventuallyPeriodicPoint.periodic(Word.parse("10"))
        assert birkhoff_sum(norm.roof, p, 2) == RATIONAL.from_rational(4)

    def test_constant_roof(self):
        c = RATIONAL.from_rational(Fraction(5, 3))
        shift = full_shift(BINARY)
        norm = normalize_to_delta_grid(shift, LocallyConstantRoof.constant(c, BINARY), c)
        assert norm.transfer.is_zero()
        assert all(v == c for v in norm.roof.values())
        # c is not strictly below the minimum roof value, so it was shrunk
        assert float(norm.delta) < float(c)

    def test_shrinks_oversized_delta(self):
        shift = full_shift(BINARY)
        delta = RATIONAL.from_rational(Fraction(1, 2))
        roof = LocallyConstantRoof.from_symbols(
            {
                0: RATIONAL.from_rational(Fraction(1, 2)),
                1: RATIONAL.from_rational(Fraction(3, 2)),
            }
        )
        norm = normalize_to_delta_grid(shift, roof, delta)
        assert float(norm.delta) < 0.5
        for v in norm.roof.values():
            q = v.ratio_to(norm.delta)
            assert q is not None and q.denominator == 1 and q >= 1

    def test_rejects_non_dividing_delta(self):
        shift = full_shift(BINARY)
        with pytest.raises(HypothesisError):
            normalize_to_delta_grid(
                shift, roof_two_three(), RATIONAL.from_rational(Fraction(2, 3))
            )

    def test_coboundary_identity(self):
        shift = full_shift(BINARY)
        roof = roof_two_three()
        norm = normalize_to_delta_grid(shift, roof, RATIONAL.from_rational(1))
        g, s = norm.transfer, norm.roof
        for w in admissible_words(shift, 8):
            p = EventuallyPeriodicPoint.periodic(w)
            lhs = s.value_at(p, 0)
            rhs = roof.value_at(p, 0) - g.value_at(p, 0) + g.value_at(p, 1)
            assert (lhs - rhs).is_zero()


class TestUnitCrossSection:
    def test_running_example_matches_reference_graph(self):
        shift = full_shift(BINARY)
        section = unit_cross_section(shift, roof_two_three(), RATIONAL.from_rational(1))
        assert len(section.vertices) == 5 and len(section.edges) == 7
        reference = nx.DiGraph(
            [("A", "B"), ("B", "A"), ("B", "C"), ("C", "D"), ("D", "E"),
             ("E", "A"), ("E", "C")]
        )
        got = nx.DiGraph((e.source, e.target) for e in section.edges)
        assert nx.is_isomorphic(got, reference)
        assert base_period(section) == 1

    def test_constant_roof_unchanged(self):
        shift = full_shift(BINARY)
        c = RATIONAL.from_rational(Fraction(4, 3))
        section = unit_cross_section(shift, LocallyConstantRoof.constant(c, BINARY), c)
        assert section is shift

    def test_single_loop_weight_three(self):
        shift = full_shift(Alphabet.of_size(1))
        roof = LocallyConstantRoof.constant(RATIONAL.from_rational(3), Alphabet.of_size(1))
        section = unit_cross_section(shift, roof, RATIONAL.from_rational(1))
        assert len(section.vertices) == 3 and base_period(section) == 3

    def test_rejects_off_grid_weights(self):
        shift = full_shift(BINARY)
        with pytest.raises(HypothesisError):
            unit_cross_section(
                shift, roof_two_three(), RATIONAL.from_rational(Fraction(3, 4))
            )


class TestApproximate:
    def test_harmonic_samples(self):
        roof = example_roof_harmonic()
        shift = full_shift(BINARY)
        samples = {}
        for w in admissible_words(shift, 3):
            x = EventuallyPeriodicPoint.from_parts(Word.parse("1"), w, Word.parse("1"), 0)
            samples[w] = roof.value_at(x, 0)
        approx = approximate_locally_constant(samples, 0.01)
        for w, v in samples.items():
            assert abs(float(approx.value_on_window(w)) - v) <= 0.01
        verdict = decide_mixing_sft(shift, approx)
        assert verdict.kind == "NotTopMixing"

    def test_constant_rational_samples(self):
        samples = {Word.parse("0"): 1.5, Word.parse("1"): 1.5}
        approx = approximate_locally_constant(samples, 0.25)
        assert all(float(v) == 1.5 for v in approx.values())

    def test_mixing_roof_has_non_mixing_neighbors(self):
        samples = {Word.parse("0"): 1.0, Word.parse("1"): 1.6180339887498949}
        approx = approximate_locally_constant(samples, 0.001)
        for w, v in samples.items():
            assert abs(float(approx.value_on_window(w)) - v) <= 0.001
        verdict = decide_mixing_sft(full_shift(BINARY), approx)
        assert verdict.kind == "NotTopMixing"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            approximate_locally_constant({Word.parse("0"): -1.0, Word.parse("1"): 1.0}, 0.1)
