"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single pass/fail line (with its runtime) directly to
the terminal and enforces its time budget.
"""

import contextlib
import random
import time
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from suspmix.decider import (
    are_cohomologous,
    approximate_locally_constant,
    decide_mixing_sft,
    decide_mixing_synchronized,
    normalize_to_delta_grid,
    periodic_obstruction,
    unit_cross_section,
)
from suspmix.exact import RealBasis, setwise_commensurate, span_rank
from suspmix.roofs import (
    EvaluableRoof,
    LocallyConstantRoof,
    WeightedShift,
    birkhoff_sum,
    example_roof_harmonic,
    walters_norm,
)
from suspmix.shift import (
    Alphabet,
    EdgeShift,
    EventuallyPeriodicPoint,
    Word,
    admissible_words,
    base_period,
    full_shift,
    is_transitive,
    is_word_admissible,
    sft_from_forbidden_words,
)
from suspmix.simulate import (
    SuspensionPoint,
    density_diagnostic,
    hitting_times,
    orbit_period,
    witness_family,
)
from suspmix.special import (
    BetaShift,
    CodedGenerator,
    balanced_oracle,
    beta_expansion_of_one,
    build_beta_graph,
    coded_periodic_in_cylinder,
    decide_mixing_beta,
    example_roof_coded,
    find_connector,
    two_orbit_is_admissible,
    two_orbit_periodic_words,
    two_orbit_shift_words,
)

BINARY = Alphabet.of_size(2)
RATIONAL = RealBasis.rational()


@contextlib.contextmanager
def criterion(capsys, number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(
                "[FAIL] %s: %s"
                % ("criterion %d" % number if number else "addendum", description)
            )
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL"
    label = "criterion %d" % number if number else "addendum"
    with capsys.disabled():
        print(
            "[%s] %s: %s (%.2fs, budget %gs)"
            % (status, label, description, elapsed, budget_seconds)
        )
    assert elapsed < budget_seconds


def test_criterion_1_running_example_end_to_end(capsys):
    with criterion(capsys, 1, "integer-roof example end to end", 1.0):
        shift = full_shift(BINARY)
        roof = LocallyConstantRoof.from_symbols(
            {0: RATIONAL.from_rational(2), 1: RATIONAL.from_rational(3)}
        )
        verdict = decide_mixing_sft(shift, roof)
        assert verdict.kind == "NotTopMixing"
        one = RATIONAL.from_rational(1)
        assert verdict.delta == one
        s = normalize_to_delta_grid(shift, roof, one).roof
        assert {v.render() for v in s.table.values()} == {"2", "3"}
        for v in s.table.values():
            q = v.ratio_to(one)
            assert q is not None and q.denominator == 1
        section = unit_cross_section(shift, roof, one)
        assert len(section.vertices) == 5 and len(section.edges) == 7
        reference = nx.DiGraph(
            [("A", "B"), ("B", "A"), ("B", "C"), ("C", "D"), ("D", "E"),
             ("E", "A"), ("E", "C")]
        )
        got = nx.DiGraph((e.source, e.target) for e in section.edges)
        assert nx.is_isomorphic(got, reference)
        assert base_period(section) == 1


def test_criterion_2_coded_shift_spectrum(capsys):
    with criterion(capsys, 2, "coded shift: orbit sums, verdict, global rank", 5.0):
        basis = RealBasis.with_constants(("a", 1.4142135623730951), ("b", 2.718281828459045))
        roof = example_roof_coded(basis)
        a_plus_b = basis.unit(1) + basis.unit(2)
        gen = CodedGenerator.balanced_23()
        points = coded_periodic_in_cylinder(gen, Word([0]), 10)
        assert points
        for p in points:
            total = birkhoff_sum(roof, p, len(p.right_period))
            ratio = total.ratio_to(a_plus_b)
            assert ratio is not None and ratio.denominator == 1 and ratio >= 1
        verdict = decide_mixing_synchronized(balanced_oracle(), Word([0]), roof, 10)
        assert verdict.kind == "NotMixingUpToBound"
        assert verdict.delta == a_plus_b
        spectrum = [
            birkhoff_sum(roof, EventuallyPeriodicPoint.periodic(Word.parse(t)), len(t))
            for t in ("2", "3")
        ]
        assert span_rank(spectrum) == 2


def test_criterion_3_harmonic_witness_and_residues(capsys):
    with criterion(capsys, 3, "harmonic witnesses: formula and residue density", 30.0):
        roof = example_roof_harmonic()
        u, v = Word.parse("01"), Word.parse("10")
        for m in range(1, 31):
            for n in range(1, 31):
                core = u + Word.parse("1") + Word([0]) * m + Word([1]) * n
                x = EventuallyPeriodicPoint.from_parts(v, core, v, 0)
                start = birkhoff_sum(roof, x, len(u) + 1)
                expected = start + m + n + sum(1.0 / j for j in range(2, m + 2))
                got = birkhoff_sum(roof, x, len(u) + 1 + m + n)
                assert abs(got - expected) < 1e-9

        m_max = 5000
        family = [
            SuspensionPoint(x)
            for x in witness_family(
                None, v, u + Word.parse("1"), Word.parse("0"), Word.parse("1"), v,
                range(1, m_max + 1), [1],
            )
        ]
        omega = orbit_period(roof, v)
        series = hitting_times(
            family, v, 0.01, roof, 10_000.0, omega=omega,
            max_hits_per_member=1, tail_only=True,
        )
        assert len(series.times) == m_max
        diag = density_diagnostic(series)

        # independent oracle: residues of omega(u1) + m + 1 + sum 1/j mod omega
        ms = np.arange(1, m_max + 1)
        harmonic = np.cumsum(1.0 / np.arange(2, m_max + 2))
        prefix_time = float(birkhoff_sum(roof, family[0].base, len(u) + 1))
        oracle_times = prefix_time + ms + 1 + harmonic
        residues = np.sort(oracle_times % omega)
        gaps = np.diff(residues)
        oracle_gap = float(max(gaps.max(), omega - residues[-1] + residues[0]))
        assert diag.max_gap <= oracle_gap + 1e-9
        assert oracle_gap < 1e-2


def closed_walk_gcd(weighted: WeightedShift, max_len: int):
    """Brute-force grid of all closed-walk weight sums, by (vertex, sum) DP."""
    shift = weighted.shift
    sums = set()
    for start in shift.vertices:
        frontier = {(start, weighted.weights[0].basis.zero())}
        for _ in range(max_len):
            nxt = set()
            for vertex, acc in frontier:
                for i in shift.out_edges(vertex):
                    e = shift.edges[i]
                    nxt.add((e.target, acc + weighted.weights[i]))
            frontier = nxt
            sums.update(acc for vertex, acc in frontier if vertex == start)
    return setwise_commensurate(sorted(sums, key=float))


def random_weighted_graph(rng: random.Random) -> WeightedShift:
    n = rng.randint(2, 6)
    vertices = list(range(n))
    order = vertices[:]
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n], 0) for i in range(n)]
    for _ in range(rng.randint(0, 12 - n)):
        edges.append((rng.choice(vertices), rng.choice(vertices), 0))
    shift = EdgeShift(vertices, edges, Alphabet.of_size(1))
    weights = tuple(RATIONAL.from_rational(rng.randint(1, 9)) for _ in shift.edges)
    return WeightedShift(shift, weights, {})


def test_criterion_4_cycle_gcd_oracle_equivalence(capsys):
    with criterion(capsys, 4, "spanning-tree grid = closed-walk gcd on 50 graphs", 60.0):
        from suspmix.decider import cycle_data

        rng = random.Random(20260824)
        for _ in range(50):
            weighted = random_weighted_graph(rng)
            data = cycle_data(weighted)
            delta = setwise_commensurate(data.nonzero_cycle_values())
            assert delta == closed_walk_gcd(weighted, 12)


def random_sft(rng: random.Random) -> EdgeShift:
    while True:
        forbidden = Word([rng.randint(0, 1) for _ in range(rng.randint(2, 3))])
        try:
            shift = sft_from_forbidden_words(BINARY, [forbidden])
        except Exception:
            continue
        if is_transitive(shift) and len(shift.edges) > len(shift.vertices):
            return shift


def random_triple(rng: random.Random):
    """A random (SFT, roof, symbol-potential) triple with a positive perturbation."""
    shift = random_sft(rng)
    past, future = rng.choice([(0, 0), (0, 1), (1, 0)])
    roof = LocallyConstantRoof.from_function(
        past, future,
        lambda w: RATIONAL.from_rational(1 + Fraction(rng.randint(1, 6), rng.randint(1, 3))),
        shift,
    )
    g = {s: RATIONAL.from_rational(Fraction(rng.randint(-2, 2), 8)) for s in (0, 1)}
    perturbed = LocallyConstantRoof.from_function(
        past, future + 1,
        lambda w: roof.value_on_window(w[: len(w) - 1]) + g[w[-1]] - g[w[past]],
        shift,
    )
    return shift, roof, g, perturbed


def test_criterion_5_cohomology_invariance(capsys):
    with criterion(capsys, 5, "verdict invariance and transfer recovery, 25 triples", 60.0):
        rng = random.Random(20260825)
        for _ in range(25):
            shift, roof, g, perturbed = random_triple(rng)
            v1 = decide_mixing_sft(shift, roof)
            v2 = decide_mixing_sft(shift, perturbed)
            assert v1.kind == v2.kind and v1.delta == v2.delta
            result = are_cohomologous(perturbed, roof, shift)
            assert result.cohomologous
            transfer = result.transfer
            width = max(
                roof.past + roof.future + 2,
                transfer.past + transfer.future + 2,
            )
            for w in admissible_words(shift, 2 * width + 2):
                if not is_word_admissible(shift, w * 3):
                    continue
                p = EventuallyPeriodicPoint.periodic(w)
                lhs = perturbed.value_at(p, 0) - roof.value_at(p, 0)
                rhs = transfer.value_at(p, 1) - transfer.value_at(p, 0)
                assert (lhs - rhs).is_zero()


def test_criterion_6_livsic_consistency(capsys):
    with criterion(capsys, 6, "periodic obstructions match cohomology verdicts", 60.0):
        from suspmix.decider import ShiftOracle, periodic_words_in_cylinder

        rng = random.Random(20260826)
        for _ in range(8):
            shift, roof, g, perturbed = random_triple(rng)
            result = are_cohomologous(perturbed, roof, shift)
            assert result.cohomologous
            oracle = ShiftOracle.from_edge_shift(shift)
            for w in periodic_words_in_cylinder(oracle, Word(), 8):
                if not is_word_admissible(shift, w * 4):
                    continue
                p = EventuallyPeriodicPoint.periodic(w)
                assert periodic_obstruction(perturbed, roof, p).is_zero()

            shifted_up = LocallyConstantRoof.from_function(
                roof.past, roof.future,
                lambda w: roof.value_on_window(w) + RATIONAL.from_rational(Fraction(1, 2)),
                shift,
            )
            result = are_cohomologous(shifted_up, roof, shift)
            assert not result.cohomologous
            witness = result.witness_orbit
            assert witness is not None
            assert not periodic_obstruction(shifted_up, roof, witness).is_zero()
            window = roof.past + roof.future + 1
            bound = len(shift.vertices) * len(admissible_words(shift, window)) + window
            assert witness.minimal_period() <= bound


def test_criterion_7_beta_shift(capsys):
    with criterion(capsys, 7, "golden beta-shift: expansion, language, verdicts", 5.0):
        golden = BetaShift.golden()
        assert beta_expansion_of_one(golden.beta, 5) == Word([1, 1, 0, 0, 0])
        graph = build_beta_graph(golden, 2)
        sft = sft_from_forbidden_words(BINARY, [Word.parse("11")])
        for n in range(1, 7):
            assert set(admissible_words(graph, n)) == set(admissible_words(sft, n))
        basis = RealBasis.with_constants(("alpha", 1.6180339887498949))
        roof = LocallyConstantRoof.from_symbols({0: basis.unit(0), 1: basis.unit(1)})
        assert decide_mixing_beta(golden, roof, 2, 6).kind == "TopMixing"
        constant = LocallyConstantRoof.constant(RATIONAL.from_rational(1), BINARY)
        verdict = decide_mixing_beta(golden, constant, 2, 6)
        assert verdict.kind == "NotMixingUpToBound"
        assert verdict.delta == RATIONAL.from_rational(1)


def test_criterion_8_two_orbit_shift(capsys):
    with criterion(capsys, 8, "two-orbit shift: periodic scan and connectors", 30.0):
        words = two_orbit_periodic_words(12)
        roots = set()
        for w in words:
            root = next(
                w[:d]
                for d in range(1, len(w) + 1)
                if len(w) % d == 0 and w[:d] * (len(w) // d) == w
            )
            rotations = {root[i:] + root[:i] for i in range(len(root))}
            roots.add(min(map(str, rotations)))
        assert roots == {"1", "01"}

        pool = [w for w in two_orbit_shift_words(6) if len(w) >= 2]
        rng = random.Random(20260827)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(5)]
        for u, v in pairs:
            for n in range(2, 21):
                w = find_connector(u, v, n)
                assert w is not None, (u, v, n)
                assert two_orbit_is_admissible(u + w + v)


def random_evaluable_roof(rng: random.Random) -> tuple[EvaluableRoof, dict]:
    depth = rng.randint(1, 3)
    table = {
        w: 1.0 + 2.0 * rng.random()
        for w in admissible_words(full_shift(BINARY), depth)
    }

    def evaluator(point):
        return table[Word(point[i] for i in range(depth))]

    roof = EvaluableRoof(
        evaluator=evaluator,
        walters_modulus=lambda k: 0.0 if k >= depth else 2.0,
        floor=1.0,
    )
    return roof, table


def test_criterion_9_dense_non_mixing_approximants(capsys):
    with criterion(capsys, 9, "non-mixing approximants at every precision", 60.0):
        rng = random.Random(20260828)
        for _ in range(10):
            roof, table = random_evaluable_roof(rng)
            samples = {w: roof.evaluator(list(w)) for w in table}
            for eps in (1e-1, 1e-2, 1e-3):
                approx = approximate_locally_constant(samples, eps)
                for w, value in samples.items():
                    assert abs(float(approx.value_on_window(w)) - value) <= eps
                verdict = decide_mixing_sft(full_shift(BINARY), approx)
                assert verdict.kind == "NotTopMixing"


def test_walters_norm_constant_exactness(capsys):
    with criterion(capsys, 0, "Walters norm of a constant roof is exactly 2c", 5.0):
        for value in (Fraction(1), Fraction(5, 2), Fraction(7, 3)):
            c = RATIONAL.from_rational(value)
            roof = LocallyConstantRoof.constant(c, BINARY)
            assert walters_norm(roof) == c.scale(2)
