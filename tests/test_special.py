import math
from fractions import Fraction

import pytest

from suspmix.exact import RealBasis
from suspmix.roofs import LocallyConstantRoof
from suspmix.shift import Alphabet, EventuallyPeriodicPoint, Word, admissible_words, sft_from_forbidden_words
from suspmix.special import (
    AperiodicSequence,
    BetaShift,
    CodedGenerator,
    NU_DIGITS,
    PrecisionError,
    QuadraticReal,
    _greedy_orbit,
    balanced_oracle,
    beta_expansion_of_one,
    build_beta_graph,
    coded_periodic_in_cylinder,
    decide_mixing_beta,
    example_roof_coded,
    find_connector,
    is_beta_admissible,
    two_orbit_is_admissible,
    two_orbit_periodic_admissible,
    two_orbit_periodic_words,
    two_orbit_shift_words,
)

from reference import two_orbit_parse

GOLDEN = QuadraticReal(Fraction(1, 2), Fraction(1, 2), 5)
# the 20-decimal truncation of sqrt(2), and the next 20-decimal number above it
SQRT2_BELOW = Fraction(math.isqrt(2 * 10**40), 10**20)
SQRT2_ABOVE = SQRT2_BELOW + Fraction(1, 10**20)


class TestQuadraticReal:
    def test_float_value(self):
        assert abs(float(GOLDEN) - (1 + math.sqrt(5)) / 2) < 1e-15

    def test_arithmetic(self):
        x = GOLDEN * GOLDEN - GOLDEN - 1  # the golden ratio satisfies x^2 = x + 1
        assert not x
        assert GOLDEN and QuadraticReal(0, 1, 2)

    def test_sign_exact_near_zero(self):
        # sqrt(2) - 1.41421356237 has sign decided exactly, not by floats
        tiny = QuadraticReal(Fraction(-141421356237, 10**11), 1, 2)
        assert tiny.sign() == 1
        assert (tiny * -1).sign() == -1

    def test_exact_floor(self):
        assert math.floor(GOLDEN) == 1
        assert math.floor(GOLDEN * GOLDEN) == 2
        assert math.floor(QuadraticReal(2, 0, 5)) == 2

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            GOLDEN + QuadraticReal(0, 1, 2)

    def test_square_d_rejected(self):
        with pytest.raises(ValueError):
            QuadraticReal(1, 1, 4)


class TestExpansionOfOne:
    def test_golden(self):
        assert beta_expansion_of_one(GOLDEN, 5) == Word([1, 1, 0, 0, 0])

    def test_integer_base(self):
        assert beta_expansion_of_one(2, 4) == Word([2, 0, 0, 0])

    def test_three_halves(self):
        got = beta_expansion_of_one(Fraction(3, 2), 9)
        assert got == Word([1, 0, 1, 0, 0, 0, 0, 0, 1])

    def test_stops_at_a_zero_remainder(self):
        # the orbit of 1 under the golden ratio reaches 0 after two digits
        nu, rest = _greedy_orbit(GOLDEN, 7)
        assert nu == Word([1, 1, 0, 0, 0, 0, 0]) and not rest
        # a rational base that is not an integer never reaches 0
        nu, rest = _greedy_orbit(Fraction(5, 2), 3)
        assert nu == Word([2, 1, 0]) and rest == Fraction(5, 8)

    @pytest.mark.parametrize("beta", [1, Fraction(9, 10), QuadraticReal(1, 0, 2),
                                      QuadraticReal(1 - SQRT2_ABOVE, 1, 2)])
    def test_beta_at_most_one_rejected(self, beta):
        with pytest.raises(ValueError):
            beta_expansion_of_one(beta, 3)

    def test_beta_just_above_one_is_read_exactly(self):
        # 1 + (sqrt(2) - SQRT2_BELOW) exceeds 1 by under 1e-20: its float is 1.0
        beta = QuadraticReal(1 - SQRT2_BELOW, 1, 2)
        assert float(beta) == 1.0
        assert beta_expansion_of_one(beta, 4) == Word([1, 0, 0, 0])


class TestBetaShift:
    def test_golden_is_simple(self):
        shift = BetaShift.golden()
        assert list(shift.nu[:5]) == [1, 1, 0, 0, 0]
        assert shift.exact_tail

    def test_only_a_zero_remainder_is_an_exact_tail(self):
        assert BetaShift.create(Fraction(3)).exact_tail
        assert not BetaShift.create(Fraction(5, 2)).exact_tail
        assert not BetaShift.create(QuadraticReal(0, 1, 2)).exact_tail  # sqrt(2)

    def test_golden_comparison_sequence(self):
        # the quasi-greedy expansion of 1, (10) repeated, governs admissibility
        shift = BetaShift.golden()
        assert [shift.bound_digit(i) for i in range(6)] == [1, 0, 1, 0, 1, 0]

    def test_unknown_tail_raises_past_prefix(self):
        shift = BetaShift.create(Fraction(9, 5))
        assert not shift.exact_tail
        shift.bound_digit(NU_DIGITS - 1)
        with pytest.raises(PrecisionError):
            shift.bound_digit(NU_DIGITS)

    def test_admissibility_words(self):
        shift = BetaShift.golden()
        assert not is_beta_admissible(Word.parse("11"), shift)
        assert is_beta_admissible(Word.parse("101010"), shift)
        assert is_beta_admissible(Word.parse("1001"), shift)
        assert not is_beta_admissible(Word.parse("0110"), shift)

    def test_admissibility_periodic_points(self):
        shift = BetaShift.golden()
        assert is_beta_admissible(EventuallyPeriodicPoint.periodic(Word.parse("10")), shift)
        assert not is_beta_admissible(EventuallyPeriodicPoint.periodic(Word.parse("11")), shift)

    @pytest.mark.parametrize("offset", [0, -3, -20, -60, -100, 7])
    def test_admissibility_reads_the_core_wherever_the_origin_lies(self, offset):
        shift = BetaShift.golden()
        zero = Word([0])
        point = EventuallyPeriodicPoint.from_parts(zero, Word([1, 1]), zero, offset)
        assert not is_beta_admissible(point, shift)
        point = EventuallyPeriodicPoint.from_parts(zero, Word([1, 0, 1]), zero, offset)
        assert is_beta_admissible(point, shift)


class TestBetaGraph:
    def test_golden_graph_is_no_11_sft(self):
        graph = build_beta_graph(BetaShift.golden(), 2)
        sft = sft_from_forbidden_words(Alphabet.of_size(2), [Word.parse("11")])
        for n in range(1, 7):
            assert set(admissible_words(graph, n)) == set(admissible_words(sft, n))

    def test_fall_edge_counts(self):
        # base 9/4 starts 2 0 1: two falls from V1, none from V2, one from V3
        shift = BetaShift.create(Fraction(9, 4))
        assert list(shift.nu[:3]) == [2, 0, 1]
        graph = build_beta_graph(shift, 3)
        assert len(graph.vertices) == 3
        falls = {
            v: sorted(e.label for e in graph.edges
                      if graph.names[e.source] == v and graph.names[e.target] == "V1")
            for v in ("V1", "V2", "V3")
        }
        assert falls == {"V1": [0, 1], "V2": [], "V3": [0]}

    def test_depth_beyond_prefix_rejected(self):
        with pytest.raises(ValueError):
            build_beta_graph(BetaShift.golden(), NU_DIGITS + 1)


class TestDecideMixingBeta:
    def test_incommensurable_roof_mixes(self):
        basis = RealBasis.with_constants(("alpha", (1 + math.sqrt(5)) / 2))
        roof = LocallyConstantRoof.from_symbols(
            {0: basis.unit(0), 1: basis.unit(1)}
        )
        verdict = decide_mixing_beta(BetaShift.golden(), roof, depth=2, period_bound=6)
        assert verdict.kind == "TopMixing"

    def test_constant_roof_does_not_mix(self):
        basis = RealBasis.rational()
        roof = LocallyConstantRoof.constant(basis.from_rational(1), Alphabet.of_size(2))
        verdict = decide_mixing_beta(BetaShift.golden(), roof, depth=2, period_bound=6)
        assert verdict.kind == "NotMixingUpToBound"
        assert verdict.delta == basis.from_rational(1)


class TestBalancedCoded:
    def test_membership_examples(self):
        oracle = balanced_oracle()
        yes = ["", "0", "1", "2", "3", "32", "231", "230", "022330", "2233", "01", "02233002"]
        no = ["0223330", "2133", "04", "033", "320"]
        for text in yes:
            assert oracle.is_admissible(Word.parse(text)), text
        for text in no:
            assert not oracle.is_admissible(Word.parse(text)), text

    def test_periodic_examples(self):
        from suspmix.special import _balanced_periodic

        assert _balanced_periodic(Word.parse("2"))
        assert _balanced_periodic(Word.parse("3"))
        assert _balanced_periodic(Word.parse("0"))
        assert _balanced_periodic(Word.parse("23"))
        assert _balanced_periodic(Word.parse("2233"))
        assert not _balanced_periodic(Word.parse("223"))
        assert not _balanced_periodic(Word.parse("233"))
        assert _balanced_periodic(Word.parse("02233"))
        assert not _balanced_periodic(Word.parse("0223"))

    def test_periodic_in_cylinder(self):
        gen = CodedGenerator.balanced_23()
        points = coded_periodic_in_cylinder(gen, Word([0]), 6)
        words = {Word(p[i] for i in range(len(p.right_period))) for p in points}
        assert Word.parse("0") in words
        assert Word.parse("0223") not in words
        assert Word.parse("02233") in words
        for p in points:
            assert p[0] == 0

    def test_example_roof_sums_on_grid(self):
        from suspmix.roofs import birkhoff_sum

        basis = RealBasis.with_constants(("a", math.sqrt(2)), ("b", math.e))
        roof = example_roof_coded(basis)
        a_plus_b = basis.unit(1) + basis.unit(2)
        gen = CodedGenerator.balanced_23()
        for p in coded_periodic_in_cylinder(gen, Word([0]), 6):
            total = birkhoff_sum(roof, p, len(p.core))
            ratio = total.ratio_to(a_plus_b)
            assert ratio is not None and ratio.denominator == 1


class TestAperiodicSequence:
    def test_prefix(self):
        assert AperiodicSequence().prefix(8) == [3, 4, 4, 3, 4, 3, 3, 4]

    def test_doubling_identities(self):
        seq = AperiodicSequence()
        for m in range(1, 50):
            assert seq.term(2 * m - 1) == seq.term(m)
            assert seq.term(2 * m) == 7 - seq.term(m)

    def test_cube_free(self):
        a = AperiodicSequence().prefix(100)
        for ell in range(1, len(a) // 3 + 1):
            for i in range(len(a) - 3 * ell + 1):
                assert not (
                    a[i : i + ell] == a[i + ell : i + 2 * ell] == a[i + 2 * ell : i + 3 * ell]
                )


class TestTwoOrbitAdmissibility:
    def test_basic_words(self):
        yes = ["", "1", "11", "111", "0101", "10101", "110", "011", "0000",
               "1100011", "0001", "1000", "1100010100011"]
        no = ["00000", "1101", "11011", "100100", "2", "11010"]
        for text in yes:
            assert two_orbit_is_admissible(Word.parse(text)), text
        for text in no:
            assert not two_orbit_is_admissible(Word.parse(text)), text

    def test_separator_lengths_follow_scaffold(self):
        # consecutive separators 3,3 never occur at the start of the scaffold
        # without a neighboring 4 pattern that the sequence actually contains
        w = Word.parse("1" + "0" * 3 + "11" + "0" * 3 + "11" + "0" * 3 + "1")
        # the factor (3,3,3) is a cube and never occurs in a cube-free sequence
        assert not two_orbit_is_admissible(w)
        v = Word.parse("1" + "0" * 4 + "11" + "0" * 3 + "11" + "0" * 4 + "1")
        # (4,3,4) occurs: positions 2,3,4 read 4,3,4
        assert two_orbit_is_admissible(v)

    def test_generator_cap(self):
        assert two_orbit_parse(Word.parse("10101"), i_cap=2)
        assert not two_orbit_parse(Word.parse("10101"), i_cap=1)

    def test_periodic_orbits(self):
        assert two_orbit_periodic_admissible(Word.parse("1"))
        assert two_orbit_periodic_admissible(Word.parse("01"))
        assert two_orbit_periodic_admissible(Word.parse("10"))
        assert not two_orbit_periodic_admissible(Word.parse("0"))
        assert not two_orbit_periodic_admissible(Word.parse("0011"))
        assert not two_orbit_periodic_admissible(Word.parse("1000"))

    def test_periodic_scan_finds_two_orbits(self):
        found = two_orbit_periodic_words(5)
        orbits = set()
        for w in found:
            root = next(
                w[:d]
                for d in range(1, len(w) + 1)
                if len(w) % d == 0 and w[:d] * (len(w) // d) == w
            )
            rotations = {root[i:] + root[:i] for i in range(len(root))}
            orbits.add(min(map(str, rotations)))
        # every word repeats into the fixed point of 1 or the 2-cycle of 01
        assert orbits == {"1", "01"}

    def test_word_enumeration_prunes(self):
        words = set(two_orbit_shift_words(5))
        assert Word.parse("11011") not in words
        assert Word.parse("11000") in words
        assert Word.parse("01010") in words

    def test_connectors_exist(self):
        u, v = Word.parse("11"), Word.parse("101")
        for n in range(2, 12):
            w = find_connector(u, v, n)
            assert w is not None
            ones = "1" * n
            assert "0%s0" % ones in "".join(map(str, w))
            assert two_orbit_is_admissible(u + w + v)

    def test_connector_endpoints_checked(self):
        with pytest.raises(ValueError):
            find_connector(Word.parse("1101"), Word.parse("1"), 3)
