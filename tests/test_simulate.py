import math

import numpy as np
import pytest

from suspmix.exact import RealBasis
from suspmix.roofs import LocallyConstantRoof, birkhoff_sum, example_roof_harmonic
from suspmix.shift import EventuallyPeriodicPoint, Word
from suspmix.simulate import (
    MixingDiagnostic,
    ReturnTimeSeries,
    SuspensionPoint,
    density_diagnostic,
    export_series,
    hitting_times,
    orbit_period,
    witness_family,
)

RATIONAL = RealBasis.rational()


def roof_two_three():
    return LocallyConstantRoof.from_symbols(
        {0: RATIONAL.from_rational(2), 1: RATIONAL.from_rational(3)}
    )


def point(text):
    return EventuallyPeriodicPoint.periodic(Word.parse(text))


class TestHittingTimes:
    def test_integer_roof_integer_times(self):
        series = hitting_times(
            [SuspensionPoint(point("0"))], Word.parse("0"), 0.25, roof_two_three(), 20.0
        )
        assert series.times
        for t in series.times:
            assert abs(t - round(t)) < 1e-9

    def test_constant_roof_arithmetic_progression(self):
        from suspmix.shift import Alphabet

        roof = LocallyConstantRoof.constant(
            RATIONAL.from_rational(5), Alphabet.of_size(2)
        )
        series = hitting_times(
            [SuspensionPoint(point("1"))], Word.parse("1"), 0.5, roof, 30.0
        )
        gaps = np.diff(series.times)
        assert np.allclose(gaps, 5.0)

    def test_harmonic_witness_times(self):
        roof = example_roof_harmonic()
        u, v = Word.parse("01"), Word.parse("10")
        family = witness_family(
            None, v, u + Word.parse("1"), Word.parse("0"), Word.parse("1"), v, [4], [3]
        )
        omega = orbit_period(roof, v)
        series = hitting_times(family, v, 0.05, roof, 60.0, omega=omega)
        x = family[0]
        first = sum(roof.value_at(x, j) for j in range(len(u) + 1 + 4 + 3))
        later = [t for t in series.times if t > first - 1e-9]
        assert later and abs(later[0] - first) < 1e-9
        # once the orbit enters the periodic tail, hits recur with period omega
        gaps = np.diff(later)
        assert np.allclose(gaps, omega)

    def test_epsilon_must_be_below_floor(self):
        with pytest.raises(ValueError):
            hitting_times(
                [SuspensionPoint(point("0"))], Word.parse("0"), 2.5, roof_two_three(), 5.0
            )

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")])
    def test_epsilon_must_be_above_zero(self, epsilon):
        # the target (0, epsilon) would be empty
        with pytest.raises(ValueError, match="epsilon must be above 0"):
            hitting_times(
                [SuspensionPoint(point("0"))], Word.parse("0"), epsilon, roof_two_three(), 5.0
            )

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("inf"), float("nan")])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite and above 0"):
            hitting_times(
                [SuspensionPoint(point("0"))], Word.parse("0"), 0.1, roof_two_three(), horizon
            )

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            hitting_times([], Word.parse("0"), 0.1, roof_two_three(), 5.0)

    def test_empty_target_rejected(self):
        # an empty word starts at every index, so every index would be a hit
        with pytest.raises(ValueError, match="empty target word"):
            hitting_times([SuspensionPoint(point("0"))], Word(), 0.1, roof_two_three(), 5.0)


class TestWitnessFamily:
    def test_example_structure(self):
        u, v = Word.parse("01"), Word.parse("10")
        family = witness_family(
            None, v, u + Word.parse("1"), Word.parse("0"), Word.parse("1"), v,
            range(1, 4), range(1, 3),
        )
        assert len(family) == 6
        x = family[0]
        assert x[0] == u[0] and x[1] == u[1] and x[2] == 1

    def test_admissibility_checked(self):
        from suspmix.shift import Alphabet, sft_from_forbidden_words

        golden = sft_from_forbidden_words(Alphabet.of_size(2), [Word.parse("11")])
        with pytest.raises(ValueError):
            witness_family(
                golden, Word.parse("0"), Word.parse("1"), Word.parse("1"),
                Word.parse("0"), Word.parse("0"), [2], [1],
            )

    def test_empty_ranges(self):
        assert witness_family(
            None, Word.parse("0"), Word.parse("0"), Word.parse("0"),
            Word.parse("0"), Word.parse("0"), [], [1],
        ) == []


class TestDensityDiagnostic:
    def _series(self, times, omega, epsilon=0.05):
        return ReturnTimeSeries(Word.parse("0"), epsilon, tuple(times), omega)

    def test_integer_times_on_unit_grid(self):
        series = self._series([float(i) for i in range(1, 15)], 1.0)
        diag = density_diagnostic(series, candidate_delta=1.0)
        assert diag.grid_fraction == 1.0
        assert diag.verdict == "non-mixing-consistent"

    def test_uniform_residues_mix(self):
        n = 200
        times = [10.0 + i + (i * 0.005) for i in range(n)]
        series = self._series(times, 1.0, epsilon=0.02)
        diag = density_diagnostic(series)
        assert diag.max_gap < 0.02
        assert diag.verdict == "mixing-consistent"

    def test_residue_range_and_bins(self):
        series = self._series([0.1, 0.9, 1.3, 2.4, 3.7, 4.2, 5.5, 6.1, 7.8, 8.9], 1.0)
        diag = density_diagnostic(series)
        assert all(0 <= r < 1.0 for r in diag.residues)
        assert len(diag.bin_counts) == 10
        assert sum(diag.bin_counts) == len(diag.residues)
        assert diag.max_gap <= 1.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            density_diagnostic(self._series([1.0, 2.0, 3.0], 1.0))

    @pytest.mark.parametrize("delta", [0.0, -0.7, float("nan"), float("inf"), float("-inf")])
    def test_candidate_delta_must_be_finite_and_positive(self, delta):
        series = self._series([float(i) for i in range(1, 15)], 1.0)
        with pytest.raises(ValueError, match="candidate delta must be finite and above 0"):
            density_diagnostic(series, candidate_delta=delta)


class TestExport:
    def test_series_csv(self, tmp_path):
        series = ReturnTimeSeries(Word.parse("0"), 0.1, (1.0, 2.5, 4.0), 2.0)
        path = tmp_path / "series.csv"
        export_series(series, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "time,residue"
        assert len(lines) == 4
        got = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert got == [(1.0, 1.0), (2.5, 0.5), (4.0, 0.0)]

    def test_diagnostic_csv(self, tmp_path):
        times = [0.1 * i + i for i in range(1, 15)]
        series = ReturnTimeSeries(Word.parse("0"), 0.05, tuple(times), 1.0)
        diag = density_diagnostic(series)
        path = tmp_path / "diag.csv"
        export_series(diag, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bin,count,max_gap"
        assert len(lines) == 11

    def test_round_trip_precision(self, tmp_path):
        times = (1.0 / 3.0, 2.0 / 7.0 + 1.0, math.pi)
        series = ReturnTimeSeries(Word.parse("0"), 0.1, tuple(sorted(times)), 5.0)
        path = tmp_path / "rt.csv"
        export_series(series, path)
        lines = path.read_text().strip().split("\n")[1:]
        parsed = [float(line.split(",")[0]) for line in lines]
        assert parsed == sorted(times)

    def test_wrong_type(self, tmp_path):
        with pytest.raises(TypeError):
            export_series(42, tmp_path / "x.csv")
