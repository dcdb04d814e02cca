"""Recurrence table, theoretical bound, ratio reports, and family sweeps."""

import math

import pytest

from mpmd.engine import HEMISPHERE, HEMISPHERE_BIPARTITE, NOTIME_MIN, Policy
from mpmd.harness import (
    compute_ratio,
    eval_f,
    fit_log2_slope,
    reference_matching_weight,
    sweep_lower_bound,
    sweep_two_point_rows,
    theoretical_bound,
)
from mpmd.instances import (
    LowerBoundParams,
    TwoPointRowsParams,
    gen_lower_bound,
    gen_random,
    gen_two_point_rows,
)
from mpmd.oracle import opt_general


class TestEvalF:
    def test_base_case(self):
        assert eval_f(2, 3.5).value(2) == 1.0

    def test_gamma_4_hand_values(self):
        table = eval_f(8, 4.0)
        assert table.value(4) == 0.5
        assert table.value(6) == 0.375
        assert table.value(8) == 0.25

    def test_gamma_4_power_of_two_equality(self):
        table = eval_f(1024, 4.0)
        for k in (1, 2, 4, 8, 16, 64, 256, 512):
            assert table.value(2 * k) == 0.5 ** math.log2(k)

    @pytest.mark.parametrize("gamma", [2.5, 3.0, 4.0, 5.0])
    def test_lower_bound_and_monotonicity(self, gamma):
        table = eval_f(256, gamma)
        values = table.values
        assert values[0] == 1.0
        assert all(b <= a for a, b in zip(values, values[1:]))
        for k in range(1, 129):
            assert table.value(2 * k) >= (2.0 / gamma) ** math.log2(k) - 1e-12

    def test_rejects_gamma_at_most_two(self):
        with pytest.raises(ValueError, match="gamma"):
            eval_f(8, 2.0)

    def test_rejects_odd_m(self):
        with pytest.raises(ValueError):
            eval_f(7, 3.0)


class TestTheoreticalBound:
    def test_m2(self):
        assert theoretical_bound(2, 1.0) == 2.0

    def test_m8_eps1(self):
        assert theoretical_bound(8, 1.0) == 8.0

    def test_monotone_in_m(self):
        values = [theoretical_bound(m, 0.5) for m in range(2, 65, 2)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
    def test_rejects_non_finite_or_non_positive_epsilon(self, bad):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            theoretical_bound(12, bad)

    def test_overflowing_bound_names_m_and_epsilon(self):
        # gamma = 3 + 1e300 drives f(12) to 0, so 2/f(12) has no double.
        with pytest.raises(ValueError, match=r"m=12, epsilon=1e\+300"):
            theoretical_bound(12, 1e300)
        # f(4) = 2/gamma is still positive there.
        assert theoretical_bound(4, 1e300) == 2.0 / (2.0 / (3.0 + 1e300))


class TestFit:
    def test_pure_power_law(self):
        ms = [2**k for k in range(3, 9)]
        ratios = [1.7 * m**0.43 for m in ms]
        assert fit_log2_slope(ms, ratios) == pytest.approx(0.43, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_log2_slope([8], [1.0])


class TestComputeRatio:
    def test_cascade_k2(self):
        inst = gen_lower_bound(LowerBoundParams(k=2, epsilon=1.0))
        report = compute_ratio(inst, Policy(HEMISPHERE, 1.0))
        assert report.opt_weight == 2.0
        assert report.ratio_offline == pytest.approx(1.5, rel=1e-5)
        assert report.ratio_online == pytest.approx(4.5, rel=1e-5)
        assert report.bound_ok

    def test_forced_pair_ratios(self):
        inst = gen_random(2, seed=0, metric="line")
        for eps in (0.5, 1.0, 2.0):
            report = compute_ratio(inst, Policy(HEMISPHERE, eps))
            assert report.ratio_offline == pytest.approx(1.0, rel=1e-9)
            assert report.ratio_online == pytest.approx(1.0 + 2.0 / eps, rel=1e-9)

    def test_scaling_identity_between_ratios(self):
        inst = gen_random(12, seed=8, metric="euclidean")
        report = compute_ratio(inst, Policy(HEMISPHERE, 2.0))
        assert report.ratio_online == pytest.approx(2.0 * report.ratio_offline, rel=1e-9)
        assert report.ratio_offline >= 1.0 - 1e-9

    def test_bipartite_uses_crossing_oracle(self):
        inst = gen_random(8, seed=3, metric="line", bipartite=True)
        report = compute_ratio(inst, Policy(HEMISPHERE_BIPARTITE, 1.0))
        assert report.ratio_offline >= 1.0 - 1e-9

    def test_guard_error_mentions_alternatives(self):
        inst = gen_random(22, seed=1, metric="line")
        with pytest.raises(ValueError, match="bipartite oracle or a smaller"):
            compute_ratio(inst, Policy(HEMISPHERE, 1.0))


class TestSweeps:
    def test_lower_bound_rows_and_exactness(self):
        result = sweep_lower_bound(range(1, 6), epsilon=1.0)
        assert [row.m for row in result.rows] == [2, 4, 8, 16, 32]
        assert [row.opt_exact for row in result.rows] == [True, True, True, True, False]
        assert result.rows[0].ratio_offline == pytest.approx(1.0, rel=1e-6)

    def test_lower_bound_ratios_match_closed_form(self):
        # Offline ratio follows 2 * (5/4)**(k-1) - 1 at eps = 1.
        result = sweep_lower_bound(range(4, 9), epsilon=1.0)
        for row, k in zip(result.rows, range(4, 9)):
            assert row.ratio_offline == pytest.approx(
                2.0 * 1.25 ** (k - 1) - 1.0, rel=1e-4
            )

    def test_consecutive_pairs_reference_weight(self):
        inst = gen_lower_bound(LowerBoundParams(k=6, epsilon=1.0))
        assert reference_matching_weight("lower-bound", inst) == pytest.approx(
            32.0, rel=1e-9
        )

    def test_two_point_reference_weight(self):
        # Short-gap pairs plus two cross edges: (m/2 - 2) delta + 2 (2 + delta).
        inst = gen_two_point_rows(TwoPointRowsParams(m=16, delta=0.0625))
        assert reference_matching_weight("appendix-b", inst) == pytest.approx(4.5)
        exact = opt_general(inst)
        assert exact.weight <= 4.5 + 1e-9

    def test_two_point_rows_linear_growth(self):
        result = sweep_two_point_rows([16, 32, 64, 128], epsilon=1.0)
        rows = result.rows
        assert rows[-1].ratio_online / rows[-2].ratio_online == pytest.approx(2.0, rel=0.15)
        assert rows[-2].ratio_online / rows[-3].ratio_online == pytest.approx(2.0, rel=0.15)
        assert result.slope == pytest.approx(1.0, abs=0.1)

    def test_hemisphere_stays_bounded_on_two_point_rows(self):
        result = sweep_two_point_rows(
            [16, 32, 64, 128], epsilon=1.0, policy_kind=HEMISPHERE
        )
        for row in result.rows:
            assert row.ratio_offline <= theoretical_bound(row.m, 1.0) + 1e-9

    def test_sweep_determinism(self):
        a = sweep_lower_bound(range(2, 7), epsilon=0.5)
        b = sweep_lower_bound(range(2, 7), epsilon=0.5)
        assert a == b
        c = sweep_two_point_rows([16, 32], epsilon=1.0, policy_kind=NOTIME_MIN)
        d = sweep_two_point_rows([16, 32], epsilon=1.0, policy_kind=NOTIME_MIN)
        assert c == d
