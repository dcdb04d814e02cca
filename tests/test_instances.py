"""Instance families, the gap recurrence, random generation, and file I/O."""

import json
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from mpmd.engine import HEMISPHERE_BIPARTITE, Policy, simulate
from mpmd.instances import (
    LOWER_BOUND_K_MAX,
    REQUEST_COUNT_MAX,
    InstanceFormatError,
    LowerBoundParams,
    TwoPointRowsParams,
    expected_lower_bound_result,
    gen_lower_bound,
    gen_random,
    gen_two_point_rows,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    recurrence_ab,
    recurrence_ab_closed_form,
    save_instance,
)
from mpmd.metric import EUCLIDEAN_DIM_MAX, FINITE_POINTS_MAX, validate_metric
from mpmd.verify import check_lower_bound_family, check_recurrence_closed_form

from helpers import assert_checks_pass


class TestRecurrence:
    def test_base_value(self):
        for eps in (0.1, 0.5, 1.0, 2.0, 7.3):
            assert recurrence_ab(1, eps)[1] == 1.0

    def test_hand_unrolled_values(self):
        a1, b1 = recurrence_ab(1, 1.0)
        a2, b2 = recurrence_ab(2, 1.0)
        a3, b3 = recurrence_ab(3, 1.0)
        assert (a1, b1) == (0.5, 1.0)
        assert (a2, b2) == (1.25, 2.5)
        assert b3 == 6.25

    def test_closed_form_cross_check(self):
        a2, _ = recurrence_ab_closed_form(2, 1.0)
        _, b3 = recurrence_ab_closed_form(3, 1.0)
        assert a2 == pytest.approx(1.25, rel=1e-12)
        assert b3 == pytest.approx(6.25, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0])
    def test_closed_form_agreement_to_depth_40(self, eps):
        assert_checks_pass(check_recurrence_closed_form, eps_list=(eps,), i_max=40)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            recurrence_ab(0, 1.0)
        with pytest.raises(ValueError):
            recurrence_ab(3, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_epsilon(self, bad):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            recurrence_ab(3, bad)


class TestCascadeGenerator:
    def test_k1_times(self):
        inst = gen_lower_bound(LowerBoundParams(k=1, epsilon=1.0, eta=0.0))
        assert [r.time for r in inst.requests] == [0.0, 1.0]

    def test_k2_times(self):
        inst = gen_lower_bound(LowerBoundParams(k=2, epsilon=1.0, eta=0.0))
        assert [r.time for r in inst.requests] == [0.0, 1.0, 1.5, 2.5]

    def test_k3_times(self):
        inst = gen_lower_bound(LowerBoundParams(k=3, epsilon=1.0, eta=0.0))
        assert [r.time for r in inst.requests] == pytest.approx(
            [0.0, 1.0, 1.5, 2.5, 3.75, 4.75, 5.25, 6.25]
        )

    def test_ids_in_time_order(self):
        inst = gen_lower_bound(LowerBoundParams(k=4, epsilon=0.5))
        assert [r.id for r in inst.requests] == list(range(1, 17))
        times = [r.time for r in inst.requests]
        assert times == sorted(times)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_span_equals_b_k(self, k, eps):
        inst = gen_lower_bound(LowerBoundParams(k=k, epsilon=eps, eta=0.0))
        _, b_k = recurrence_ab(k, eps)
        span = inst.requests[-1].time - inst.requests[0].time
        assert span == pytest.approx(b_k, rel=1e-9)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LowerBoundParams(k=0, epsilon=1.0)
        with pytest.raises(ValueError):
            LowerBoundParams(k=2, epsilon=-1.0)
        with pytest.raises(ValueError):
            LowerBoundParams(k=2, epsilon=1.0, eta=1e-2)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="epsilon must be finite"):
                LowerBoundParams(k=2, epsilon=bad)

    def test_k_capped(self):
        assert LowerBoundParams(k=LOWER_BOUND_K_MAX, epsilon=1.0).k == LOWER_BOUND_K_MAX
        k = LOWER_BOUND_K_MAX + 1
        with pytest.raises(ValueError, match=rf"at most .*got k={k}, which asks for 2\*\*{k} "):
            LowerBoundParams(k=k, epsilon=1.0)


class TestExpectedCascadeResult:
    def test_k1(self):
        pairs, weight = expected_lower_bound_result(LowerBoundParams(k=1, epsilon=1.0))
        assert pairs == ((1, 2),)
        assert weight == 1.0

    def test_k2(self):
        pairs, weight = expected_lower_bound_result(LowerBoundParams(k=2, epsilon=1.0))
        assert pairs == ((1, 4), (2, 3))
        assert weight == pytest.approx(3.0)

    def test_k3(self):
        pairs, weight = expected_lower_bound_result(LowerBoundParams(k=3, epsilon=1.0))
        assert pairs == ((1, 8), (2, 3), (4, 5), (6, 7))
        assert weight == pytest.approx(8.5)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", range(1, 11))
    def test_simulation_reproduces_pairs_up_to_k10(self, k, eps):
        assert_checks_pass(check_lower_bound_family, k_values=(k,), eps_list=(eps,), eta=1e-6)

    def test_bipartite_cascade_alternates_colors_and_matches_identically(self):
        # Alternating colors keep every adversarial pair color-crossing, so
        # the bipartite policy reproduces the monochromatic matching.
        for k in range(1, 7):
            params = LowerBoundParams(k=k, epsilon=1.0)
            colored = gen_lower_bound(params, bipartite=True)
            assert [r.color for r in colored.requests] == [
                i % 2 for i in range(2**k)
            ]
            report = simulate(colored, Policy(HEMISPHERE_BIPARTITE, 1.0))
            produced = tuple(
                sorted((min(r.p, r.q), max(r.p, r.q)) for r in report.records)
            )
            assert produced == expected_lower_bound_result(params)[0]

    @pytest.mark.parametrize("eta", [0.0, 1e-7, 1e-6, 1e-4, 9e-4])
    def test_reproduction_across_eta_range(self, eta):
        # At eta = 0 every firing time ties and the id rule decides; any
        # perturbation in (0, 1e-3) separates the ties far beyond the 1e-9
        # event tolerance.
        assert_checks_pass(check_lower_bound_family, k_values=range(2, 7), eps_list=(2.0,), eta=eta)


class TestTwoPointRows:
    def test_m8_row_times(self):
        inst = gen_two_point_rows(TwoPointRowsParams(m=8, delta=0.1))
        times_a = sorted(r.time for r in inst.requests if r.location == "A")
        times_b = sorted(r.time for r in inst.requests if r.location == "B")
        assert times_a == pytest.approx([0.0, 1.0, 1.1, 2.1])
        assert times_a == times_b

    def test_m16_row_times(self):
        inst = gen_two_point_rows(TwoPointRowsParams(m=16, delta=0.1))
        times_a = sorted(r.time for r in inst.requests if r.location == "A")
        assert times_a == pytest.approx([0.0, 1.0, 1.1, 2.1, 2.2, 3.2, 3.3, 4.3])

    def test_cross_distance(self):
        inst = gen_two_point_rows(TwoPointRowsParams(m=8, delta=0.1))
        assert inst.space.matrix[0][1] == pytest.approx(2.1)
        assert validate_metric([list(r) for r in inst.space.matrix]) is None

    def test_row_major_ids(self):
        inst = gen_two_point_rows(TwoPointRowsParams(m=8, delta=0.1))
        ids_a = sorted(r.id for r in inst.requests if r.location == "A")
        assert ids_a == [1, 2, 3, 4]

    def test_params_validation(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            TwoPointRowsParams(m=10, delta=0.1)
        with pytest.raises(ValueError):
            TwoPointRowsParams(m=4, delta=0.1)
        with pytest.raises(ValueError):
            TwoPointRowsParams(m=8, delta=0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_delta(self, bad):
        with pytest.raises(ValueError, match="delta must be finite"):
            TwoPointRowsParams(m=8, delta=bad)

    def test_request_count_cap(self):
        assert REQUEST_COUNT_MAX == 2**LOWER_BOUND_K_MAX
        assert TwoPointRowsParams(m=REQUEST_COUNT_MAX, delta=0.1).m == REQUEST_COUNT_MAX
        m = REQUEST_COUNT_MAX + 4
        with pytest.raises(ValueError, match=f"at most {REQUEST_COUNT_MAX} requests, got m={m}"):
            TwoPointRowsParams(m=m, delta=0.1)


class TestGenRandom:
    def test_deterministic(self):
        kwargs = dict(metric="euclidean", dim=3, horizon=5.0, bipartite=True)
        assert gen_random(10, 42, **kwargs) == gen_random(10, 42, **kwargs)

    def test_seed_changes_output(self):
        assert gen_random(10, 1, metric="line") != gen_random(10, 2, metric="line")

    def test_balanced_colors(self):
        inst = gen_random(12, 7, metric="line", bipartite=True)
        assert sum(1 for r in inst.requests if r.color == 0) == 6

    def test_times_within_horizon_and_sorted(self):
        inst = gen_random(20, 3, metric="finite", n_points=5, horizon=4.0)
        times = [r.time for r in inst.requests]
        assert times == sorted(times)
        assert all(0.0 <= t <= 4.0 for t in times)

    def test_rejects_odd_m(self):
        with pytest.raises(ValueError, match="even"):
            gen_random(5, 0)

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            gen_random(4, 0, metric="hyperbolic")

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_horizon(self, bad):
        with pytest.raises(ValueError, match="horizon must be finite"):
            gen_random(4, 0, horizon=bad)

    def test_request_count_cap(self):
        m = REQUEST_COUNT_MAX + 2
        with pytest.raises(ValueError, match=f"at most {REQUEST_COUNT_MAX} requests, got m={m}"):
            gen_random(m, 0)

    def test_dimension_cap(self):
        inst = gen_random(2, 0, metric="euclidean", dim=EUCLIDEAN_DIM_MAX)
        assert inst.space.dim == EUCLIDEAN_DIM_MAX
        with pytest.raises(ValueError, match=f"from 1 to {EUCLIDEAN_DIM_MAX}, got 200000"):
            gen_random(16, 1, metric="euclidean", dim=200_000)

    def test_point_count_cap(self, deadline):
        with pytest.raises(ValueError, match=f"2 to {FINITE_POINTS_MAX} points, got 100000"):
            gen_random(4, 0, metric="finite", n_points=100_000)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    m=st.integers(min_value=1, max_value=8).map(lambda h: 2 * h),
    metric=st.sampled_from(["line", "euclidean", "finite"]),
    bipartite=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_roundtrip_through_files(tmp_path_factory, seed, m, metric, bipartite):
    inst = gen_random(m, seed, metric=metric, bipartite=bipartite)
    path = tmp_path_factory.mktemp("io") / "instance.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert loaded == inst
    assert instance_digest(loaded) == instance_digest(inst)


class TestFileFormat:
    def _write(self, tmp_path, data):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def base(self):
        return {
            "metric": {"kind": "line"},
            "bipartite": False,
            "requests": [
                {"id": 1, "t": 0.0, "loc": 0.0},
                {"id": 2, "t": 1.0, "loc": 2.5},
            ],
        }

    def test_family_outputs_roundtrip(self, tmp_path):
        for inst in (
            gen_lower_bound(LowerBoundParams(k=3, epsilon=1.0)),
            gen_two_point_rows(TwoPointRowsParams(m=8, delta=0.25)),
        ):
            path = tmp_path / "fam.json"
            save_instance(inst, path)
            assert load_instance(path) == inst

    def test_duplicate_id_names_the_id(self, tmp_path):
        data = self.base()
        data["requests"][1]["id"] = 1
        with pytest.raises(InstanceFormatError, match="duplicate id 1"):
            load_instance(self._write(tmp_path, data))

    def test_odd_request_count(self, tmp_path):
        data = self.base()
        data["requests"].pop()
        with pytest.raises(InstanceFormatError, match="must be even"):
            load_instance(self._write(tmp_path, data))

    def test_color_imbalance(self, tmp_path):
        data = self.base()
        data["bipartite"] = True
        data["requests"][0]["color"] = 1
        data["requests"][1]["color"] = 1
        with pytest.raises(InstanceFormatError, match="imbalanced"):
            load_instance(self._write(tmp_path, data))

    def test_color_on_monochromatic(self, tmp_path):
        data = self.base()
        data["requests"][0]["color"] = 0
        with pytest.raises(InstanceFormatError, match="color"):
            load_instance(self._write(tmp_path, data))

    def test_missing_color_on_bipartite(self, tmp_path):
        data = self.base()
        data["bipartite"] = True
        with pytest.raises(InstanceFormatError, match="color"):
            load_instance(self._write(tmp_path, data))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InstanceFormatError, match="malformed"):
            load_instance(path)

    def test_unknown_metric_kind(self, tmp_path):
        data = self.base()
        data["metric"] = {"kind": "taxicab"}
        with pytest.raises(InstanceFormatError, match="metric"):
            load_instance(self._write(tmp_path, data))

    def test_invalid_finite_matrix(self, tmp_path):
        data = self.base()
        data["metric"] = {
            "kind": "finite",
            "points": ["A", "B"],
            "matrix": [[0.0, 1.0], [2.0, 0.0]],
        }
        data["requests"][0]["loc"] = "A"
        data["requests"][1]["loc"] = "B"
        with pytest.raises(InstanceFormatError, match="metric"):
            load_instance(self._write(tmp_path, data))

    @pytest.mark.parametrize("dim", [0, True, 2.0, "2"])
    def test_euclidean_dimension_must_be_a_positive_integer(self, tmp_path, dim):
        data = self.base()
        data["metric"] = {"kind": "euclidean", "dim": dim}
        with pytest.raises(InstanceFormatError, match=r"metric\.dim: "):
            load_instance(self._write(tmp_path, data))

    def test_euclidean_dimension_above_the_cap_names_the_field(self, tmp_path):
        data = self.base()
        data["metric"] = {"kind": "euclidean", "dim": EUCLIDEAN_DIM_MAX + 1}
        message = rf"metric\.dim: .*from 1 to {EUCLIDEAN_DIM_MAX}, got {EUCLIDEAN_DIM_MAX + 1}"
        with pytest.raises(InstanceFormatError, match=message):
            load_instance(self._write(tmp_path, data))

    def test_finite_point_count_above_the_cap_is_refused_before_validation(
        self, tmp_path, deadline
    ):
        # Far beyond the cap: validating this space would take minutes.
        n = 4 * FINITE_POINTS_MAX
        data = self.base()
        data["metric"] = {
            "kind": "finite",
            "points": [f"p{i}" for i in range(n)],
            "matrix": [[float(i != j) for j in range(n)] for i in range(n)],
        }
        started = time.perf_counter()
        with pytest.raises(
            InstanceFormatError, match=rf"metric: .*at most {FINITE_POINTS_MAX} points, got {n}"
        ):
            load_instance(self._write(tmp_path, data))
        assert time.perf_counter() - started < 5.0

    def test_location_type_mismatch(self, tmp_path):
        data = self.base()
        data["requests"][0]["loc"] = "A"
        with pytest.raises(InstanceFormatError, match="requests\\[0\\]"):
            load_instance(self._write(tmp_path, data))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_time_names_the_field(self, tmp_path, bad):
        path = self._write(tmp_path, self.base())
        text = path.read_text(encoding="utf-8").replace('"t": 1.0', f'"t": {bad}')
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InstanceFormatError, match=r"requests\[1\]\.t: expected a finite"):
            load_instance(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_line_location_names_the_field(self, tmp_path, bad):
        path = self._write(tmp_path, self.base())
        text = path.read_text(encoding="utf-8").replace('"loc": 2.5', f'"loc": {bad}')
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InstanceFormatError, match=r"requests\[1\]\.loc: expected a finite"):
            load_instance(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_names_the_field(self, tmp_path, bad):
        data = {
            "metric": {"kind": "euclidean", "dim": 2},
            "bipartite": False,
            "requests": [
                {"id": 1, "t": 0.0, "loc": [0.0, 1.0]},
                {"id": 2, "t": 1.0, "loc": [bad, 5.0]},
            ],
        }
        with pytest.raises(
            InstanceFormatError, match=r"requests\[1\]\.loc: coordinates must be finite"
        ):
            load_instance(self._write(tmp_path, data))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_entry_names_the_entry(self, tmp_path, bad):
        data = self.base()
        data["metric"] = {
            "kind": "finite",
            "points": ["A", "B"],
            "matrix": [[0.0, bad], [bad, 0.0]],
        }
        data["requests"][0]["loc"] = "A"
        data["requests"][1]["loc"] = "B"
        with pytest.raises(InstanceFormatError, match=r"metric: matrix\[0\]\[1\] must be a finite number"):
            load_instance(self._write(tmp_path, data))

    def test_euclidean_locations(self, tmp_path):
        data = {
            "metric": {"kind": "euclidean", "dim": 2},
            "bipartite": False,
            "requests": [
                {"id": 1, "t": 0.25, "loc": [0.0, 1.0]},
                {"id": 2, "t": 1.5, "loc": [3.0, 5.0]},
            ],
        }
        inst = load_instance(self._write(tmp_path, data))
        assert inst.requests[0].location == (0.0, 1.0)

    def test_requests_written_in_arrival_order(self, tmp_path):
        inst = gen_random(8, 13, metric="line")
        path = tmp_path / "ordered.json"
        save_instance(inst, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        times = [entry["t"] for entry in data["requests"]]
        assert times == sorted(times)


def test_dict_roundtrip_matches_file_roundtrip():
    inst = gen_random(10, 77, metric="finite", n_points=3, bipartite=True)
    assert instance_from_dict(instance_to_dict(inst)) == inst
