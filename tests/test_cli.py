"""CLI surface: every subcommand, output formats, and exit codes."""

import errno
import json
import re
import time
import warnings
from unittest.mock import Mock

import pytest
from click.testing import CliRunner

from mpmd.cli import main
import mpmd.verify
from mpmd.instances import (
    LOWER_BOUND_K_MAX,
    REQUEST_COUNT_MAX,
    TwoPointRowsParams,
    gen_random,
    gen_two_point_rows,
    instance_digest,
    load_instance,
    save_instance,
)
from mpmd.engine import Instance, Request
from mpmd.metric import EUCLIDEAN_DIM_MAX, FINITE_POINTS_MAX, MetricSpace, TimedPoint
from mpmd.oracle import opt_bipartite
from mpmd.verify import MAX_FAILURE_DETAILS, VERIFY_COUNT_MAX


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def test_gen_and_run_summary(runner, tmp_path):
    path = tmp_path / "lb.json"
    result = invoke(runner, "gen", "lower-bound", "--k", 2, "--epsilon", 1, "-o", path)
    assert result.exit_code == 0, result.output
    result = invoke(runner, "run", "-i", path, "--policy", "hemisphere", "--epsilon", 1)
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["online_cost"] == pytest.approx(9.0, rel=1e-5)
    assert summary["offline_weight"] == pytest.approx(3.0, rel=1e-5)
    assert summary["meta"]["version"]


def test_run_csv_single_row_for_m2(runner, tmp_path):
    path = tmp_path / "r2.json"
    invoke(runner, "gen", "random", "--m", 2, "--seed", 1, "--metric", "line", "-o", path)
    result = invoke(
        runner, "run", "-i", path, "--policy", "hemisphere", "--epsilon", 1,
        "--format", "csv",
    )
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "p,q,match_time,connection,delay_p,delay_q"
    assert len(lines) == 2


def test_run_writes_output_file(runner, tmp_path):
    inst_path = tmp_path / "i.json"
    out_path = tmp_path / "records.csv"
    invoke(runner, "gen", "random", "--m", 6, "--seed", 2, "--metric", "euclidean:3", "-o", inst_path)
    result = invoke(
        runner, "run", "-i", inst_path, "--policy", "notime-late", "--epsilon", 2,
        "--format", "csv", "-o", out_path,
    )
    assert result.exit_code == 0, result.output
    assert out_path.read_text().startswith("#")


def test_bipartite_policy_on_monochromatic_exits_nonzero(runner, tmp_path):
    path = tmp_path / "mono.json"
    invoke(runner, "gen", "random", "--m", 4, "--seed", 0, "--metric", "line", "-o", path)
    result = invoke(runner, "run", "-i", path, "--policy", "hemisphere-b", "--epsilon", 1)
    assert result.exit_code != 0
    assert "bipartite" in result.output


def test_opt_command(runner, tmp_path):
    path = tmp_path / "lb.json"
    invoke(runner, "gen", "lower-bound", "--k", 2, "--epsilon", 1, "--eta", 0, "-o", path)
    result = invoke(runner, "opt", "-i", path)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["weight"] == 2.0
    assert payload["pairs"] == [[1, 2], [3, 4]]


def test_opt_on_a_bipartite_instance_is_the_color_crossing_optimum(runner, tmp_path):
    path = tmp_path / "bip.json"
    instance = gen_random(6, 5, metric="line", bipartite=True)
    save_instance(instance, path)
    result = invoke(runner, "opt", "-i", path)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    expected = opt_bipartite(instance)
    assert payload["weight"] == expected.weight
    assert [tuple(p) for p in payload["pairs"]] == list(expected.pairs)
    color = {r.id: r.color for r in instance.requests}
    assert all(color[p] != color[q] for p, q in expected.pairs)


def test_ratio_command(runner, tmp_path):
    path = tmp_path / "lb.json"
    invoke(runner, "gen", "lower-bound", "--k", 2, "--epsilon", 1, "-o", path)
    result = invoke(runner, "ratio", "-i", path, "--policy", "hemisphere", "--epsilon", 1)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["ratio_offline"] == pytest.approx(1.5, rel=1e-5)
    assert payload["ratio_online"] == pytest.approx(4.5, rel=1e-5)
    assert payload["bound_ok"] is True


def test_ratio_against_a_zero_weight_optimum_is_strict_json_null(runner, tmp_path):
    # The optimum pairs each location with itself at weight 0; the run pays 1e-12 per pair.
    requests = [
        {"id": 1, "t": 0.0, "loc": 0.0, "color": 0},
        {"id": 2, "t": 0.0, "loc": 1e-12, "color": 1},
        {"id": 3, "t": 0.0, "loc": 0.0, "color": 1},
        {"id": 4, "t": 0.0, "loc": 1e-12, "color": 0},
    ]
    path = tmp_path / "zero.json"
    data = {"metric": {"kind": "line"}, "bipartite": True, "requests": requests}
    path.write_text(json.dumps(data))
    result = invoke(runner, "ratio", "-i", path, "--policy", "hemisphere-b", "--epsilon", 1)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output, parse_constant=refuse_constant)
    assert payload["opt_weight"] == 0.0 and payload["offline_weight"] > 0
    assert payload["ratio_online"] is None and payload["ratio_offline"] is None


def refuse_constant(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize(
    "args, fields, bipartite",
    [
        (["run", "--policy", "hemisphere", "--epsilon", 1], ["online_cost", "offline_weight"], False),
        (["opt"], ["weight"], False),
        (["opt"], ["weight"], True),
        (
            ["ratio", "--policy", "hemisphere-b", "--epsilon", 1],
            ["offline_weight", "opt_weight", "ratio_offline"],
            True,
        ),
    ],
    ids=["run", "opt", "opt-bipartite", "ratio-bipartite"],
)
def test_an_overflowing_cost_is_strict_json_null(runner, tmp_path, args, fields, bipartite):
    # Both locations are finite; their distance overflows to inf.
    requests = [{"id": 1, "t": 0.0, "loc": -1e308}, {"id": 2, "t": 0.0, "loc": 1e308}]
    if bipartite:
        requests[0]["color"], requests[1]["color"] = 0, 1
    path = tmp_path / "far.json"
    data = {"metric": {"kind": "line"}, "bipartite": bipartite, "requests": requests}
    path.write_text(json.dumps(data))
    result = invoke(runner, args[0], "-i", path, *args[1:])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output, parse_constant=refuse_constant)
    assert [payload[field] for field in fields] == [None] * len(fields)


def test_ratio_guard_exits_nonzero(runner, tmp_path):
    path = tmp_path / "big.json"
    save_instance(gen_random(22, 0, metric="line"), path)
    result = invoke(runner, "ratio", "-i", path, "--policy", "hemisphere", "--epsilon", 1)
    assert result.exit_code != 0
    assert "oracle" in result.output


def test_bound_command(runner):
    result = invoke(runner, "bound", "--m", 8, "--epsilon", 1)
    assert result.exit_code == 0
    assert json.loads(result.output)["bound_2_over_f"] == 8.0


def test_sweep_cascade_csv(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    result = invoke(
        runner, "sweep", "--family", "lower-bound", "--k-min", 1, "--k-max", 4,
        "--epsilon", 1, "-o", out,
    )
    assert result.exit_code == 0, result.output
    text = out.read_text()
    assert "m,ratio_online,ratio_offline" in text
    assert "# fitted_log2_slope=" in text
    again = tmp_path / "sweep2.csv"
    invoke(
        runner, "sweep", "--family", "lower-bound", "--k-min", 1, "--k-max", 4,
        "--epsilon", 1, "-o", again,
    )
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize(
    "args, own, other",
    [
        (["--family", "lower-bound", "--k-min", 2, "--k-max", 3], ("eta", 1e-6), "delta"),
        (["--family", "appendix-b", "--m-list", "8,16", "--delta", 0.3], ("delta", 0.3), "eta"),
    ],
    ids=["lower-bound", "appendix-b"],
)
def test_sweep_header_names_only_the_family_parameter(runner, args, own, other):
    result = invoke(runner, "sweep", *args)
    assert result.exit_code == 0, result.output
    meta = json.loads(result.output.splitlines()[0].removeprefix("# "))
    assert meta[own[0]] == own[1]
    assert other not in meta


@pytest.mark.parametrize(
    "family, option, value",
    [
        ("lower-bound", "--m-list", "8,16"),
        ("lower-bound", "--delta", 0.3),
        ("appendix-b", "--k-min", 4),
        ("appendix-b", "--k-max", 10),
        ("appendix-b", "--eta", 0.01),
    ],
)
def test_sweep_refuses_an_option_of_the_other_family(runner, tmp_path, family, option, value):
    # Even a value equal to the option's default is refused once typed.
    path = tmp_path / "out.csv"
    result = invoke(runner, "sweep", "--family", family, option, value, "-o", path)
    assert result.exit_code == 2
    assert_usage_error(result, f"{option} does not apply to --family {family}")
    assert not path.exists()


def test_sweep_appendix_b(runner):
    result = invoke(
        runner, "sweep", "--family", "appendix-b", "--m-list", "16,32", "--epsilon", 1
    )
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[1].startswith("m,")


def test_gen_appendix_b_rejects_bad_m(runner, tmp_path):
    result = invoke(
        runner, "gen", "appendix-b", "--m", 10, "--delta", 0.1,
        "-o", tmp_path / "x.json",
    )
    assert result.exit_code != 0
    assert "multiple of 4" in result.output


def test_gen_random_metric_arguments(runner, tmp_path):
    for metric in ("line", "euclidean:3", "finite:5"):
        path = tmp_path / f"{metric.replace(':', '_')}.json"
        result = invoke(
            runner, "gen", "random", "--m", 4, "--seed", 9, "--metric", metric, "-o", path
        )
        assert result.exit_code == 0, result.output
    result = invoke(
        runner, "gen", "random", "--m", 4, "--seed", 9, "--metric", "cube:2",
        "-o", tmp_path / "bad.json",
    )
    assert result.exit_code != 0


@pytest.mark.parametrize(
    "metric, message",
    [
        ("euclidean:x", f"the dimension D must be an integer from 1 to {EUCLIDEAN_DIM_MAX}, got 'x'"),
        ("euclidean:0", f"the dimension D must be an integer from 1 to {EUCLIDEAN_DIM_MAX}, got '0'"),
        ("euclidean:200000", "got '200000'"),
        ("finite:1", f"the point count N must be an integer from 2 to {FINITE_POINTS_MAX}"),
        ("finite:2.5", "got '2.5'"),
        ("finite:100000", "got '100000'"),
        ("line:2", "expected line, euclidean:D or finite:N, got 'line:2'"),
    ],
)
def test_gen_random_rejects_bad_metric_arguments_at_once(
    runner, tmp_path, deadline, metric, message
):
    path = tmp_path / "out.json"
    started = time.perf_counter()
    result = invoke(runner, "gen", "random", "--m", 4, "--seed", 1, "--metric", metric, "-o", path)
    assert time.perf_counter() - started < 5.0
    assert_usage_error(result, "--metric")
    assert message in result.output
    assert not path.exists()


def test_gen_random_dimension_cap_is_in_the_help_and_accepted(runner, tmp_path, deadline):
    assert f"D with D at most {EUCLIDEAN_DIM_MAX}" in invoke(runner, "gen", "random", "--help").output
    path = tmp_path / "cap.json"
    result = invoke(
        runner, "gen", "random", "--m", 2, "--seed", 1,
        "--metric", f"euclidean:{EUCLIDEAN_DIM_MAX}", "-o", path,
    )
    assert result.exit_code == 0, result.output
    assert json.loads(path.read_text())["metric"]["dim"] == EUCLIDEAN_DIM_MAX


def test_gen_random_point_count_cap_is_in_the_help_and_accepted(runner, tmp_path, deadline):
    assert f"at most {FINITE_POINTS_MAX}" in invoke(runner, "gen", "random", "--help").output
    path = tmp_path / "cap.json"
    result = invoke(
        runner, "gen", "random", "--m", 4, "--seed", 1,
        "--metric", f"finite:{FINITE_POINTS_MAX}", "-o", path,
    )
    assert result.exit_code == 0, result.output
    assert len(json.loads(path.read_text())["metric"]["points"]) == FINITE_POINTS_MAX


def test_verify_small_run_passes(runner):
    result = invoke(
        runner, "verify", "--count", 6, "--max-m", 8, "--eps", "1", "--skip-families"
    )
    assert result.exit_code == 0, result.output
    assert "all checks passed" in result.output
    assert "PASS" in result.output


def test_verify_reports_each_failure_and_exits_nonzero(runner, monkeypatch):
    def failing(tally, report, label):
        tally.check("cost_scaling").record(False, f"{label}: patched to fail")

    monkeypatch.setattr(mpmd.verify, "check_cost_scaling", failing)
    result = invoke(
        runner, "verify", "--count", 6, "--max-m", 8, "--eps", "1", "--skip-families"
    )
    assert result.exit_code == 1, result.output
    lines = result.output.splitlines()
    # Two of the six instances are bipartite and run both hemisphere policies.
    (row,) = [k for k, line in enumerate(lines) if line.startswith("FAIL ")]
    assert lines[row].split() == ["FAIL", "cost_scaling", "ok=0", "fail=8"]
    details = lines[row + 1 : row + 1 + MAX_FAILURE_DETAILS + 1]
    assert [line.startswith("      random[") for line in details] == [True] * MAX_FAILURE_DETAILS + [False]
    assert details[0] == "      random[0] m=2 line hemisphere eps=1.0: patched to fail"
    assert all(line.startswith("PASS ") for line in lines[:row])
    assert lines[-1].startswith("8 case(s) failed across ")


def test_far_apart_requests_run_solve_and_compare_without_warnings(runner, tmp_path):
    # Distances and time gaps overflow to inf in the engine and the oracle.
    path = tmp_path / "far.json"
    instance = Instance(
        MetricSpace.line(),
        tuple(
            Request(k + 1, TimedPoint((-1.0) ** k * 1e308, -8e307 if k < 9 else 8e307))
            for k in range(18)
        ),
    )
    save_instance(instance, path)
    policy = ["--policy", "hemisphere", "--epsilon", 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in (["run", "-i", path, *policy], ["opt", "-i", path], ["ratio", "-i", path, *policy]):
            result = invoke(runner, *args)
            assert result.exit_code == 0, (args[0], result.output, result.exception)
    # Every perfect matching pairs the two locations, so the optimum weighs
    # inf and the bound can be neither met nor broken.
    assert '"bound_ok": null' in result.output


def test_gen_appendix_b_writes_the_rows(runner, tmp_path):
    path = tmp_path / "rows.json"
    result = invoke(runner, "gen", "appendix-b", "--m", 8, "--delta", 0.25, "-o", path)
    assert result.exit_code == 0, result.output
    instance = load_instance(path)
    assert instance == gen_two_point_rows(TwoPointRowsParams(m=8, delta=0.25))
    assert result.output == f"wrote {path}: m=8 digest={instance_digest(instance)}\n"


def test_missing_instance_file(runner):
    result = invoke(runner, "run", "-i", "no-such.json", "--policy", "hemisphere", "--epsilon", 1)
    assert result.exit_code != 0


def assert_usage_error(result, option):
    assert result.exit_code != 0
    assert "Error:" in result.output
    assert option in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "args, option",
    [
        (["--max-m", 0], "--max-m"),
        (["--max-m", 1], "--max-m"),
        (["--count", -3, "--skip-families"], "--count"),
        (["--count", 0, "--skip-families"], "--count"),
        (["--eps", "abc"], "--eps"),
        (["--eps", "nan"], "--eps"),
        (["--eps", "inf"], "--eps"),
        (["--eps", "0"], "--eps"),
        (["--eps", ","], "--eps"),
    ],
)
def test_verify_rejects_bad_options(runner, args, option):
    assert_usage_error(invoke(runner, "verify", *args), option)


@pytest.mark.parametrize(
    "option, cap", [("--count", VERIFY_COUNT_MAX), ("--max-m", REQUEST_COUNT_MAX)]
)
def test_verify_refuses_one_past_each_cap(runner, deadline, option, cap):
    result = invoke(runner, "verify", option, cap + 1)
    assert result.exit_code == 2
    assert_usage_error(result, option)
    assert f"{cap + 1} is not in the range" in result.output


def test_gen_lower_bound_rejects_infinite_epsilon(runner, tmp_path):
    path = tmp_path / "lb.json"
    result = invoke(runner, "gen", "lower-bound", "--k", 2, "--epsilon", "inf", "-o", path)
    assert_usage_error(result, "epsilon must be finite")
    assert not path.exists()


def test_bound_above_the_request_count_cap_exits_at_once(runner, deadline):
    started = time.perf_counter()
    result = invoke(runner, "bound", "--m", REQUEST_COUNT_MAX + 2, "--epsilon", 1)
    assert time.perf_counter() - started < 5.0
    assert result.exit_code == 1
    assert_usage_error(result, f"m must be an even integer from 2 to {REQUEST_COUNT_MAX}")


def test_bound_with_huge_epsilon_exits_with_error(runner):
    result = invoke(runner, "bound", "--m", 12, "--epsilon", "1e300")
    assert_usage_error(result, "m=12, epsilon=1e+300")


@pytest.mark.parametrize("epsilon", ["inf", "1e300"])
def test_ratio_with_infinite_or_huge_epsilon_exits_with_error(runner, tmp_path, epsilon):
    path = tmp_path / "r.json"
    save_instance(gen_random(12, 1, metric="line"), path)
    result = invoke(runner, "ratio", "-i", path, "--policy", "hemisphere", "--epsilon", epsilon)
    assert_usage_error(result, "epsilon")


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "lower-bound", "--k", 40, "--epsilon", 1],
        ["sweep", "--family", "lower-bound", "--k-min", 4, "--k-max", 40],
    ],
)
def test_cascade_level_above_cap_exits_at_once(runner, tmp_path, deadline, args):
    path = tmp_path / "out"
    started = time.perf_counter()
    result = invoke(runner, *args, "-o", path)
    assert time.perf_counter() - started < 5.0
    assert_usage_error(result, f"k must be an integer from 1 to {LOWER_BOUND_K_MAX}, got 40\n")
    assert not path.exists()


@pytest.mark.parametrize(
    "args, option",
    [
        (["gen", "appendix-b", "--m", 8, "--delta", "inf"], "delta"),
        (["gen", "random", "--m", 4, "--seed", 1, "--horizon", "inf"], "horizon"),
        (["sweep", "--family", "appendix-b", "--m-list", "8,16", "--delta", "nan"], "delta"),
    ],
)
def test_generators_reject_non_finite_inputs(runner, tmp_path, args, option):
    path = tmp_path / "out"
    result = invoke(runner, *args, "-o", path)
    assert_usage_error(result, option)
    assert "must be finite" in result.output
    assert not path.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "appendix-b", "--m", 2**30, "--delta", 0.1],
        ["gen", "random", "--m", 2**30, "--seed", 1],
        ["sweep", "--family", "appendix-b", "--m-list", f"16,{2**30}"],
    ],
)
def test_request_count_above_cap_exits_at_once(runner, tmp_path, deadline, args):
    path = tmp_path / "out"
    started = time.perf_counter()
    result = invoke(runner, *args, "-o", path)
    assert time.perf_counter() - started < 5.0
    # gen random takes an even m from 0, the two-point rows a multiple of 4 from 8.
    assert_usage_error(result, f"got {2**30}\n")
    bounds = rf"(even integer from 0|integer from 8) to {REQUEST_COUNT_MAX}( and a multiple of 4)?"
    assert re.search(rf"Error: m must be an {bounds}, got {2**30}\n", result.output)
    assert not path.exists()


def test_instance_file_above_the_request_count_cap_is_an_error(runner, tmp_path):
    m = REQUEST_COUNT_MAX + 2
    path = tmp_path / "big.json"
    requests = [{"id": i, "t": float(i), "loc": 0.0} for i in range(m)]
    data = {"metric": {"kind": "line"}, "bipartite": False, "requests": requests}
    path.write_text(json.dumps(data))
    result = invoke(runner, "run", "-i", path, "--policy", "hemisphere", "--epsilon", 1)
    assert_usage_error(
        result, f"request count must be an even integer from 0 to {REQUEST_COUNT_MAX}, got {m}\n"
    )


@pytest.mark.parametrize(
    "matrix, field",
    [
        ([[0.0, None], [None, 0.0]], "matrix[0][1]"),
        ([[0.0, True], [True, 0.0]], "matrix[0][1]"),
        ([[0.0, "1.5"], ["1.5", 0.0]], "matrix[0][1]"),
        ([[0.0, 1.0], 5], "matrix[1]"),
    ],
    ids=["null", "true", "string", "row"],
)
def test_a_malformed_matrix_is_an_error_naming_the_entry(runner, tmp_path, matrix, field):
    metric = {"kind": "finite", "points": ["A", "B"], "matrix": matrix}
    requests = [{"id": 1, "t": 0.0, "loc": "A"}, {"id": 2, "t": 1.0, "loc": "B"}]
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"metric": metric, "bipartite": False, "requests": requests}))
    result = invoke(runner, "opt", "-i", path)
    assert result.exit_code == 1
    assert_usage_error(result, f"metric: {field} must be")


def test_an_int_json_cannot_convert_is_an_error_naming_the_file(runner, tmp_path):
    requests = [{"id": 1, "t": 0.0, "loc": 0.0}, {"id": 2, "t": 1.0, "loc": 1.0}]
    text = json.dumps({"metric": {"kind": "line"}, "bipartite": False, "requests": requests})
    path = tmp_path / "huge.json"
    path.write_text(text.replace('"t": 1.0', '"t": ' + "9" * 5000))
    result = invoke(runner, "opt", "-i", path)
    assert result.exit_code == 1
    assert_usage_error(result, f"Error: {path}: malformed JSON: ")


def test_request_count_cap_is_in_the_help(runner):
    for args in (["gen", "appendix-b"], ["gen", "random"], ["sweep"]):
        result = invoke(runner, *args, "--help")
        assert result.exit_code == 0
        assert str(REQUEST_COUNT_MAX) in result.output


@pytest.mark.parametrize(
    "m_list, message",
    [
        pytest.param(
            "0",
            f"m must be an integer from 8 to {REQUEST_COUNT_MAX} and a multiple of 4, got 0",
            id="0-m below 8",
        ),
        ("16,abc", "--m-list"),
        ("16, 2.5", "--m-list"),
        ("16,16", "need at least two distinct m values"),
        ("16,16,32", "m=16 is given more than once"),
    ],
)
def test_sweep_rejects_bad_m_list(runner, m_list, message):
    result = invoke(runner, "sweep", "--family", "appendix-b", "--m-list", m_list)
    assert_usage_error(result, message)


def test_sweep_appendix_b_rejects_infinite_epsilon(runner):
    result = invoke(runner, "sweep", "--family", "appendix-b", "--epsilon", "inf")
    assert_usage_error(result, "epsilon must be finite")


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "random", "--m", 4, "--seed", 1],
        ["run", "-i", "{instance}", "--policy", "hemisphere", "--epsilon", 1],
        ["sweep", "--family", "appendix-b", "--m-list", "8,16"],
    ],
)
def test_unwritable_output_path_is_an_error(runner, tmp_path, args):
    instance = tmp_path / "i.json"
    save_instance(gen_random(4, 1, metric="line"), instance)
    output = tmp_path / "no-such-dir" / "out"
    args = [str(a).format(instance=instance) for a in args]
    result = invoke(runner, *args, "-o", output)
    assert_usage_error(result, "No such file or directory")
    assert not output.parent.exists()


def test_closed_output_pipe_ends_quietly(runner, monkeypatch):
    closed_pipe = BrokenPipeError(errno.EPIPE, "Broken pipe")
    monkeypatch.setattr("mpmd.cli.click.echo", Mock(side_effect=closed_pipe))
    result = invoke(runner, "sweep", "--family", "appendix-b", "--m-list", "8,16")
    assert result.exit_code == 1
    assert "Error" not in result.output
