"""CLI surface: every subcommand, output formats, and exit codes."""

import errno
import json
import time
from unittest.mock import Mock

import pytest
from click.testing import CliRunner

from mpmd.cli import main
from mpmd.instances import LOWER_BOUND_K_MAX, REQUEST_COUNT_MAX, gen_random, save_instance
from mpmd.metric import EUCLIDEAN_DIM_MAX, FINITE_POINTS_MAX
from mpmd.oracle import opt_bipartite


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


def test_sweep_lower_bound_csv(runner, tmp_path):
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


def test_gen_lower_bound_rejects_infinite_epsilon(runner, tmp_path):
    path = tmp_path / "lb.json"
    result = invoke(runner, "gen", "lower-bound", "--k", 2, "--epsilon", "inf", "-o", path)
    assert_usage_error(result, "epsilon must be finite")
    assert not path.exists()


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
    assert_usage_error(result, f"k must be at most {LOWER_BOUND_K_MAX}")
    assert "got k=40, which asks for 2**40 requests" in result.output
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
    assert_usage_error(result, f"m must be at most {REQUEST_COUNT_MAX} requests, got m={2**30}")
    assert not path.exists()


def test_request_count_cap_is_in_the_help(runner):
    for args in (["gen", "appendix-b"], ["gen", "random"], ["sweep"]):
        result = invoke(runner, *args, "--help")
        assert result.exit_code == 0
        assert str(REQUEST_COUNT_MAX) in result.output


@pytest.mark.parametrize(
    "m_list, message",
    [("0", "m must be >= 8, got 0"), ("16,abc", "--m-list"), ("16, 2.5", "--m-list")],
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
