"""Command-line front end: generate, run, solve, compare, sweep, verify."""

from __future__ import annotations

import json
import math
import sys

import click

import mpmd
from mpmd.engine import POLICY_KINDS, Policy, simulate
from mpmd.harness import compute_ratio, sweep, theoretical_bound
from mpmd.instances import (
    DEFAULT_ETA,
    LOWER_BOUND_K_MAX,
    REQUEST_COUNT_MAX,
    LowerBoundParams,
    TwoPointRowsParams,
    gen_lower_bound,
    gen_random,
    gen_two_point_rows,
    instance_digest,
    load_instance,
    save_instance,
)
from mpmd.metric import EUCLIDEAN_DIM_MAX, FINITE_POINTS_MAX, is_finite_real
from mpmd.oracle import opt_bipartite, opt_general
from mpmd.verify import VERIFY_COUNT_MAX, run_verify

_POLICY_CHOICE = click.Choice(POLICY_KINDS)


def _meta(**fields) -> dict:
    meta = {"tool": "mpmd", "version": mpmd.__version__}
    meta.update({k: v for k, v in fields.items() if v is not None})
    return meta


def _json(payload: dict) -> str:
    """Strict JSON of a payload, each non-finite top-level float written as null.

    A cost can overflow to inf (line locations -1e308 and 1e308), and a ratio
    against an optimum of weight 0 is infinite; JSON holds neither.
    """
    payload = {
        k: None if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in payload.items()
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


class _Main(click.Group):
    """The error boundary: bad input and unusable files end as ``Error:`` lines."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click's own main() exits quietly when the reader has gone
        except (OSError, ValueError) as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Main)
@click.version_option(mpmd.__version__, prog_name="mpmd")
def main() -> None:
    """Simulation lab for online minimum-cost perfect matching with delays."""


@main.group()
def gen() -> None:
    """Generate instance files."""


@gen.command("lower-bound")
@click.option("--k", type=int, required=True,
              help=f"Levels; the instance has 2**k requests.  At most {LOWER_BOUND_K_MAX}.")
@click.option("--epsilon", type=float, required=True, help="Radius growth rate the family targets.")
@click.option("--eta", type=float, default=DEFAULT_ETA, show_default=True,
              help="Tie-breaking gap shrink factor.")
@click.option("-o", "--output", type=click.Path(), required=True)
def gen_lower_bound_cmd(k: int, epsilon: float, eta: float, output: str) -> None:
    """Single-point cascade that forces nested adversarial matches."""
    instance = gen_lower_bound(LowerBoundParams(k=k, epsilon=epsilon, eta=eta))
    save_instance(instance, output)
    click.echo(f"wrote {output}: m={instance.size} digest={instance_digest(instance)}")


@gen.command("appendix-b")
@click.option("--m", type=int, required=True,
              help=f"Request count, a multiple of 4, from 8 to {REQUEST_COUNT_MAX}.")
@click.option("--delta", type=float, required=True, help="Short gap and excess of the cross distance over 2.")
@click.option("-o", "--output", type=click.Path(), required=True)
def gen_appendix_b_cmd(m: int, delta: float, output: str) -> None:
    """Two-point rows that defeat space-only sphere growth."""
    instance = gen_two_point_rows(TwoPointRowsParams(m=m, delta=delta))
    save_instance(instance, output)
    click.echo(f"wrote {output}: m={instance.size} digest={instance_digest(instance)}")


def _parse_metric(ctx, param, value: str) -> tuple[str, dict]:
    """line, euclidean:D or finite:N, as gen_random's metric and keyword arguments."""
    kind, _, arg = value.partition(":")
    if kind not in ("line", "euclidean", "finite") or (kind == "line" and arg):
        raise click.BadParameter(f"expected line, euclidean:D or finite:N, got {value!r}")
    if not arg:
        return kind, {}
    if kind == "euclidean":
        key, what, low, high = "dim", "dimension D", 1, EUCLIDEAN_DIM_MAX
    else:
        key, what, low, high = "n_points", "point count N", 2, FINITE_POINTS_MAX
    if not (arg.isdecimal() and low <= int(arg) <= high):
        raise click.BadParameter(f"the {what} must be an integer from {low} to {high}, got {arg!r}")
    return kind, {key: int(arg)}


@gen.command("random")
@click.option("--m", type=int, required=True,
              help=f"Even request count, at most {REQUEST_COUNT_MAX}.")
@click.option("--seed", type=int, required=True)
@click.option("--metric", default="line", show_default=True, callback=_parse_metric,
              help=f"line, euclidean:D with D at most {EUCLIDEAN_DIM_MAX}, "
                   f"or finite:N with N at most {FINITE_POINTS_MAX}.")
@click.option("--horizon", type=float, default=10.0, show_default=True,
              help="Arrival times and coordinates are drawn from [0, horizon].")
@click.option("--bipartite", is_flag=True, default=False)
@click.option("-o", "--output", type=click.Path(), required=True)
def gen_random_cmd(
    m: int, seed: int, metric: tuple[str, dict], horizon: float, bipartite: bool, output: str
) -> None:
    """Seeded random instance."""
    kind, kwargs = metric
    instance = gen_random(m, seed, metric=kind, horizon=horizon, bipartite=bipartite, **kwargs)
    save_instance(instance, output)
    click.echo(f"wrote {output}: m={instance.size} digest={instance_digest(instance)}")


def _records_csv(report, meta: dict) -> str:
    lines = [f"# {json.dumps(meta, sort_keys=True)}"]
    lines.append("p,q,match_time,connection,delay_p,delay_q")
    for rec in report.records:
        lines.append(
            f"{rec.p},{rec.q},{rec.match_time!r},{rec.connection!r},"
            f"{rec.delay_p!r},{rec.delay_q!r}"
        )
    return "\n".join(lines) + "\n"


@main.command("run")
@click.option("-i", "--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--policy", type=_POLICY_CHOICE, required=True)
@click.option("--epsilon", type=float, required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json",
              show_default=True, help="csv emits the match records, json the cost summary.")
@click.option("-o", "--output", type=click.Path(), default=None, help="Write to a file instead of stdout.")
def run_cmd(instance_path: str, policy: str, epsilon: float, fmt: str, output: str | None) -> None:
    """Simulate one policy over an instance file."""
    instance = load_instance(instance_path)
    report = simulate(instance, Policy(kind=policy, epsilon=epsilon))
    meta = _meta(policy=policy, epsilon=epsilon, instance=instance_digest(instance))
    if fmt == "csv":
        _emit(_records_csv(report, meta), output)
    else:
        summary = {
            "meta": meta,
            "m": instance.size,
            "online_cost": report.online_cost,
            "offline_weight": report.offline_weight,
        }
        _emit(_json(summary), output)


@main.command("opt")
@click.option("-i", "--instance", "instance_path", type=click.Path(exists=True), required=True)
def opt_cmd(instance_path: str) -> None:
    """Exact offline optimum of an instance file, in the instance's own variant."""
    instance = load_instance(instance_path)
    matching = opt_bipartite(instance) if instance.bipartite else opt_general(instance)
    payload = {
        "meta": _meta(instance=instance_digest(instance)),
        "m": instance.size,
        "weight": matching.weight,
        "pairs": [list(p) for p in matching.pairs],
    }
    click.echo(_json(payload), nl=False)


@main.command("ratio")
@click.option("-i", "--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--policy", type=_POLICY_CHOICE, required=True)
@click.option("--epsilon", type=float, required=True)
def ratio_cmd(instance_path: str, policy: str, epsilon: float) -> None:
    """Competitive ratios of one policy run against the exact optimum."""
    instance = load_instance(instance_path)
    report = compute_ratio(instance, Policy(kind=policy, epsilon=epsilon))
    payload = {"meta": _meta(instance=instance_digest(instance)), **report.to_dict()}
    click.echo(_json(payload), nl=False)


def _parse_m_list(ctx, param, value: str) -> list[int]:
    """Comma-separated integer request counts; the family checks their range."""
    ms = []
    for tok in filter(None, (tok.strip() for tok in value.split(","))):
        try:
            ms.append(int(tok))
        except ValueError:
            raise click.BadParameter(f"{tok!r} is not an integer") from None
    return ms


@main.command("sweep")
@click.option("--family", type=click.Choice(["lower-bound", "appendix-b"]), required=True)
@click.option("--epsilon", type=float, default=1.0, show_default=True)
@click.option("--policy", type=_POLICY_CHOICE, default=None,
              help="Defaults to hemisphere for lower-bound, notime-min for appendix-b.")
@click.option("--k-min", type=int, default=4, show_default=True, help="lower-bound only.")
@click.option("--k-max", type=int, default=10, show_default=True,
              help=f"lower-bound only; at most {LOWER_BOUND_K_MAX}.")
@click.option("--eta", type=float, default=DEFAULT_ETA, show_default=True, help="lower-bound only.")
@click.option("--m-list", default="16,32,64,128", show_default=True, callback=_parse_m_list,
              help=f"appendix-b only; comma-separated request counts, each at most "
                   f"{REQUEST_COUNT_MAX}.")
@click.option("--delta", type=float, default=None,
              help="appendix-b only; defaults to 1/m per instance.")
@click.option("-o", "--output", type=click.Path(), default=None)
@click.pass_context
def sweep_cmd(
    ctx: click.Context,
    family: str,
    epsilon: float,
    policy: str | None,
    k_min: int,
    k_max: int,
    eta: float,
    m_list: list[int],
    delta: float | None,
    output: str | None,
) -> None:
    """Ratio growth of a policy over an adversarial family."""
    if family == "lower-bound":
        values, own, other = range(k_min, k_max + 1), {"eta": eta}, ("m_list", "delta")
    else:
        values, own, other = m_list, {"delta": delta}, ("k_min", "k_max", "eta")
    # Only options typed on the command line: the other family's defaults stand.
    for param in ctx.command.params:
        if param.name in other and (
            ctx.get_parameter_source(param.name) is click.core.ParameterSource.COMMANDLINE
        ):
            raise click.UsageError(f"{param.opts[0]} does not apply to --family {family}", ctx)
    result = sweep(family, values, epsilon, policy_kind=policy, **own)
    meta = _meta(family=family, policy=result.policy_kind, epsilon=epsilon, **own)
    lines = [f"# {json.dumps(meta, sort_keys=True)}"]
    lines.append("m,ratio_online,ratio_offline,opt_exact,instance")
    for row in result.rows:
        lines.append(
            f"{row.m},{row.ratio_online!r},{row.ratio_offline!r},"
            f"{int(row.opt_exact)},{row.digest}"
        )
    lines.append(f"# fitted_log2_slope={result.slope!r}")
    _emit("\n".join(lines) + "\n", output)
    if output:
        click.echo(f"wrote {output}: fitted_log2_slope={result.slope!r}")


@main.command("bound")
@click.option("--m", type=int, required=True,
              help=f"Even request count, at most {REQUEST_COUNT_MAX}.")
@click.option("--epsilon", type=float, required=True)
def bound_cmd(m: int, epsilon: float) -> None:
    """Theoretical offline-ratio bound 2/f(m) at gamma = 3 + epsilon."""
    value = theoretical_bound(m, epsilon)
    click.echo(json.dumps({"m": m, "epsilon": epsilon, "bound_2_over_f": value}))


def _parse_eps_list(ctx, param, value: str) -> tuple[float, ...]:
    """Comma-separated epsilons, each a finite number > 0, at least one."""
    eps_list = []
    for tok in filter(None, (tok.strip() for tok in value.split(","))):
        try:
            eps = float(tok)
        except ValueError:
            eps = None
        if not (is_finite_real(eps) and eps > 0):
            raise click.BadParameter(f"{tok!r} is not a finite number > 0")
        eps_list.append(eps)
    if not eps_list:
        raise click.BadParameter("needs at least one epsilon")
    return tuple(eps_list)


@main.command("verify")
@click.option("--count", type=click.IntRange(0, VERIFY_COUNT_MAX), default=200,
              show_default=True, help="Number of seeded random instances.")
@click.option("--max-m", type=click.IntRange(2, REQUEST_COUNT_MAX), default=12, show_default=True)
@click.option("--eps", "eps_list", default="0.1,0.5,1,2", show_default=True,
              callback=_parse_eps_list, help="Comma-separated epsilon values.")
@click.option("--seed", type=int, default=20240, show_default=True)
@click.option("--skip-families", is_flag=True, default=False,
              help="Check random instances only.")
def verify_cmd(
    count: int, max_m: int, eps_list: tuple[float, ...], seed: int, skip_families: bool
) -> None:
    """Run the full cross-module invariant suite; nonzero exit on any failure."""
    if count == 0 and skip_families:
        raise click.BadParameter(
            "must be at least 1 with --skip-families", param_hint="'--count'"
        )
    results = run_verify(
        count=count,
        max_m=max_m,
        eps_list=eps_list,
        seed=seed,
        include_families=not skip_families,
    )
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        click.echo(f"{status}  {r.name:<{width}}  ok={r.passed} fail={r.failed}")
        for detail in r.details:
            click.echo(f"      {detail}")
        failed += r.failed
    click.echo(
        f"{'all checks passed' if failed == 0 else f'{failed} case(s) failed'}"
        f" across {len(results)} invariants"
    )
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
