"""Command-line front end.

Subcommands: table (d.f. values on a grid), sample (law draws), ep
(extremal-process paths or compound-marginal draws), ar1 (max-AR(1)
chains and a stationarity check), verify (the numerical check registry).

All numeric output is written with 17 significant digits so files round
trip losslessly; a run with identical flags and seed is byte-identical.
CSV columns are float64 and carry exactly the bytes of "%.17g", built
with numpy a block of 8,192 rows at a time and written in binary mode,
so every line ends in "\\n" on every platform.  A command allocates the
formatter's buffers once and every block reuses them, so a block
touches no fresh memory (a page fault per 4 KB page) but its output,
and its working set stays in a core's L2 cache.  The step index of ar1
is an integral float below 2**53, so it prints as its "%d" digits.
Exit codes: 0 success, 1 a verification check failed, 2 usage error.

Only click is imported here: each command imports the layers it runs
(and numpy, json, the check registry) in its body, so --help, click's
usage errors and shell completion load no layer and no numpy, and a
command compiles only the modules it uses.
"""

from __future__ import annotations

import math

import click

__all__ = ["main"]

# literals, so that --help and click's usage errors need no layer and no numpy;
# tests pin them to LawKind, Family, verify.MC_SIZE and verify.AR1_LAG
_KINDS = ("base", "g-mid", "gamma-mid", "ggamma-mid")
_FAMILIES = ("frechet", "weibull", "gumbel")

# ar1 --check runs one T3_3 cell of the verification registry; the
# benchmark oracle in perfbench/workloads.py reads these two sizes
AR1_CHECK_CHAINS = 100_000
AR1_CHECK_LAG = 100


def _law(kind: str, family: str, alpha: float, beta: float):
    from .exponents import Exponent
    from .laws import MaxLaw

    return MaxLaw(kind, Exponent(family, alpha), beta)


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be LO:HI:COUNT, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    # an inf or NaN bound, or a span beyond float range, gives np.linspace NaN points
    if not math.isfinite(hi - lo):
        raise ValueError(f"grid needs finite LO, HI and HI - LO, got {text!r}")
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    if count > 1 and not lo < hi:
        raise ValueError(f"grid needs LO < HI, got {text!r}")
    return lo, hi, count


def _write_csv(out: str, header: str, *columns) -> None:
    """The header, then row i of the float64 (or range) columns, each value as %.17g."""
    from ._csv import csv_blocks

    with click.open_file(out, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for block in csv_blocks(columns):
            fh.write(block)


seed_option = click.option("--seed", type=int, default=0, envvar="MAXDIV_SEED", show_default=True, help="Random seed (env MAXDIV_SEED).")
stream_option = click.option("--stream", type=int, default=0, show_default=True, help="Independent substream index.")
out_option = click.option("--out", default="-", show_default=True, help="Output path; - is stdout.")
family_option = click.option("--family", type=click.Choice(_FAMILIES), default="frechet", show_default=True)
alpha_option = click.option("--alpha", type=float, default=1.0, show_default=True)
beta_option = click.option("--beta", type=float, default=1.0, show_default=True)


@click.group()
def main() -> None:
    """Max-infinitely divisible laws: tables, samplers, processes, checks."""


@main.command()
@click.option("--kind", type=click.Choice(_KINDS), default="ggamma-mid", show_default=True)
@family_option
@alpha_option
@beta_option
@click.option("--grid", "grid_spec", default="0.1:10:100", show_default=True, help="x grid LO:HI:COUNT.")
@click.option("--qgrid", "qgrid_spec", default=None, help="Quantile-spaced grid ULO:UHI:COUNT; overrides --grid.")
@out_option
def table(kind, family, alpha, beta, grid_spec, qgrid_spec, out) -> None:
    """Write rows (x, cdf, neg_log_cdf) on a grid."""
    import numpy as np

    try:
        law = _law(kind, family, alpha, beta)
        if qgrid_spec is not None:
            lo, hi, count = _parse_grid(qgrid_spec)
            xs = law.quantile(np.linspace(lo, hi, count))
        else:
            lo, hi, count = _parse_grid(grid_spec)
            xs = np.linspace(lo, hi, count)
        cdf = law.cdf(xs)
        nl = law.neg_log_cdf(xs)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write_csv(out, "x,cdf,neg_log_cdf", xs, cdf, nl)


@main.command()
@click.option("--kind", type=click.Choice(_KINDS), default="ggamma-mid", show_default=True)
@family_option
@alpha_option
@beta_option
@click.option("--n", type=int, default=1000, show_default=True)
@click.option("--route", type=click.Choice(("inverse", "latent")), default="inverse", show_default=True)
@seed_option
@stream_option
@out_option
def sample(kind, family, alpha, beta, n, route, seed, stream, out) -> None:
    """Write n draws from a law, one per row."""
    from .rng import RandomSource

    try:
        law = _law(kind, family, alpha, beta)
        rng = RandomSource(seed, stream).generator()
        if route == "inverse":
            draws = law.sample_inverse(rng, n)
        else:
            draws = law.sample_latent(rng, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write_csv(out, "value", draws)


@main.command()
@click.option("--base", "base_kind", type=click.Choice(_KINDS), default="base", show_default=True, help="Kind of the driving law.")
@family_option
@alpha_option
@beta_option
@click.option("--path", "path_mode", is_flag=True, help="Simulate one path on --times.")
@click.option("--times", default="0.5:3:6", show_default=True, help="Time grid LO:HI:COUNT for --path.")
@click.option("--compound", "sub_kind", type=click.Choice(("gamma", "ggamma")), default=None, help="Subordinate by a random time and draw the compound marginal.")
@click.option("--sub-beta", type=float, default=1.0, show_default=True, help="Shape of the ggamma subordinator.")
@click.option("--t", "t_value", type=float, default=1.0, show_default=True)
@click.option("--n", type=int, default=1000, show_default=True)
@seed_option
@stream_option
@out_option
def ep(base_kind, family, alpha, beta, path_mode, times, sub_kind, sub_beta, t_value, n, seed, stream, out) -> None:
    """Extremal process: path rows (t, value) or compound draws at time t."""
    if path_mode == (sub_kind is not None):
        raise click.UsageError("choose exactly one of --path or --compound")
    import numpy as np

    from .extremal import ExtremalSpec, SubordinatorSpec, compound_simulate, ep_simulate_path
    from .rng import RandomSource

    try:
        spec = ExtremalSpec(_law(base_kind, family, alpha, beta))
        rng = RandomSource(seed, stream).generator()
        if path_mode:
            lo, hi, count = _parse_grid(times)
            path = ep_simulate_path(spec, np.linspace(lo, hi, count), rng)
            _write_csv(out, "t,value", path.times, path.values)
            return
        sub = SubordinatorSpec(sub_kind, sub_beta)
        draws = compound_simulate(spec, sub, t_value, rng, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write_csv(out, "value", draws)


@main.command()
@click.option("--p", type=float, required=True, help="Reset probability.")
@click.option("--beta", type=float, default=1.0, show_default=True, help="Stationary marginal shape.")
@family_option
@alpha_option
@click.option("--steps", type=int, default=1000, show_default=True)
@click.option("--innovation-beta", type=float, default=None, help="Override the stationary innovation shape p*beta.")
@click.option("--check", "check_mode", is_flag=True, help="KS-check the lag-100 marginal across 10^5 chains; print a JSON summary.")
@seed_option
@stream_option
@out_option
@click.pass_context
def ar1(ctx, p, beta, family, alpha, steps, innovation_beta, check_mode, seed, stream, out) -> None:
    """Simulate the max-AR(1) chain or check its stationary marginal."""
    from .ar1 import Ar1Spec, ar1_simulate
    from .exponents import Exponent
    from .rng import RandomSource

    try:
        spec = Ar1Spec(p, beta, Exponent(family, alpha))
        rng = RandomSource(seed, stream).generator()
        if check_mode:
            import json

            from .verify import _ar1_draw, _mc_cell

            draws = _ar1_draw(spec, innovation_beta)(rng, AR1_CHECK_CHAINS)
            report = _mc_cell(draws, beta, spec.exponent)
            summary = {
                "p": p,
                "beta": beta,
                "innovation_beta": spec.innovation_beta if innovation_beta is None else innovation_beta,
                "ks_statistic": report.statistic,
                "pass": report.passed,
            }
            with click.open_file(out, "w") as fh:
                fh.write(json.dumps(summary, indent=2) + "\n")
            if not report.passed:
                ctx.exit(1)
            return
        chain = ar1_simulate(spec, steps, rng, innovation_beta=innovation_beta)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write_csv(out, "step,value", range(chain.size), chain)


@main.command("verify")
@click.argument("checks", nargs=-1)
@seed_option
@click.option("--out", default=None, help="Also write the reports as JSON to this path.")
@click.pass_context
def verify_cmd(ctx, checks, seed, out) -> None:
    """Run registered checks (default: all) and print one line each."""
    from .rng import RandomSource
    from .verify import CHECK_IDS, format_report, report_to_dict
    from .verify import verify as run_check

    try:
        RandomSource(seed)  # every check draws from a source under this seed
    except ValueError as exc:
        raise click.UsageError(str(exc))
    wanted = list(checks) or ["all"]
    if wanted == ["all"]:
        selected = list(CHECK_IDS)
    else:
        unknown = [c for c in wanted if c not in CHECK_IDS]
        if unknown:
            raise click.UsageError(f"unknown check(s): {', '.join(unknown)}; known: {', '.join(CHECK_IDS)}")
        selected = [c for c in CHECK_IDS if c in set(wanted)]
    reports = [run_check(c, seed) for c in selected]
    for report in reports:
        click.echo(format_report(report))
    if out is not None:
        import json

        with click.open_file(out, "w") as fh:
            fh.write(json.dumps([report_to_dict(r) for r in reports], indent=2) + "\n")
    if not all(r.passed for r in reports):
        ctx.exit(1)


if __name__ == "__main__":
    main()
