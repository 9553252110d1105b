"""Command-line interface: output shapes, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import maxdiv
from maxdiv import Exponent, Family, LawKind, MaxLaw, RandomSource
from maxdiv._csv import BLOCK_ROWS
from maxdiv.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def lines_of(result):
    return result.output.strip("\n").split("\n")


def test_table_default_grid(runner):
    result = runner.invoke(main, ["table"])
    assert result.exit_code == 0
    rows = lines_of(result)
    assert rows[0] == "x,cdf,neg_log_cdf"
    assert len(rows) == 101
    first = rows[1].split(",")
    assert float(first[0]) == 0.1
    cdf_values = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(np.diff(cdf_values) > 0.0)
    for kind in LawKind:
        for family in Family:
            result = runner.invoke(main, ["table", "--kind", kind.value, "--family", family.value])
            assert result.exit_code == 0, (kind, family, result.output)
            assert len(lines_of(result)) == 101


def test_table_quantile_grid_and_law_options(runner):
    result = runner.invoke(
        main,
        ["table", "--kind", "gamma-mid", "--family", "weibull", "--alpha", "2",
         "--beta", "0.5", "--qgrid", "0.1:0.9:9"],
    )
    assert result.exit_code == 0
    rows = lines_of(result)
    assert len(rows) == 10
    xs = np.array([float(r.split(",")[0]) for r in rows[1:]])
    assert np.all(xs < 0.0)  # this family lives on the negative half-line
    cdf_values = np.array([float(r.split(",")[1]) for r in rows[1:]])
    np.testing.assert_allclose(cdf_values, np.linspace(0.1, 0.9, 9), rtol=0, atol=1e-12)


def test_table_rejects_malformed_grid(runner):
    assert runner.invoke(main, ["table", "--grid", "nope"]).exit_code == 2
    assert runner.invoke(main, ["table", "--grid", "5:1:10"]).exit_code == 2
    assert runner.invoke(main, ["table", "--grid", "1:2:0"]).exit_code == 2
    assert runner.invoke(main, ["table", "--kind", "cauchy"]).exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--grid", "0:inf:3"],
        ["table", "--grid", "-inf:1:3", "--family", "gumbel"],
        ["table", "--grid", "1:inf:1"],
        ["table", "--grid", "nan:1:1"],
        ["table", "--grid", "-1.7e308:1.7e308:3", "--family", "gumbel"],
        ["table", "--qgrid", "0.1:inf:3"],
        ["ep", "--path", "--times", "0.5:inf:3"],
    ],
)
def test_grid_bounds_must_be_finite(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "finite" in result.output


def test_sample_is_seed_deterministic(runner):
    args = ["sample", "--n", "50", "--seed", "9"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    c = runner.invoke(main, ["sample", "--n", "50", "--seed", "10"])
    assert a.exit_code == 0
    assert a.output == b.output
    assert a.output != c.output
    assert lines_of(a)[0] == "value"
    assert len(lines_of(a)) == 51


def test_sample_reads_seed_from_environment(runner):
    via_flag = runner.invoke(main, ["sample", "--n", "20", "--seed", "7"])
    via_env = runner.invoke(main, ["sample", "--n", "20"], env={"MAXDIV_SEED": "7"})
    assert via_env.exit_code == 0
    assert via_env.output == via_flag.output


def test_sample_routes_agree_in_distribution_but_not_pointwise(runner):
    inverse = runner.invoke(main, ["sample", "--n", "30", "--route", "inverse", "--seed", "3"])
    latent = runner.invoke(main, ["sample", "--n", "30", "--route", "latent", "--seed", "3"])
    assert inverse.exit_code == 0 and latent.exit_code == 0
    assert inverse.output != latent.output


def test_sample_rejects_latent_route_for_base_kind(runner):
    result = runner.invoke(main, ["sample", "--kind", "base", "--route", "latent"])
    assert result.exit_code == 2


def test_ep_path_rows_are_nondecreasing(runner):
    result = runner.invoke(main, ["ep", "--path", "--times", "0.5:3:6", "--seed", "4"])
    assert result.exit_code == 0
    rows = lines_of(result)
    assert rows[0] == "t,value"
    assert len(rows) == 7
    values = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(np.diff(values) >= 0.0)


def test_ep_compound_draws(runner):
    result = runner.invoke(
        main, ["ep", "--compound", "gamma", "--t", "2.0", "--n", "40", "--seed", "5"]
    )
    assert result.exit_code == 0
    assert len(lines_of(result)) == 41


def test_ep_requires_exactly_one_mode(runner):
    assert runner.invoke(main, ["ep"]).exit_code == 2
    assert runner.invoke(main, ["ep", "--path", "--compound", "gamma"]).exit_code == 2


def test_ep_ggamma_subordination_needs_unit_time(runner):
    bad = runner.invoke(main, ["ep", "--compound", "ggamma", "--t", "2.0", "--n", "10"])
    assert bad.exit_code == 2
    good = runner.invoke(main, ["ep", "--compound", "ggamma", "--t", "1.0", "--n", "10"])
    assert good.exit_code == 0


def test_ar1_chain_rows(runner):
    result = runner.invoke(main, ["ar1", "--p", "0.5", "--steps", "20", "--seed", "6"])
    assert result.exit_code == 0
    rows = lines_of(result)
    assert rows[0] == "step,value"
    assert len(rows) == 21
    assert rows[1].split(",")[0] == "0"


def test_ar1_rejects_bad_p(runner):
    assert runner.invoke(main, ["ar1", "--p", "1.5", "--steps", "5"]).exit_code == 2
    assert runner.invoke(main, ["ar1"]).exit_code == 2  # --p is required


def test_ar1_check_reports_stationarity(runner):
    result = runner.invoke(main, ["ar1", "--p", "0.5", "--check", "--seed", "0"])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["pass"] is True
    assert summary["innovation_beta"] == 0.5
    assert summary["ks_statistic"] < 0.0052


def test_ar1_check_fails_for_wrong_innovation_shape(runner):
    result = runner.invoke(
        main,
        ["ar1", "--p", "0.5", "--check", "--innovation-beta", "2.0", "--seed", "0"],
    )
    assert result.exit_code == 1
    summary = json.loads(result.output)
    assert summary["pass"] is False
    assert summary["innovation_beta"] == 2.0


def test_verify_single_check_line(runner):
    result = runner.invoke(main, ["verify", "T2_1"])
    assert result.exit_code == 0
    rows = lines_of(result)
    assert len(rows) == 1
    assert rows[0].startswith("T2_1")
    assert "PASS" in rows[0]


def test_verify_all_is_byte_identical_across_reruns(runner):
    a = runner.invoke(main, ["verify", "all", "--seed", "42"])
    b = runner.invoke(main, ["verify", "all", "--seed", "42"])
    assert a.exit_code == 0
    assert a.output == b.output
    rows = lines_of(a)
    assert len(rows) == 11
    assert all("PASS" in row for row in rows)


def test_verify_unknown_check_is_a_usage_error(runner):
    result = runner.invoke(main, ["verify", "T9_9"])
    assert result.exit_code == 2
    assert "unknown check" in result.output


def test_verify_negative_seed_is_a_usage_error(runner):
    # exit 1 means a check failed; a bad seed is a usage error, as in sample, ep and ar1
    for result in (
        runner.invoke(main, ["verify", "--seed", "-1"]),
        runner.invoke(main, ["verify", "T2_1"], env={"MAXDIV_SEED": "-1"}),
    ):
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "nonnegative" in result.output
        assert "Traceback" not in result.output


def test_verify_writes_json_reports(runner, tmp_path):
    out = tmp_path / "reports.json"
    result = runner.invoke(main, ["verify", "T2_1", "T2_5", "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert [r["theorem_id"] for r in payload] == ["T2_1", "T2_5"]
    assert all(r["pass"] for r in payload)


def test_table_writes_to_file(runner, tmp_path):
    out = tmp_path / "table.csv"
    result = runner.invoke(main, ["table", "--out", str(out)])
    assert result.exit_code == 0
    assert result.output == ""
    content = out.read_text().strip("\n").split("\n")
    assert content[0] == "x,cdf,neg_log_cdf"
    assert len(content) == 101


def csv_text(header, *columns):
    """The CSV the CLI promises, formatted value by value: %d and %.17g."""
    formats = ["%d" if c.dtype.kind in "iu" else "%.17g" for c in columns]
    rows = zip(*(c.tolist() for c in columns))
    return (header + "\n" + "".join(",".join(f % v for f, v in zip(formats, row)) + "\n" for row in rows)).encode()


@pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_sample_bytes_across_block_boundaries(runner, tmp_path, n):
    law = MaxLaw("ggamma-mid", Exponent("weibull", 1.5), 0.7)
    draws = law.sample_inverse(RandomSource(3).generator(), n)
    want = csv_text("value", draws)
    args = ["sample", "--family", "weibull", "--alpha", "1.5", "--beta", "0.7", "--n", str(n), "--seed", "3"]
    to_stdout = runner.invoke(main, args)
    assert to_stdout.exit_code == 0
    assert to_stdout.stdout_bytes == want
    out = tmp_path / "draws.csv"
    assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
    assert out.read_bytes() == want


def test_multi_column_commands_match_per_value_formatting(runner):
    law = MaxLaw("gamma-mid", Exponent("frechet", 2.0), 0.5)
    xs = law.quantile(np.linspace(1e-9, 1 - 1e-9, 70_001))
    table = runner.invoke(main, ["table", "--kind", "gamma-mid", "--alpha", "2", "--beta", "0.5", "--qgrid", "1e-9:0.999999999:70001"])
    assert table.stdout_bytes == csv_text("x,cdf,neg_log_cdf", xs, law.cdf(xs), law.neg_log_cdf(xs))

    spec = maxdiv.Ar1Spec(0.3, 1.2, Exponent("gumbel", 1.0))
    chain = maxdiv.ar1_simulate(spec, 66_000, RandomSource(6).generator())
    ar1 = runner.invoke(main, ["ar1", "--p", "0.3", "--beta", "1.2", "--family", "gumbel", "--steps", "66000", "--seed", "6"])
    assert ar1.stdout_bytes == csv_text("step,value", np.arange(chain.size), chain)

    times = np.linspace(0.001, 1000.0, 70_000)
    path = maxdiv.ep_simulate_path(maxdiv.ExtremalSpec(MaxLaw("base", Exponent("frechet", 1.0), 1.0)), times, RandomSource(4).generator())
    ep = runner.invoke(main, ["ep", "--path", "--times", "0.001:1000:70000", "--seed", "4"])
    assert ep.stdout_bytes == csv_text("t,value", path.times, path.values)


def test_stdout_of_a_real_process_is_the_same_bytes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(maxdiv.__file__)))
    env.pop("MAXDIV_SEED", None)
    args = [sys.executable, "-m", "maxdiv.cli", "ar1", "--p", "0.5", "--steps", "1000", "--seed", "2"]
    piped = subprocess.run(args, capture_output=True, env=env, check=True).stdout
    subprocess.run(args + ["--out", str(tmp_path / "chain.csv")], env=env, check=True)
    assert piped == (tmp_path / "chain.csv").read_bytes()
    spec = maxdiv.Ar1Spec(0.5, 1.0, Exponent("frechet", 1.0))
    chain = maxdiv.ar1_simulate(spec, 1000, RandomSource(2).generator())
    assert piped == csv_text("step,value", np.arange(chain.size), chain)


# Runs argv and prints the peak RSS of its children.  Linux keeps the
# high-water mark a process had before it exec'd another program, so a
# child of the test process would report the test process's own peak;
# this launcher imports nothing large, and its children start from it.
PEAK_LAUNCHER = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux only")
def test_a_long_chain_costs_the_cli_little_more_than_its_output(tmp_path):
    # 10**6 steps hold the chain (8 MB) and a reset flag per step (1 MB)
    # beyond what 10 steps hold, the step index being formatted a block at
    # a time; a whole step index column held 8 MB more, and the whole-chain
    # scan 46.6 MB more
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(maxdiv.__file__)))
    env.pop("MAXDIV_SEED", None)

    def peak_bytes(steps):
        args = ["-m", "maxdiv.cli", "ar1", "--p", "0.5", "--steps", str(steps), "--out", str(tmp_path / "chain.csv")]
        run = subprocess.run([sys.executable, "-c", PEAK_LAUNCHER, sys.executable, *args], capture_output=True, env=env, check=True)
        return 1024 * int(run.stdout)

    output = 8 * 10**6
    gap = peak_bytes(10**6) - peak_bytes(10)
    assert gap <= 1.5 * output, gap / output
