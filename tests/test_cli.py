"""Command-line interface: output shapes, determinism, exit codes."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from maxdiv import Family, LawKind
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
    assert runner.invoke(main, ["table", "--kind", "cauchy"]).exit_code == 2


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
