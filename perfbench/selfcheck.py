"""Show that the benchmark's oracle rejects wrong outputs, without touching src/.

    python3 perfbench/selfcheck.py

Each case feeds the oracle of workloads.py an output that is wrong in
one known way and expects OpFailed; the matching correct output must
pass.  Exits 1 if any case is misjudged.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import maxdiv  # noqa: E402
import workloads  # noqa: E402
from workloads import OpFailed, check_draws  # noqa: E402


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except OpFailed:
        return True
    return False


def cases(workdir: str):
    rng = maxdiv.RandomSource(7).generator()
    beta, p = 1.4, 0.01
    exponent = maxdiv.Exponent("frechet", 1.5)
    geo = maxdiv.geo_max_sample(maxdiv.ggamma_mid(beta, exponent), p, rng, 100_000)
    yield "geo-max draws vs ggamma_mid(beta/p)", False, check_draws, geo, (100_000,), "frechet", maxdiv.ggamma_mid(beta / p, exponent).cdf
    yield "geo-max draws vs ggamma_mid(beta)", True, check_draws, geo, (100_000,), "frechet", maxdiv.ggamma_mid(beta, exponent).cdf
    # t < 1 puts ~2% of the compound law below the smallest float where the
    # Frechet exponent is finite; the sampler collapses those draws onto it
    spec = maxdiv.ExtremalSpec(maxdiv.gamma_mid(1.03, maxdiv.Exponent("frechet", 1.46)))
    sub = maxdiv.SubordinatorSpec("gamma", 1.08)
    atom = maxdiv.compound_simulate(spec, sub, 0.59, rng, 100_000)
    yield "compound draws with a collapsed lower tail", False, check_draws, atom, (100_000,), "frechet", lambda x: maxdiv.compound_marginal_cdf(spec, sub, 0.59, x)
    yield "compound draws vs the law at t = 1", True, check_draws, atom, (100_000,), "frechet", lambda x: maxdiv.compound_marginal_cdf(spec, sub, 1.0, x)
    gmid = maxdiv.g_mid(exponent).sample_inverse(rng, 1_000_000)
    yield "g-mid draws vs gamma_mid(1.2)", True, check_draws, gmid, (1_000_000,), "frechet", maxdiv.gamma_mid(1.2, exponent).cdf
    yield "g-mid draws, one dropped", True, check_draws, gmid[1:], (1_000_000,), "frechet", maxdiv.g_mid(exponent).cdf
    yield "g-mid draws, one NaN", True, check_draws, np.where(np.arange(gmid.size) == 5, np.nan, gmid), (1_000_000,), "frechet", maxdiv.g_mid(exponent).cdf
    yield "g-mid draws on the wrong support", True, check_draws, -gmid, (1_000_000,), "frechet", maxdiv.g_mid(exponent).cdf

    registry = workloads.Registry(1, workdir)
    tol = maxdiv.critical_one_sample(100_000)
    base = [maxdiv.VerificationReport(c, "algebraic", 1e-15, 1e-12, True, 1) for c in workloads.CHECK_IDS[:8]]
    mc = [
        maxdiv.VerificationReport("T3_1", "monte-carlo", 0.003, tol, True, 1),
        maxdiv.VerificationReport("T3_2", "monte-carlo", 0.003, tol, True, 1),
        maxdiv.VerificationReport("T3_3", "monte-carlo", 0.004, tol, True, 1, "stationary worst=0.00400; beta/p control=0.33000 must fail"),
    ]
    yield "registry reports", False, registry.check, 0, base + mc
    yield "registry: strict 1% miss is not a failure", False, registry.check, 0, base + [dataclasses.replace(mc[0], discrepancy=1.1 * tol, passed=False)] + mc[1:]
    yield "registry: KS beyond the loose band", True, registry.check, 0, base + [dataclasses.replace(mc[0], discrepancy=0.05, passed=False)] + mc[1:]
    yield "registry: beta/p control passes", True, registry.check, 0, base + mc[:2] + [dataclasses.replace(mc[2], detail="stationary worst=0.00400; beta/p control=0.00100 must fail")]
    yield "registry: algebraic check fails", True, registry.check, 0, [dataclasses.replace(base[0], discrepancy=1.0, passed=False)] + base[1:] + mc

    small = workloads.SmallCalls(1, workdir)
    out = small.run(0)
    yield "small-calls batch", False, small.check, 0, out
    row = list(out[3])
    row[2] = float(np.nextafter(row[2], 2.0))
    yield "small-calls: scalar cdf one ulp off", True, small.check, 0, out[:3] + [tuple(row)] + out[4:]

    cli = workloads.Cli(1, workdir)
    cli.warm_up()
    index = 4  # ep --compound
    code = cli.run(index)
    yield "cli output", False, cli.check, index, code
    path = cli.argv(index)[-1]
    body = Path(path).read_bytes()
    Path(path).write_bytes(body.replace(b"1", b"2", 1))
    yield "cli: one digit changed", True, cli.check, index, code
    yield "cli: non-zero exit", True, cli.check, index, 2


def main() -> int:
    wrong = 0
    out = HERE.parent / ".perfbench-out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        for label, should_reject, check, *args in cases(workdir):
            rejected = _rejects(check, *args)
            ok = rejected == should_reject
            wrong += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {label}: {'rejected' if rejected else 'accepted'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    os.environ.pop("MAXDIV_SEED", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))
    sys.exit(main())
