"""The four benchmark workloads: inputs, ops and the correctness oracle.

Every input (law parameters, registry seeds, CLI argument lists) is
derived from the workload seed; the package only ever sees the derived
values.  An op is one timed call into the package.  ``check`` is the
oracle behind ``failed``: it raises OpFailed when an op returned the
wrong length, a non-finite or out-of-support value, or a law the
workload-specific test rejects.  Strict 1% KS verdicts are never a
failure, because a correct sampler fails them on 1% of seeds; the
oracle uses a loose band instead (LOOSE_C below).

Library calls go through ``maxdiv.<name>`` attribute lookups at call
time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys

import numpy as np

import maxdiv
import maxdiv.cli

from tracer import CHECK_IDS, FAMILIES, KINDS

# Loose KS band c/sqrt(n): a correct sampler exceeds c = 3 with
# probability about 2*exp(-2*c*c) = 3e-8 per test, so far less than once
# in the ~10^4 KS tests a full set of benchmark runs makes, while a
# wrong law such as ggamma_mid(beta) in place of ggamma_mid(beta/p)
# exceeds it by orders of magnitude.
LOOSE_C = 3.0
KS_POINTS = 100_000
MONTE_CARLO = ("T3_1", "T3_2", "T3_3")
SUPPORT = {"frechet": (0.0, math.inf), "weibull": (-math.inf, 0.0), "gumbel": (-math.inf, math.inf)}
_CONTROL = re.compile(r"beta/p control=([0-9.eE+-]+)")


class OpFailed(Exception):
    """The oracle rejected an op's output."""


def _require(ok, what: str) -> None:
    if not ok:
        raise OpFailed(what)


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Two-sided one-sample KS distance, computed without the package's ksstats.

    The d.f. is compared with the empirical d.f. on both sides of every
    distinct sample value, so ties count as the jumps they are.  The
    samplers collapse draws too small for a float onto the smallest
    representable point of the support (see maxdiv.laws), so at the lowest
    sample value only the mass at or below it is compared: the law's mass
    just below that point has nowhere representable to go.
    """
    xs = np.sort(samples)
    n = xs.size
    first = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    f = np.asarray(cdf(xs[first]), dtype=float)
    below = first / n
    upto = np.append(first[1:], n) / n
    return float(max(np.max(np.abs(upto - f)), np.max(np.abs(below[1:] - f[1:]), initial=0.0)))


def check_draws(x, shape, family: str, cdf) -> None:
    """Length, finiteness, support and a loose-band KS test of i.i.d. draws."""
    x = np.asarray(x)
    _require(x.shape == shape, f"shape {x.shape} != {shape}")
    _require(np.all(np.isfinite(x)), "non-finite draw")
    lo, hi = SUPPORT[family]
    _require(np.all(x >= lo) and np.all(x <= hi), "draw outside the support")
    flat = x.reshape(-1)
    sub = flat[:: max(1, flat.size // KS_POINTS)]
    stat = ks_statistic(sub, cdf)
    _require(stat <= LOOSE_C / math.sqrt(sub.size), f"KS {stat:.5f} beyond the loose band at n={sub.size}")


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _law_params(rand: random.Random) -> tuple[float, float]:
    # Kinds and families are fixed per op slot and only these continuous
    # parameters vary with the seed: beta >= 1 keeps numpy's gamma
    # sampler on one algorithm, so an op's cost does not depend on the seed.
    return rand.uniform(0.5, 2.5), rand.uniform(1.0, 2.0)


class Workload:
    """One closed-loop client; ops cycle through ``cycle`` slots."""

    cycle = 1
    tracer = None

    def warm_up(self) -> None:
        pass

    def run(self, index: int):
        raise NotImplementedError

    def check(self, index: int, out) -> None:
        raise NotImplementedError

    def digest(self, index: int, out) -> str:
        raise NotImplementedError

    def layer_info(self) -> dict[str, float]:
        return {}


class Registry(Workload):
    """op = verify_all(seed); the seeds are drawn from the workload seed."""

    def __init__(self, seed: int, workdir: str, inproc: bool = False) -> None:
        self._rand = random.Random(seed)
        self._seeds: list[int] = []
        self._verdicts = [0, 0]

    def _seed(self, index: int) -> int:
        while len(self._seeds) <= index:
            self._seeds.append(self._rand.randrange(2**31))
        return self._seeds[index]

    def warm_up(self) -> None:
        for check in CHECK_IDS:
            if check not in MONTE_CARLO:
                maxdiv.verify(check, self._seed(0))

    def run(self, index: int):
        return maxdiv.verify_all(self._seed(index))

    def check(self, index: int, reports) -> None:
        _require([r.theorem_id for r in reports] == list(CHECK_IDS), "wrong check list")
        for r in reports:
            _require(math.isfinite(r.discrepancy), f"{r.theorem_id}: non-finite discrepancy")
            if r.theorem_id not in MONTE_CARLO:
                _require(r.passed, f"{r.theorem_id} failed: {r.detail}")
                continue
            self._verdicts[0] += 1
            self._verdicts[1] += bool(r.passed)
            loose = r.tolerance * LOOSE_C / maxdiv.KS_COEFFICIENTS[0.01]
            _require(r.discrepancy <= loose, f"{r.theorem_id}: {r.discrepancy} beyond the loose band")
            if r.theorem_id == "T3_3":
                control = _CONTROL.search(r.detail)
                _require(control is not None, "T3_3 reports no control statistic")
                _require(float(control.group(1)) >= r.tolerance, "T3_3 beta/p control passed")

    def digest(self, index: int, reports) -> str:
        return _digest(json.dumps([maxdiv.report_to_dict(r) for r in reports]))

    def layer_info(self) -> dict[str, float]:
        total, passed = self._verdicts
        return {"verify.mc_pass_frac": passed / total if total else 0.0}


class BulkSample(Workload):
    """op = one large library call, cycling through a fixed mix of 27 calls."""

    def __init__(self, seed: int, workdir: str, inproc: bool = False) -> None:
        rand = random.Random(seed)
        self._data_seed = rand.randrange(2**31)
        self._ops = []
        for route, kinds in (("inverse", KINDS), ("latent", KINDS[1:])):
            for kind in kinds:
                for family in FAMILIES:
                    alpha, beta = _law_params(rand)
                    self._ops.append(self._sampler(route, kind, family, alpha, beta))
        # p = 0.01 keeps the geo-max memory blow-up (~1/p inner draws per
        # output) visible in peak_rss_mb; p = 0.001 at n = 10^5 measured
        # 3.2 GB peak RSS on an 8 GB machine, so it is not used.
        for p, family in ((0.5, "frechet"), (0.01, "gumbel")):
            alpha, beta = _law_params(rand)
            self._ops.append(self._geo_max(family, alpha, beta, p))
        for sub_kind, base_kind, family in (("gamma", "gamma-mid", "frechet"), ("ggamma", "base", "weibull")):
            alpha, beta = _law_params(rand)
            t = rand.uniform(0.5, 2.0) if sub_kind == "gamma" else 1.0
            self._ops.append(self._compound(sub_kind, base_kind, family, alpha, beta, rand.uniform(1.0, 2.0), t))
        alpha, beta = _law_params(rand)
        times = sorted(rand.uniform(0.2, 5.0) for _ in range(10))
        self._ops.append(self._ensemble("g-mid", "gumbel", alpha, beta, times))
        alpha, beta = _law_params(rand)
        self._ops.append(self._ar1("frechet", alpha, beta, rand.uniform(0.2, 0.9)))
        self.cycle = len(self._ops)

    def _rng(self, index: int):
        return maxdiv.RandomSource(self._data_seed, index).generator()

    def _sampler(self, route, kind, family, alpha, beta, n=1_000_000):
        law = maxdiv.MaxLaw(kind, maxdiv.Exponent(family, alpha), beta)
        draw = law.sample_inverse if route == "inverse" else law.sample_latent
        return (lambda rng, n=n: draw(rng, n)), (lambda out: check_draws(out, (n,), family, law.cdf))

    def _geo_max(self, family, alpha, beta, p, n=100_000):
        exponent = maxdiv.Exponent(family, alpha)
        law = maxdiv.ggamma_mid(beta, exponent)
        target = maxdiv.ggamma_mid(beta / p, exponent)
        return (lambda rng, n=n: maxdiv.geo_max_sample(law, p, rng, n)), (
            lambda out: check_draws(out, (n,), family, target.cdf)
        )

    def _compound(self, sub_kind, base_kind, family, alpha, beta, sub_beta, t, n=1_000_000):
        spec = maxdiv.ExtremalSpec(maxdiv.MaxLaw(base_kind, maxdiv.Exponent(family, alpha), beta))
        sub = maxdiv.SubordinatorSpec(sub_kind, sub_beta)
        return (lambda rng, n=n: maxdiv.compound_simulate(spec, sub, t, rng, n)), (
            lambda out: check_draws(out, (n,), family, lambda x: maxdiv.compound_marginal_cdf(spec, sub, t, x))
        )

    def _ensemble(self, kind, family, alpha, beta, times, n=100_000):
        spec = maxdiv.ExtremalSpec(maxdiv.MaxLaw(kind, maxdiv.Exponent(family, alpha), beta))
        grid = np.array(times)

        def check(out):
            _require(out.shape == (n, grid.size), f"shape {out.shape}")
            _require(np.all(np.diff(out, axis=1) >= 0), "path decreased")
            check_draws(out[:, 0], (n,), family, lambda x: maxdiv.ep_marginal_cdf(spec, grid[0], x))
            check_draws(out[:, -1], (n,), family, lambda x: maxdiv.ep_marginal_cdf(spec, grid[-1], x))

        return (lambda rng, n=n: maxdiv.ep_simulate_ensemble(spec, grid, rng, n)), check

    def _ar1(self, family, alpha, beta, p, steps=200_000):
        spec = maxdiv.Ar1Spec(p, beta, maxdiv.Exponent(family, alpha))
        marginal = maxdiv.ggamma_mid(beta, spec.exponent)

        def check(out, steps=steps):
            _require(np.shape(out) == (steps,), f"shape {np.shape(out)}")
            # lag-100 correlation is at most 0.8**100, so the thinned chain is i.i.d.
            check_draws(out[::100], (steps // 100,), family, marginal.cdf)

        return (lambda rng, steps=steps: maxdiv.ar1_simulate(spec, steps, rng)), check

    def warm_up(self) -> None:
        # one small call per slot, off the op streams
        for slot, (call, _check) in enumerate(self._ops):
            call(np.random.default_rng(slot), 1000)

    def run(self, index: int):
        call, _check = self._ops[index % self.cycle]
        return call(self._rng(index))

    def check(self, index: int, out) -> None:
        self._ops[index % self.cycle][1](out)

    def digest(self, index: int, out) -> str:
        return _digest(out.shape, np.ascontiguousarray(out).tobytes())


def _num(x: float) -> str:
    # repr round-trips, so the CLI parses exactly the float the reference uses
    return repr(float(x))


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _csv(header: str, rows) -> bytes:
    return (header + "\n" + "".join(",".join(row) + "\n" for row in rows)).encode()


class Cli(Workload):
    """op = one ``python -m maxdiv.cli`` run writing to a temp file."""

    def __init__(self, seed: int, workdir: str, inproc: bool = False) -> None:
        rand = random.Random(seed)
        self._inproc = inproc
        self._expected: list[tuple[int, str]] = []
        ar1_args = ["--p", _num(rand.uniform(0.2, 0.9))] + self._law_args(rand, None, "frechet")
        ep_args = ["--base", "gamma-mid"] + self._law_args(rand, None, "gumbel")
        self._commands = [
            ("sample", self._law_args(rand, "ggamma-mid", "frechet") + ["--n", "1000000", "--route", "inverse"]),
            ("sample", self._law_args(rand, "gamma-mid", "weibull") + ["--n", "1000000", "--route", "latent"]),
            ("ar1", ar1_args + ["--steps", "200000"]),
            ("ar1", ar1_args + ["--check"]),
            ("ep", ep_args + ["--compound", "gamma", "--t", _num(rand.uniform(0.5, 2.0)), "--n", "100000"]),
            ("ep", ep_args + ["--path", "--times", f"0.5:{_num(rand.uniform(50, 200))}:20000"]),
            ("table", self._law_args(rand, "ggamma-mid", "frechet") + ["--qgrid", "0.001:0.999:100000"]),
        ]
        for j, (command, args) in enumerate(self._commands):
            if command != "table":
                args += ["--seed", str(rand.randrange(2**31))]
            suffix = "json" if "--check" in args else "csv"
            args += ["--out", os.path.join(workdir, f"op{j}.{suffix}")]
        self.cycle = len(self._commands)

    @staticmethod
    def _law_args(rand: random.Random, kind, family: str) -> list[str]:
        alpha, beta = _law_params(rand)
        args = ["--family", family, "--alpha", _num(alpha), "--beta", _num(beta)]
        return (["--kind", kind] if kind else []) + args

    def argv(self, index: int) -> list[str]:
        command, args = self._commands[index % self.cycle]
        return [command, *args]

    def _out(self, index: int) -> str:
        return self.argv(index)[-1]

    def run(self, index: int):
        argv = self.argv(index)
        if not self._inproc:
            proc = subprocess.run(
                [sys.executable, "-m", "maxdiv.cli", *argv],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
            return proc.returncode
        span = self.tracer.open("cli.main") if self.tracer and self.tracer.active else None
        try:
            code = maxdiv.cli.main.main(args=argv, prog_name="maxdiv", standalone_mode=False)
        finally:
            if span is not None:
                self.tracer.close(span, os.path.getsize(self._out(index)))
        return code or 0

    def _output(self, index: int) -> bytes:
        with open(self._out(index), "rb") as fh:
            return fh.read()

    def warm_up(self) -> None:
        # the reference outputs are the oracle's input; no metric times this
        # worker's set-up (cli set-up time is a ``maxdiv --help`` run)
        for slot in range(self.cycle):
            code, body = self._render(slot)
            self._expected.append((code, _digest(body)))

    def check(self, index: int, code) -> None:
        expected_code, expected = self._expected[index % self.cycle]
        _require(code == expected_code, f"exit code {code}, expected {expected_code}")
        _require(_digest(self._output(index)) == expected, f"{self.argv(index)[0]} output differs from the reference")

    def digest(self, index: int, code) -> str:
        return _digest(code, self._output(index))

    def _render(self, slot: int) -> tuple[int, bytes]:
        """The command's output rendered in process: same library call, same seed."""
        command, args = self._commands[slot]
        opt = dict(zip(args, args[1:]))
        exponent = maxdiv.Exponent(opt["--family"], float(opt["--alpha"]))
        beta = float(opt["--beta"])
        rng = maxdiv.RandomSource(int(opt.get("--seed", 0))).generator()
        if command == "sample":
            law = maxdiv.MaxLaw(opt["--kind"], exponent, beta)
            n = int(opt["--n"])
            draws = law.sample_inverse(rng, n) if opt["--route"] == "inverse" else law.sample_latent(rng, n)
            return 0, _csv("value", ((_fmt(v),) for v in draws))
        if command == "table":
            law = maxdiv.MaxLaw(opt["--kind"], exponent, beta)
            lo, hi, count = opt["--qgrid"].split(":")
            xs = law.quantile(np.linspace(float(lo), float(hi), int(count)))
            rows = zip(xs, law.cdf(xs), law.neg_log_cdf(xs))
            return 0, _csv("x,cdf,neg_log_cdf", ((_fmt(x), _fmt(c), _fmt(v)) for x, c, v in rows))
        if command == "ar1":
            spec = maxdiv.Ar1Spec(float(opt["--p"]), beta, exponent)
            if "--check" in args:
                draws = maxdiv.ar1_ensemble(spec, maxdiv.cli.AR1_CHECK_LAG, rng, maxdiv.cli.AR1_CHECK_CHAINS)
                report = maxdiv.ks_one_sample(draws, maxdiv.ggamma_mid(beta, exponent))
                _require(
                    report.statistic <= LOOSE_C / math.sqrt(report.n),
                    f"ar1 --check KS {report.statistic} beyond the loose band",
                )
                summary = {
                    "p": spec.p,
                    "beta": beta,
                    "innovation_beta": spec.innovation_beta,
                    "ks_statistic": report.statistic,
                    "pass": report.passed,
                }
                return (0 if report.passed else 1), (json.dumps(summary, indent=2) + "\n").encode()
            chain = maxdiv.ar1_simulate(spec, int(opt["--steps"]), rng)
            return 0, _csv("step,value", ((str(k), _fmt(v)) for k, v in enumerate(chain)))
        spec = maxdiv.ExtremalSpec(maxdiv.MaxLaw(opt["--base"], exponent, beta))
        if "--path" in args:
            lo, hi, count = opt["--times"].split(":")
            path = maxdiv.ep_simulate_path(spec, np.linspace(float(lo), float(hi), int(count)), rng)
            return 0, _csv("t,value", ((_fmt(t), _fmt(v)) for t, v in zip(path.times, path.values)))
        sub = maxdiv.SubordinatorSpec(opt["--compound"])
        draws = maxdiv.compound_simulate(spec, sub, float(opt["--t"]), rng, int(opt["--n"]))
        return 0, _csv("value", ((_fmt(v),) for v in draws))


class SmallCalls(Workload):
    """op = a fixed batch of scalar or tiny-array calls over kinds x families."""

    def __init__(self, seed: int, workdir: str, inproc: bool = False) -> None:
        rand = random.Random(seed)
        data = np.random.default_rng(rand.randrange(2**31))
        self._data_seed = rand.randrange(2**31)
        self._cases = []
        for kind in KINDS:
            for family in FAMILIES:
                alpha, beta = _law_params(rand)
                law = maxdiv.MaxLaw(kind, maxdiv.Exponent(family, alpha), beta)
                us = np.sort(data.uniform(0.05, 0.95, 3))
                self._cases.append(
                    {
                        "kind": kind,
                        "family": family,
                        "alpha": alpha,
                        "beta": beta,
                        "desc": maxdiv.law_to_dict(law),
                        "p": rand.uniform(0.3, 0.9),
                        "us": us,
                        "xs": law.quantile(us),
                        "points": law.quantile(data.uniform(0.001, 0.999, 64)),
                    }
                )
        self._reference = None

    def _rng(self, case: int):
        return maxdiv.RandomSource(self._data_seed, case).generator()

    def warm_up(self) -> None:
        self.run(0)

    def run(self, index: int):
        out = []
        for j, c in enumerate(self._cases):
            exponent = maxdiv.Exponent(c["family"], c["alpha"])
            law = maxdiv.MaxLaw(c["kind"], exponent, c["beta"])
            parsed = maxdiv.law_from_dict(c["desc"])
            x, u, p = float(c["xs"][1]), float(c["us"][1]), c["p"]
            rng = self._rng(j)
            one = law.sample_inverse(rng, 1)
            latent = law.sample_latent(rng, 8) if c["kind"] != "base" else None
            out.append(
                (
                    law,
                    parsed,
                    law.cdf(x),
                    law.neg_log_cdf(x),
                    law.quantile(u),
                    maxdiv.geo_max_cdf(law, p, x),
                    one,
                    latent,
                    maxdiv.geo_max_sample(law, p, rng),
                    maxdiv.ks_one_sample(c["points"], law),
                )
            )
        return out

    def _vectorized(self):
        """The matching vectorized calls, replayed on fresh generators."""
        ref = []
        for j, c in enumerate(self._cases):
            law = maxdiv.MaxLaw(c["kind"], maxdiv.Exponent(c["family"], c["alpha"]), c["beta"])
            rng = self._rng(j)
            first = law.sample_inverse(self._rng(j), 8)[0]
            law.sample_inverse(rng, 1)
            latent = law.sample_latent(rng, 8) if c["kind"] != "base" else None
            ref.append(
                (
                    law,
                    law.cdf(c["xs"])[1],
                    law.neg_log_cdf(c["xs"])[1],
                    law.quantile(c["us"])[1],
                    maxdiv.geo_max_cdf(law, c["p"], c["xs"])[1],
                    first,
                    latent,
                    maxdiv.geo_max_sample(law, c["p"], rng, 1)[0],
                    ks_statistic(c["points"], law.cdf),
                )
            )
        return ref

    def check(self, index: int, out) -> None:
        if self._reference is None:
            self._reference = self._vectorized()
        _require(len(out) == len(self._cases), "wrong batch length")
        for c, got, ref in zip(self._cases, out, self._reference):
            law, parsed, cdf, nlc, q, gcdf, one, latent, geo, ks = got
            rlaw, rcdf, rnlc, rq, rgcdf, rfirst, rlatent, rgeo, rks = ref
            where = f"{c['kind']}/{c['family']}"
            _require(law == rlaw and parsed == rlaw, f"{where}: law construction differs")
            for name, scalar, element in (
                ("cdf", cdf, rcdf),
                ("neg_log_cdf", nlc, rnlc),
                ("quantile", q, rq),
                ("geo_max_cdf", gcdf, rgcdf),
                ("sample_inverse", one[0], rfirst),
                ("geo_max_sample", geo, rgeo),
            ):
                _require(math.isfinite(scalar) and scalar == element, f"{where}: scalar {name} {scalar!r} != {element!r}")
            _require(one.shape == (1,), f"{where}: sample_inverse(n=1) shape {one.shape}")
            _require(0.0 <= cdf <= 1.0 and nlc >= 0.0, f"{where}: d.f. value out of range")
            lo, hi = SUPPORT[c["family"]]
            for v in (q, one[0], geo):
                _require(lo <= v <= hi, f"{where}: {v!r} outside the support")
            if latent is not None:
                _require(latent.shape == (8,) and np.array_equal(latent, rlatent), f"{where}: sample_latent(n=8) differs")
                _require(np.all(np.isfinite(latent)) and np.all((latent >= lo) & (latent <= hi)), f"{where}: bad latent draw")
            _require(ks.n == 64 and abs(ks.statistic - rks) <= 1e-12, f"{where}: KS {ks.statistic} != {rks}")

    def digest(self, index: int, out) -> str:
        return _digest([row[2:6] + (row[6].tobytes(), None if row[7] is None else row[7].tobytes(), row[8], row[9].statistic) for row in out])


WORKLOADS = {
    "registry": Registry,
    "bulk-sample": BulkSample,
    "cli": Cli,
    "small-calls": SmallCalls,
}
