"""Standing mutants: small deliberate faults that the tests must kill.

Each row of MUTANTS is one fault in one file under src/: the exact old
text, the new text that replaces it, and the test ids that must each
fail with it.  For every row the runner copies src/ to a temporary
directory, applies that one mutant there, and runs the row's tests with
PYTHONPATH pointing at the copy.  Run it from any directory:

    python tools/mutants.py

Its rules:

- A row's old text must occur exactly once in its file, so a row goes
  stale loudly when the code it mutates moves.  Every row is checked
  before any test runs.
- First an unmutated control copy must pass every test the rows name,
  and every test process imports each maxdiv module from inside its own
  copy (maxdiv.__file__ is checked before pytest starts), so no kill is
  an import error and no survivor comes from testing the wrong tree.
- A mutant is killed when every test its row names fails.  A named test
  that passes is reported with the row: the row no longer proves what
  it says.

The report is one line per copy: the control, then each mutant as
"killed", "SURVIVED" (no named test failed), "PARTLY" (the named tests
listed after it passed) or "ERROR" (the copy did not import or pytest
could not run the ids), with its wall time.  The exit status is 1 if a
row is stale, the control fails, or any mutant is not killed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    old: str  # occurs exactly once in the file
    new: str
    kills: tuple[str, ...]  # pytest ids, each of which must fail


MUTANTS = (
    # -- block seams, carries and aliasing of the samplers -------------------
    Mutant(
        "sample-max-k-seam",  # each block after the first reads its per-draw k one element early
        "maxdiv/laws.py",
        "_quantile_w(law, _neg_log(u), None if k is None else part)",
        "_quantile_w(law, _neg_log(u), None if k is None else out[max(i - 1, 0) : max(i - 1, 0) + part.size])",
        (
            "tests/test_bytes.py::test_inverse_route[65537]",
            "tests/test_bytes.py::test_latent_route[65537]",
            "tests/test_bytes.py::test_ep_simulate_ensemble[zeros-at-rows-over-a-block]",
            "tests/test_bytes.py::test_ar1_ensemble[65537]",
        ),
    ),
    Mutant(
        "inverse-route-seam",  # the draws without k skip one uniform at each seam
        "maxdiv/laws.py",
        "        u = _open(rng.random(out=part if k is None else block[: part.size]))",
        "        if k is None and i:\n            rng.random()\n        u = _open(rng.random(out=part if k is None else block[: part.size]))",
        (
            "tests/test_bytes.py::test_inverse_route[65537]",
            "tests/test_bytes.py::test_ar1_simulate[65537]",
        ),
    ),
    Mutant(
        "sample-ggamma-seam",  # the last shape of each full block is left undrawn
        "maxdiv/laws.py",
        "part = shape[i : i + _BLOCK]",
        "part = shape[i : i + _BLOCK - 1]",
        (
            "tests/test_bytes.py::test_latent_route[65536]",
        ),
    ),
    Mutant(
        "ep-ensemble-no-carry",  # a block of grid rows does not start from the last column before it
        "maxdiv/extremal.py",
        "np.maximum(out[:, j - 1], block[0], out=block[0])",
        "block[0]",
        (
            "tests/test_buffers.py::test_ep_simulate_ensemble_equals_the_out_of_place_reference[1.0]",
            "tests/test_bytes.py::test_ep_simulate_ensemble[zeros-at-row-blocks]",
            "tests/test_dependence.py::test_extremal_path_pairs_follow_the_joint_law",
        ),
    ),
    Mutant(
        "ar1-simulate-seam-reset",  # each scan block restarts its stretch instead of carrying the last value
        "maxdiv/ar1.py",
        "_running_max(out[i : i + _BLOCK + 1], free[i : i + _BLOCK + 1])",
        "_running_max(out[i : i + _BLOCK], free[i : i + _BLOCK])",
        (
            "tests/test_bytes.py::test_ar1_simulate[65536]",
            "tests/test_bytes.py::test_ar1_simulate[zero-uniforms]",
        ),
    ),
    Mutant(
        "ar1-ensemble-seam",  # the kept X_0 indices lose their block's offset
        "maxdiv/ar1.py",
        "joins.append((i, no_reset, block[no_reset]))",
        "joins.append((0, no_reset, block[no_reset]))",
        (
            "tests/test_bytes.py::test_ar1_ensemble[24577]",
            "tests/test_buffers.py::test_ar1_ensemble_joins_x0_where_no_reset_happened[None-None-frechet-0.01-100]",
        ),
    ),
    Mutant(
        "ar1-ensemble-aliasing",  # the counts are written over X_0's uniforms before the kept ones are copied
        "maxdiv/ar1.py",
        "        if no_reset.size:\n            joins.append((i, no_reset, block[no_reset]))\n        np.minimum(back, lag, out=block)",
        "        np.minimum(back, lag, out=block)\n        if no_reset.size:\n            joins.append((i, no_reset, block[no_reset]))",
        (
            "tests/test_bytes.py::test_ar1_ensemble[1]",
            "tests/test_buffers.py::test_ar1_ensemble_joins_x0_where_no_reset_happened[None-None-frechet-0.05-30]",
        ),
    ),
    # -- the four family faults ----------------------------------------------
    Mutant(
        "weibull-mask",
        "maxdiv/exponents.py",
        "_half_line(x, x >= 0, a, 0.0)",
        "_half_line(x, x >= 1, a, 0.0)",
        (
            "tests/test_exponents.py::test_eval_equals_the_masked_formula_bit_for_bit[weibull-1.7]",
            "tests/test_exponents.py::test_psi_outside_the_support_is_its_limit_value[weibull]",
        ),
    ),
    Mutant(
        "gumbel-psi-without-abs",
        "maxdiv/exponents.py",
        "np.abs(np.exp(np.negative(x, out=x), out=x), out=x)",
        "np.exp(np.negative(x, out=x), out=x)",
        (
            "tests/test_exponents.py::test_every_nan_maps_to_the_positive_nan[gumbel]",
        ),
    ),
    Mutant(
        "frechet-inverse-off",  # off by 1e-14 relative
        "maxdiv/exponents.py",
        "lambda s, a: _power(s, -1.0 / a)",
        "lambda s, a: _power(s, -1.0 / a) * (1.0 + 1e-14)",
        (
            "tests/test_exponents.py::test_inverse_then_psi_round_trips[frechet]",
            "tests/test_bytes.py::test_inverse_route[every-law-1.0]",
        ),
    ),
    Mutant(
        "weibull-scale-sign",
        "maxdiv/exponents.py",
        "Support(-np.inf, 0.0), scale_sign=-1.0",
        "Support(-np.inf, 0.0), scale_sign=1.0",
        (
            "tests/test_exponents.py::test_semi_stable_scale_divides_psi_by_p[weibull]",
            "tests/test_algebra.py::test_semi_stable_scale_factors",
        ),
    ),
    # -- the CSV formatter ---------------------------------------------------
    Mutant(
        "csv-no-fallback",  # the values "%" must print keep the digit path's text
        "maxdiv/_csv.py",
        "        _fallback(words.view(np.uint8), slow, x[slow])",
        "        slow",
        (
            "tests/test_csv.py::test_special_values",
            "tests/test_csv.py::test_random_bit_patterns",
        ),
    ),
    Mutant(
        "csv-no-trailing-zero-strip",  # all 16 digits after the lead are shown
        "maxdiv/_csv.py",
        "        np.maximum(shown, np.right_shift(group, 32, out=last), out=shown)",
        "        shown[...] = 16",
        (
            "tests/test_csv.py::test_integral_floats_print_their_integer_digits",
            "tests/test_csv.py::test_random_bit_patterns",
        ),
    ),
    # -- faults only an edge case catches -----------------------------------
    Mutant(
        "sample-max-k-reads-a-zero-uniform",  # with k, an exact-zero uniform is not read as 2**-54
        "maxdiv/laws.py",
        "        u = _open(rng.random(out=part if k is None else block[: part.size]))",
        "        u = rng.random(out=part if k is None else block[: part.size])\n        if k is None:\n            _open(u)",
        (
            "tests/test_bytes.py::test_inverse_route[zero-uniforms]",
            "tests/test_bytes.py::test_ep_simulate_ensemble[zeros-at-row-blocks]",
        ),
    ),
    Mutant(
        "ar1-ensemble-lag-capped-at-2**63",  # 10**400 read as 2**63, not as the largest float
        "maxdiv/ar1.py",
        "lag = float(min(lag, sys.float_info.max))",
        "lag = float(min(lag, 2**63))",
        (
            "tests/test_buffers.py::test_ar1_ensemble_past_the_int64_range_equals_the_out_of_place_reference[10**400]",
            "tests/test_ar1.py::test_a_look_back_past_the_lag_joins_x0_at_every_lag_it_passes",
        ),
    ),
    Mutant(
        "weibull-inverse-positive-zero",  # psi = 0 inverts to +0.0, not -0.0
        "maxdiv/exponents.py",
        "lambda s, a: np.negative(_power(s, 1.0 / a), out=s)",
        "lambda s, a: np.subtract(0.0, _power(s, 1.0 / a), out=s)",
        (
            "tests/test_extremal.py::test_weibull_extreme_steps_keep_negative_zeros_byte_identical",
        ),
    ),
    Mutant(
        "running-max-ties-keep-the-later-value",  # a +-0 tie takes the newer zero's sign
        "maxdiv/extremal.py",
        "take = ~(x[step:] > x[:-step])",
        "take = x[:-step] > x[step:]",
        (
            "tests/test_ar1.py::test_segmented_running_max_breaks_ties_like_python_max",
        ),
    ),
)


class StaleRow(ValueError):
    """A row whose old text does not occur exactly once in its file."""


def apply(text: str, mutant: Mutant) -> str:
    """text with the mutant's one occurrence of its old text replaced."""
    count = text.count(mutant.old)
    if count != 1:
        raise StaleRow(f"{mutant.name}: its old text occurs {count} times in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


# Run in each copy's test process: import every maxdiv module (an import
# error exits 10) and check that each comes from the copy (else exit 11)
# before pytest runs the ids; the last stdout line lists the failed ids.
_CHILD = r"""
import importlib, json, pkgutil, sys
root, ids = sys.argv[1], sys.argv[2:]
try:
    import maxdiv
    modules = [maxdiv] + [importlib.import_module("maxdiv." + m.name) for m in pkgutil.iter_modules(maxdiv.__path__)]
except Exception as exc:
    sys.stderr.write(f"import failed: {exc!r}\n")
    sys.exit(10)
outside = [m.__file__ for m in modules if not m.__file__.startswith(root)]
if outside:
    sys.stderr.write(f"maxdiv modules imported from outside {root}: {outside}\n")
    sys.exit(11)
import pytest
class Failed:
    def __init__(self):
        self.ids = []
    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids.append(report.nodeid)
failed = Failed()
code = pytest.main(["-q", "-p", "no:cacheprovider", "--tb=no", *ids], plugins=[failed])
print("\n" + json.dumps(failed.ids))
sys.exit(code)
"""


class Run(NamedTuple):
    code: int
    failed: list[str]
    seconds: float
    output: str


def run_tests(copy: Path, ids: list[str]) -> Run:
    """Run ids from the repository's tests/ against copy/src."""
    src = str(copy / "src") + os.sep
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CHILD, src, *ids], cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    last = proc.stdout.rstrip().rsplit("\n", 1)[-1]
    failed = json.loads(last) if last.startswith("[") else []
    return Run(proc.returncode, failed, seconds, proc.stdout + proc.stderr)


def make_copy(tmp: Path, name: str, mutant: Mutant | None = None) -> Path:
    copy = tmp / name
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = copy / "src" / mutant.file
        path.write_text(apply(path.read_text(), mutant))
    return copy


def passed_ids(mutant: Mutant, failed: list[str]) -> list[str]:
    """The row's ids that no failed test falls under."""
    return [i for i in mutant.kills if not any(f == i or f.startswith(i + "[") for f in failed)]


def verdict(mutant: Mutant, run: Run) -> tuple[bool, str]:
    if run.code not in (0, 1):
        return False, "ERROR"
    passed = passed_ids(mutant, run.failed)
    if not passed:
        return True, "killed"
    if len(passed) == len(mutant.kills):
        return False, "SURVIVED"
    return False, "PARTLY " + " ".join(passed)


def main() -> int:
    stale = []
    for m in MUTANTS:
        try:
            apply((ROOT / "src" / m.file).read_text(), m)
        except StaleRow as exc:
            stale.append(str(exc))
    if stale:
        print("STALE " + "\nSTALE ".join(stale))
        return 1
    ids = sorted({i for m in MUTANTS for i in m.kills})
    ok = True
    with tempfile.TemporaryDirectory(prefix="maxdiv-mutants-") as tmp:
        control = run_tests(make_copy(Path(tmp), "control"), ids)
        width = max(len(m.name) for m in MUTANTS)
        print(f"{'control':<{width}}  {'passed' if control.code == 0 else 'FAILED'}  {len(ids)} ids  {control.seconds:.1f} s", flush=True)
        if control.code != 0:
            print(control.output)
            return 1
        for m in MUTANTS:
            run = run_tests(make_copy(Path(tmp), m.name, m), list(m.kills))
            killed, text = verdict(m, run)
            print(f"{m.name:<{width}}  {text}  {run.seconds:.1f} s", flush=True)
            if run.code not in (0, 1):
                print(run.output)
            ok &= killed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
