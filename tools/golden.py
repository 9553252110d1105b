"""Byte-identity digests of a fixed matrix of seeded `maxdiv` runs.

Prints one "sha256  argv" line per output target: the stdout of every
CLI run, plus the file of every run that writes --out, then the stdout
of a few library snippets run with `python -c`, which write raw draws
that no CLI command prints.  A run that exits non-zero is marked
"(exit N)".  A first line names the numpy version and the SIMD dispatch
targets numpy uses on this CPU: the digests hold for one numpy build on
one dispatch target, so two listings that differ there are not
comparable (NPY_DISABLE_CPU_FEATURES turns targets off to match two
hosts).  Run it on two checkouts and compare the listings:

    python tools/golden.py > new.txt
    python tools/golden.py /path/to/base/checkout > old.txt
    python tools/golden.py --compare old.txt new.txt

The optional argument is the root of the checkout whose src/ is run
(default: the checkout holding this script).  The matrix takes about
twenty seconds.

--compare fails (exit 1) on a row whose digest or exit mark changed, or
that the new listing dropped, unless tools/golden_changes.txt lists its
label (the text after the digest) with the reason for the change.  It
also fails on a listed label whose row did not change, so a change that
lists rows leaves the file for the next change to empty.  Rows the new
listing adds are reported and pass.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

OUT = "{out}"  # replaced by a temporary file, which is hashed too
CHANGES = Path(__file__).with_name("golden_changes.txt")

MATRIX = (
    "table",
    "table --kind gamma-mid --family weibull --alpha 2 --beta 0.5 --qgrid 0.001:0.999:500",
    "sample --kind ggamma-mid --beta 0.5 --n 20000 --seed 7 --route inverse",
    "sample --kind gamma-mid --family weibull --alpha 2 --beta 2 --n 20000 --seed 7 --route latent",
    "sample --kind g-mid --family gumbel --n 20000 --seed 7 --stream 3 --route latent",
    "ep --path --times 0.5:3:2000 --seed 3",
    "ep --path --base ggamma-mid --beta 0.5 --times 0.1:10:50 --seed 3 --stream 1",
    "ep --compound gamma --base gamma-mid --beta 2 --t 1.5 --n 20000 --seed 3",
    "ep --compound ggamma --sub-beta 0.5 --n 20000 --seed 3",
    "ar1 --p 0.3 --beta 2 --steps 5000 --seed 5",
    "ar1 --p 0.5 --beta 1 --check --seed 5",
    "ar1 --p 0.2 --beta 0.5 --family weibull --alpha 2 --check --seed 5",
    "ar1 --p 0.5 --beta 1 --innovation-beta 2 --check --seed 5",
    f"verify all --seed 42 --out {OUT}",
    # alpha 1 and 2 reach numpy's reciprocal and square shortcuts for **; these
    # rows take the general pow kernel
    "sample --kind base --alpha 1.7 --n 20000 --seed 11 --route inverse",
    "sample --kind ggamma-mid --alpha 1.7 --beta 0.5 --n 20000 --seed 11 --route inverse",
    "sample --kind ggamma-mid --alpha 1.7 --beta 0.5 --n 20000 --seed 11 --route latent",
    "sample --kind gamma-mid --alpha 1.7 --beta 2 --n 20000 --seed 11 --route latent",
    "sample --kind base --family weibull --alpha 1.7 --n 20000 --seed 11 --route inverse",
    "sample --kind g-mid --family weibull --alpha 1.7 --n 20000 --seed 11 --route inverse",
    "sample --kind g-mid --family weibull --alpha 1.7 --n 20000 --seed 11 --route latent",
    "sample --kind ggamma-mid --family weibull --alpha 1.7 --beta 0.5 --n 20000 --seed 11 --route latent",
    "table --kind g-mid --family gumbel --grid -5:20:200",
    "table --kind ggamma-mid --family gumbel --beta 0.5 --qgrid 0.001:0.999:500",
    "ep --path --family weibull --alpha 1.7 --times 0.5:3:2000 --seed 3",
    # more points than one 2**16-variate block: the running max folds the first
    # block's last column into the second and scans 16 passes in the first
    "ep --path --times 0.5:3:70000 --seed 3",
    # more draws than three 2**16-draw blocks of the samplers' loop, on the
    # routes that draw a mixing time per draw before the uniforms: the draws
    # cross three block seams and end in a short last block
    "sample --kind gamma-mid --beta 2 --n 200003 --seed 13 --route latent",
    "sample --kind ggamma-mid --beta 0.5 --n 200003 --seed 13 --route latent",
    "ep --compound gamma --base gamma-mid --beta 2 --t 1.5 --n 200003 --seed 13",
    "ep --compound ggamma --sub-beta 0.5 --n 200003 --seed 13",
    # the inverse route, which draws no k, across the same seams
    "sample --kind ggamma-mid --alpha 1.7 --beta 0.5 --n 200003 --seed 13 --route inverse",
    "ar1 --p 0.3 --beta 2 --alpha 1.7 --steps 5000 --seed 5",
    "ar1 --p 0.5 --beta 1 --alpha 1.7 --check --seed 5",
    # ar1 --check hashes a KS statistic, which keeps its value under any change
    # to the draws that keeps their ranks; these rows print the draws.  At
    # p = 0.001 the segments are long, so the running max takes many passes
    "ar1 --p 0.001 --beta 2 --steps 5000 --seed 5",
    "ar1 --p 0.9 --family weibull --alpha 1.7 --steps 5000 --seed 5",
    # CSV that spans many formatter blocks with more than one column: 150,000
    # two-column rows and 70,000 three-column rows
    "ar1 --p 0.3 --beta 2 --alpha 1.7 --steps 150000 --seed 5",
    "table --kind ggamma-mid --alpha 1.7 --beta 0.5 --qgrid 0.001:0.999:70000",
    # the Monte Carlo checks on the canonical seeds: verdicts, and each check's
    # worst KS statistic to the bit in --out (the cells' to five decimals)
    *(f"verify T3_1 T3_2 T3_3 --seed {seed} --out {OUT}" for seed in range(10)),
)

# label -> code; the code writes raw bytes to stdout, which are hashed
LIBRARY = {
    "ar1_ensemble draws of the T3_3 lattice, control included, at verify seed 42": """
import sys
import maxdiv
from maxdiv.verify import AR1_LAG, BETAS, CHECK_IDS, MC_SIZE, PS, STREAM_BLOCK
source = maxdiv.RandomSource(42, STREAM_BLOCK + CHECK_IDS.index("T3_3"))
cells = [(p, beta, None) for beta in BETAS for p in PS] + [(0.5, 1.0, 2.0)]
for i, (p, beta, innovation_beta) in enumerate(cells):
    spec = maxdiv.Ar1Spec(p, beta, maxdiv.frechet(1.0))
    draws = maxdiv.ar1_ensemble(spec, AR1_LAG, source.substream(i).generator(), MC_SIZE, innovation_beta=innovation_beta)
    sys.stdout.buffer.write(draws.tobytes())
""",
    "every KS statistic of T3_1-T3_3 on the canonical seeds 0..9": """
import importlib
import sys
import numpy as np
registry = importlib.import_module("maxdiv.verify")  # maxdiv.verify is also a function
statistics = []
lattice = registry._mc_lattice
def recorded(source, cells):
    reports = lattice(source, cells)
    statistics.extend(report.statistic for report in reports)
    return reports
registry._mc_lattice = recorded
for seed in range(10):
    for check in ("T3_1", "T3_2", "T3_3"):
        registry.verify(check, seed)
sys.stdout.buffer.write(np.array(statistics).tobytes())
""",
    # the T3_3 cells, at p >= 0.2, read X_0 in none of their chains
    "ar1_ensemble draws at p = 0.01 and lag 100, where ~37% of the chains read X_0": """
import sys
import maxdiv
for exponent in (maxdiv.frechet(1.7), maxdiv.weibull(1.7)):
    spec = maxdiv.Ar1Spec(0.01, 0.5, exponent)
    draws = maxdiv.ar1_ensemble(spec, 100, maxdiv.RandomSource(7).generator(), 20000)
    sys.stdout.buffer.write(draws.tobytes())
""",
    # X_0 alone, which the ar1 --steps rows print once per seed: at alpha 1.7 its
    # last bit depends on the pow kernel (scalar or array, AVX2 or AVX-512) for
    # a few percent of the seeds
    "ar1_simulate X_0 over seeds 0..299 at Frechet and Weibull alpha 1.7": """
import sys
import maxdiv
for exponent in (maxdiv.frechet(1.7), maxdiv.weibull(1.7)):
    spec = maxdiv.Ar1Spec(0.3, 2.0, exponent)
    for seed in range(300):
        sys.stdout.buffer.write(maxdiv.ar1_simulate(spec, 1, maxdiv.RandomSource(seed).generator()).tobytes())
""",
    # chains that cross three 2**16-step block seams: at p = 0.001 a stretch
    # spans seams and the scan takes every pass of a block, where nearly
    # every step ties with the one before; at p = 0.9 it stops after a few
    "ar1_simulate chains of 200,003 steps at p = 0.001, 0.01 and 0.9, Weibull alpha 1.7 and Gumbel": """
import sys
import maxdiv
for exponent in (maxdiv.weibull(1.7), maxdiv.gumbel()):
    for p in (0.001, 0.01, 0.9):
        chain = maxdiv.ar1_simulate(maxdiv.Ar1Spec(p, 0.5, exponent), 200003, maxdiv.RandomSource(7).generator())
        sys.stdout.buffer.write(chain.tobytes())
""",
    # the look-back G = max(1, ceil(E / -log1p(-p))) on both sides of
    # p = 1/3, below which numpy's own geometric draws the same counts, at
    # 0.7, and at 1e-300, where every G is ~1e300, past 2**63 and the lag
    "ar1_ensemble draws at lag 100 on both sides of p = 1/3, at 0.7 and at 1e-300": """
import sys
import numpy as np
import maxdiv
for p in (np.nextafter(1 / 3, 0), 1 / 3, 0.7, 1e-300):
    spec = maxdiv.Ar1Spec(float(p), 1.5, maxdiv.frechet(1.7))
    draws = maxdiv.ar1_ensemble(spec, 100, maxdiv.RandomSource(7).generator(), 20000)
    sys.stdout.buffer.write(draws.tobytes())
""",
    # the CLI writes one path; these take many grid rows per block, and one
    # row per block that spans two of the samplers' 2**16-draw blocks
    "ep_simulate_ensemble at 300 paths x 1,000 times and 70,000 paths x 3 times": """
import sys
import numpy as np
import maxdiv
for law in (maxdiv.ggamma_mid(0.5, maxdiv.frechet(1.7)), maxdiv.gamma_mid(2.0, maxdiv.weibull(1.7))):
    spec = maxdiv.ExtremalSpec(law)
    for times, n in ((np.linspace(0.5, 3.0, 1000), 300), ([0.5, 1.0, 2.0], 70000)):
        paths = maxdiv.ep_simulate_ensemble(spec, times, maxdiv.RandomSource(9).generator(), n)
        sys.stdout.buffer.write(paths.tobytes())
""",
    # one d.f. given as a law, as expressions and as a plain callable
    "geo_max_cdf, n_max_cdf and cdf_validity_gap over every d.f. argument form": """
import sys
import numpy as np
import maxdiv
values = []
for law in (maxdiv.g_mid(maxdiv.frechet(1.7)), maxdiv.g_mid(maxdiv.weibull(1.7)), maxdiv.ggamma_mid(0.5, maxdiv.gumbel())):
    grid = maxdiv.quantile_grid(law, count=257)
    expr = maxdiv.expr_from_law(law)
    forms = [law, expr, maxdiv.iterate_transform(expr)]
    if expr.gmid_scale is not None:
        forms.append(maxdiv.scale_exponent(expr, 2.5))
    for h in forms:
        values.append(maxdiv.n_max_cdf(h, 3, grid))
    for h in forms + [law.cdf, lambda x: law.cdf(x) ** 2]:
        values.append(maxdiv.geo_max_cdf(h, 0.3, grid))
        values.append([maxdiv.cdf_validity_gap(h, grid, -np.inf, np.inf)])
sys.stdout.buffer.write(np.concatenate(values).tobytes())
""",
    # the one boundary between a caller's number or array and the d.f. cores:
    # each value's type (f: float, a: ndarray) and bits at a number, a numpy
    # scalar, a 0-d array and an array
    "every number-or-array function at each argument form, four kinds x three families": """
import sys
import numpy as np
import maxdiv
out = sys.stdout.buffer
edges = [-np.inf, -1.0, -0.0, 0.0, 1e-300, np.inf, np.nan]
for e in (maxdiv.frechet(1.7), maxdiv.weibull(1.7), maxdiv.gumbel()):
    for law in (maxdiv.base_law(e), maxdiv.g_mid(e), maxdiv.gamma_mid(2.0, e), maxdiv.ggamma_mid(0.5, e)):
        grid = maxdiv.quantile_grid(law, count=257)
        x = np.concatenate([grid, edges])
        expr = maxdiv.expr_from_law(law)
        spec = maxdiv.ExtremalSpec(law)
        calls = [
            (e.eval, x), (law.cdf, x), (law.neg_log_cdf, x),
            (law.quantile, np.linspace(0.001, 0.999, 257)),
            (lambda v: maxdiv.lt_ggamma(law.beta, v), e.eval(grid)),
            (lambda v: maxdiv.innovation_cdf_from_marginal(v, 0.3), law.cdf(grid)),
            (lambda v: maxdiv.geo_max_cdf(law, 0.3, v), x),
            (lambda v: maxdiv.geo_max_cdf(expr, 0.3, v), x),
            (lambda v: maxdiv.n_max_cdf(law, 3, v), x),
            (lambda v: maxdiv.n_max_cdf(expr, 3, v), x),
            (maxdiv.iterate_transform(expr).cdf, x),
            (maxdiv.iterate_transform(expr).neg_log_cdf, x),
            (lambda v: maxdiv.limit_geo_gamma_cdf(law.beta, 3, e, v), x),
            (lambda v: maxdiv.ep_marginal_cdf(spec, 1.5, v), x),
            (lambda v: maxdiv.compound_marginal_cdf(spec, maxdiv.SubordinatorSpec("gamma"), 1.5, v), x),
            (lambda v: maxdiv.compound_marginal_cdf(spec, maxdiv.SubordinatorSpec("ggamma", 0.5), 1.0, v), x),
        ]
        if expr.gmid_scale is not None:
            calls += [(maxdiv.scale_exponent(expr, 2.5).cdf, x), (maxdiv.scale_exponent(expr, 2.5).neg_log_cdf, x)]
        for fn, arg in calls:
            point = arg[128]
            for a in (float(point), np.float64(point), np.array(point), arg):
                value = fn(a)
                out.write(b"f" if type(value) is float else b"a" if type(value) is np.ndarray else repr(type(value)).encode())
                out.write(np.asarray(value, dtype=float).tobytes())
""",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _numpy_line() -> str:
    """numpy's version and the dispatch targets it enables on this CPU."""
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as core  # numpy >= 2
    except ImportError:
        from numpy.core import _multiarray_umath as core
    targets = [t for t in core.__cpu_dispatch__ if core.__cpu_features__.get(t)]
    return f"# numpy {np.__version__}  dispatch: {' '.join(targets) or 'baseline only'}"


def main(root: Path) -> None:
    print(_numpy_line(), flush=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for line in MATRIX:
            argv = line.replace(OUT, str(out)).split()
            run = subprocess.run([sys.executable, "-m", "maxdiv.cli", *argv], env=env, capture_output=True, cwd=tmp)
            code = f"  (exit {run.returncode})" if run.returncode else ""
            print(f"{_sha(run.stdout)}  maxdiv {line.replace(f' --out {OUT}', '')}{code}", flush=True)
            if OUT in line:
                print(f"{_sha(out.read_bytes())}  maxdiv {line}", flush=True)
                out.unlink()
        for label, snippet in LIBRARY.items():
            run = subprocess.run([sys.executable, "-c", snippet], env=env, capture_output=True, cwd=tmp)
            code = f"  (exit {run.returncode})" if run.returncode else ""
            print(f"{_sha(run.stdout)}  python -c: {label}{code}", flush=True)


_ROW = re.compile(r"([0-9a-f]{64})  (.*?)(  \(exit -?\d+\))?")


def _rows(listing: str) -> tuple[str, dict[str, str]]:
    """The first line of a listing and its rows as label -> digest and exit mark."""
    header, *lines = listing.splitlines() or [""]
    rows = {}
    for line in lines:
        match = _ROW.fullmatch(line)
        if match is None:
            raise ValueError(f"not a listing row: {line!r}")
        digest, label, code = match.groups()
        if label in rows:
            raise ValueError(f"label listed twice: {label!r}")
        rows[label] = digest + (code or "")
    return header, rows


def _accepted(changes: str) -> dict[str, str]:
    """label -> reason of the "label | reason" lines; # starts a comment line."""
    accepted = {}
    for line in changes.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        label, bar, reason = line.partition(" | ")
        if not bar or not reason.strip():
            raise ValueError(f"expected 'label | reason', got {line!r}")
        accepted[label.strip()] = reason.strip()
    return accepted


def compare(base: str, head: str, changes: str) -> tuple[list[str], list[str]]:
    """(failures, notes) of head's listing against base's, given the text of
    the accepted changes."""
    (base_header, old), (head_header, new), accepted = _rows(base), _rows(head), _accepted(changes)
    if base_header != head_header:
        return [f"the listings come from different builds: {base_header!r} and {head_header!r}"], []
    failures, notes = [], []
    for label, digest in old.items():
        change = "dropped" if label not in new else "changed" if new[label] != digest else None
        if change and label in accepted:
            notes.append(f"{change}, accepted ({accepted[label]}): {label}")
        elif change:
            failures.append(f"{change}, not listed in {CHANGES.name}: {label}")
        elif label in accepted:
            failures.append(f"listed in {CHANGES.name} but unchanged: {label}")
    failures += [f"listed in {CHANGES.name} but not in the base listing: {label}" for label in accepted.keys() - old.keys()]
    notes += [f"new: {label}" for label in new.keys() - old.keys()]
    return failures, notes


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digests of seeded maxdiv runs, or a comparison of two listings.")
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1], help="checkout whose src/ is run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "HEAD"), help="compare two listings instead")
    parser.add_argument("--changes", type=Path, default=CHANGES, help="the rows changed on purpose (default: %(default)s)")
    args = parser.parse_args()
    if args.compare is None:
        main(args.root.resolve())
    else:
        base, head = (path.read_text() for path in args.compare)
        failures, notes = compare(base, head, args.changes.read_text())
        print("\n".join(notes + failures) or "the listings are identical")
        sys.exit(1 if failures else 0)
