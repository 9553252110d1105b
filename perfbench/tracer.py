"""In-memory span tracer for the benchmark's traced run.

install() wraps every public function and public method of the maxdiv
layer modules at every place a maxdiv module binds it, so a call made
from inside the package (``maxdiv.ar1.uniform_open``) is traced exactly
like one made by the benchmark (``maxdiv.rng.uniform_open``).  Each call
records a span: name, start, end, parent span and op id, plus two counts
taken at the same boundary, the items the call returned and the random
variates drawn while it was open.  Variates are counted by a proxy
around the Generator that RandomSource.generator returns; the proxy
forwards every call unchanged, so traced and untraced runs draw the
same streams.

Spans are kept in flat arrays and written out once, at exit.  A span's
self time is its duration minus the durations of its children; spans
never overlap because the workloads are single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("rng", "exponents", "laws", "algebra", "extremal", "ar1", "ksstats", "verify", "cli")

KINDS = ("base", "g-mid", "gamma-mid", "ggamma-mid")
FAMILIES = ("frechet", "weibull", "gumbel")
CHECK_IDS = ("T2_1", "T2_2", "T2_3", "T2_4", "T2_5", "T2_6", "T2_7", "R2_1", "T3_1", "T3_2", "T3_3")

_NS = 1e9

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("rng.variates", "1/op", "lower", "ops_per_s on bulk-sample"),
    ("rng.variates_per_output", "ratio", "lower", "ops_per_s on bulk-sample"),
    ("rng.uniform_open.self_s", "s/op", "lower", "ops_per_s on bulk-sample"),
    ("rng.RandomSource.generator.calls", "1/op", "lower", "ops_per_s on bulk-sample"),
    ("exponents.Exponent.eval.calls", "1/op", "lower", "ops_per_s on small-calls"),
    ("exponents.Exponent.eval.self_s", "s/op", "lower", "ops_per_s on small-calls"),
    *[
        (f"laws.MaxLaw.{method}.{field}", unit, "lower", "ops_per_s on small-calls")
        for method in ("cdf", "neg_log_cdf", "quantile")
        for field, unit in (("calls", "1/op"), ("self_s", "s/op"))
    ],
    *[
        (f"laws.sample_inverse.{kind}.{family}.ns_per_item", "ns/item", "lower", "ops_per_s on bulk-sample")
        for kind in KINDS
        for family in FAMILIES
    ],
    *[
        (f"laws.sample_latent.{kind}.{family}.ns_per_item", "ns/item", "lower", "ops_per_s on bulk-sample")
        for kind in KINDS[1:]
        for family in FAMILIES
    ],
    ("laws.sample_ggamma.calls", "1/op", "lower", "ops_per_s on bulk-sample"),
    ("laws.sample_ggamma.self_s", "s/op", "lower", "ops_per_s on bulk-sample"),
    ("algebra.geo_max_sample.calls", "1/op", "lower", "peak_rss_mb and op_ms_p90 on bulk-sample"),
    ("algebra.geo_max_sample.self_s", "s/op", "lower", "peak_rss_mb and op_ms_p90 on bulk-sample"),
    ("algebra.geo_max_sample.ns_per_item", "ns/item", "lower", "peak_rss_mb and op_ms_p90 on bulk-sample"),
    ("algebra.geo_max_sample.inner_draws_per_output", "ratio", "lower", "peak_rss_mb and op_ms_p90 on bulk-sample"),
    ("algebra.geo_max_cdf.calls", "1/op", "lower", "ops_per_s on small-calls"),
    ("algebra.geo_max_cdf.self_s", "s/op", "lower", "ops_per_s on small-calls"),
    ("extremal.compound_simulate.self_s", "s/op", "lower", "ops_per_s on bulk-sample"),
    ("extremal.compound_simulate.ns_per_item", "ns/item", "lower", "ops_per_s on bulk-sample"),
    ("extremal.ep_simulate_ensemble.self_s", "s/op", "lower", "ops_per_s on bulk-sample"),
    ("extremal.ep_simulate_ensemble.ns_per_item", "ns/item", "lower", "ops_per_s on bulk-sample"),
    ("extremal.subordinator_marginal.self_s", "s/op", "lower", "ops_per_s on bulk-sample"),
    ("ar1.ar1_ensemble.calls", "1/op", "lower", "ops_per_s and op_ms_p50 on registry and cli"),
    ("ar1.ar1_ensemble.self_s", "s/op", "lower", "ops_per_s and op_ms_p50 on registry and cli"),
    ("ar1.ar1_ensemble.variates_per_chain", "1/chain", "lower", "ops_per_s and op_ms_p50 on registry and cli"),
    ("ar1.ar1_simulate.self_s", "s/op", "lower", "ops_per_s on bulk-sample and cli"),
    ("ar1.ar1_simulate.ns_per_step", "ns/step", "lower", "ops_per_s on bulk-sample and cli"),
    ("ar1.ar1_step.calls", "1/op", "lower", "ops_per_s on bulk-sample and cli"),
    ("ksstats.ks_one_sample.calls", "1/op", "lower", "ops_per_s on registry"),
    ("ksstats.ks_one_sample.self_s", "s/op", "lower", "ops_per_s on registry"),
    ("ksstats.ks_one_sample.ns_per_item", "ns/item", "lower", "ops_per_s on registry"),
    ("ksstats.quantile_grid.self_s", "s/op", "lower", "ops_per_s on registry"),
    *[(f"verify.{check}.s", "s/op", "lower", "ops_per_s on registry") for check in CHECK_IDS],
    ("verify.ks_tests", "1/op", "lower", "ops_per_s on registry"),
    ("verify.mc_pass_frac", "ratio", "higher", "none; strict 1% verdicts, for information only"),
    ("cli.main.self_s", "s/op", "lower", "op_ms_p50 on cli"),
    ("cli.main.bytes", "B/op", "lower", "op_ms_p50 on cli"),
    ("cli.main.ns_per_byte", "ns/B", "lower", "op_ms_p50 on cli"),
    ("cli.import_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead_frac", "ratio", "lower", "none; traced over untraced op time, minus one"),
]


class Tracer:
    """Spans in parallel flat arrays; ``active`` is true only while an op runs."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.samplers: set[int] = set()  # name ids of functions taking an rng
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.items = array("q")
        self.variates = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_op = -1
        self.active = False
        self.drawn = 0

    def name_id(self, name: str, sampler: bool = False) -> int:
        ident = self.ids.get(name)
        if ident is None:
            ident = self.ids[name] = len(self.names)
            self.names.append(name)
            if sampler:
                self.samplers.add(ident)
        return ident

    def open(self, name: str, sampler: bool = False) -> int:
        span = len(self.name)
        self.name.append(self.name_id(name, sampler))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.items.append(0)
        self.variates.append(self.drawn)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int, items: int) -> None:
        self.end[span] = time.perf_counter()
        self.items[span] = items
        self.variates[span] = self.drawn - self.variates[span]
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op,items,variates\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.op[i]},{self.items[i]},{self.variates[i]}\n"
                )


class CountingGenerator:
    """Forwards to a numpy Generator and adds the size of every draw to the tracer."""

    def __init__(self, generator: np.random.Generator, tracer: Tracer) -> None:
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._generator, attr)
        if attr.startswith("_") or attr == "spawn" or not callable(value):
            return value
        tracer = self._tracer

        def draw(*args, **kwargs):
            out = value(*args, **kwargs)
            if tracer.active:
                tracer.drawn += int(np.size(out))
            return out

        return draw


def _items(out) -> int:
    if out is None:
        return 0
    if isinstance(out, np.ndarray):
        return int(out.size)
    if isinstance(out, (list, tuple)):
        return len(out)
    return 1


def _law_label(route: str):
    def label(args, kwargs) -> str:
        law = args[0]
        return f"laws.{route}.{law.kind.value}.{law.exponent.family.value}"
    return label


def _check_label(args, kwargs) -> str:
    return f"verify.{args[0] if args else kwargs['theorem_id']}"


# spans named from their arguments rather than from the function
_LABELS = {
    "laws.MaxLaw.sample_inverse": _law_label("sample_inverse"),
    "laws.MaxLaw.sample_latent": _law_label("sample_latent"),
    "verify.verify": _check_label,
}

# item counts that are not the size of the return value
_ITEMS = {"ksstats.ks_one_sample": lambda report: report.n}


def _wrap(tracer: Tracer, fn, name: str):
    label = _LABELS.get(name)
    count = _ITEMS.get(name, _items)
    sampler = "rng" in inspect.signature(fn).parameters
    counting = name == "rng.RandomSource.generator"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.open(label(args, kwargs) if label else name, sampler)
        out = None
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span, count(out) if out is not None else 0)
        return CountingGenerator(out, tracer) if counting else out

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every public function and method of the maxdiv layers in place."""
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"maxdiv.{layer}")
        for public in getattr(module, "__all__", ()):
            obj = getattr(module, public)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[obj] = _wrap(tracer, obj, f"{layer}.{public}")
            elif inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        setattr(obj, attr, _wrap(tracer, fn, f"{layer}.{obj.__name__}.{attr}"))
    for modname, module in list(sys.modules.items()):
        if modname != "maxdiv" and not modname.startswith("maxdiv."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])


def layer_metrics(tracer: Tracer, ops: int, extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric; a layer a workload never calls reads 0."""
    n = len(tracer.name)
    name = np.frombuffer(tracer.name, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    items = np.frombuffer(tracer.items, dtype=np.int64).astype(float)
    variates = np.frombuffer(tracer.variates, dtype=np.int64).astype(float)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    nested = parent >= 0
    child = np.zeros(n)
    np.add.at(child, parent[nested], dur[nested])
    own = dur - child

    k = len(tracer.names)
    calls = np.bincount(name, minlength=k).astype(float)
    self_s = np.bincount(name, weights=own, minlength=k)
    total_s = np.bincount(name, weights=dur, minlength=k)
    total_items = np.bincount(name, weights=items, minlength=k)
    total_variates = np.bincount(name, weights=variates, minlength=k)

    # spans are appended in open order, so a parent always precedes its children
    names = tracer.names
    sampler_ids = tracer.samplers
    check_ids = {tracer.ids.get(f"verify.{check}") for check in CHECK_IDS}
    name_l, parent_l = name.tolist(), parent.tolist()
    under_sampler = [False] * n
    under_check = [False] * n
    for i, p in enumerate(parent_l):
        if p >= 0:
            under_sampler[i] = under_sampler[p] or name_l[p] in sampler_ids
            under_check[i] = under_check[p] or name_l[p] in check_ids
    outermost = np.array([name_l[i] in sampler_ids and not under_sampler[i] for i in range(n)], bool)

    def per_op(values, label):
        i = tracer.ids.get(label)
        return float(values[i]) / ops if i is not None else 0.0

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    def ns_per_item(label):
        i = tracer.ids.get(label)
        return ratio(total_s[i] * _NS, total_items[i]) if i is not None else 0.0

    out = dict.fromkeys((metric for metric, _unit, _better, _moves in PER_LAYER), 0.0)
    out["rng.variates"] = float(tracer.drawn) / ops
    out["rng.variates_per_output"] = ratio(variates[outermost].sum(), items[outermost].sum())
    for metric, _unit, _better, _moves in PER_LAYER:
        stem, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = per_op(calls, stem)
        elif field == "self_s":
            out[metric] = per_op(self_s, stem)
        elif field in ("ns_per_item", "ns_per_step"):
            out[metric] = ns_per_item(stem)
    for check in CHECK_IDS:
        out[f"verify.{check}.s"] = per_op(total_s, f"verify.{check}")
    ks = tracer.ids.get("ksstats.ks_one_sample")
    out["verify.ks_tests"] = sum(1 for i in range(n) if name_l[i] == ks and under_check[i]) / ops
    geo = tracer.ids.get("algebra.geo_max_sample")
    if geo is not None:
        inner = np.isin(name, [i for i, s in enumerate(names) if s.startswith("laws.sample_inverse.")]) & nested
        inner[inner] = name[parent[inner]] == geo
        out["algebra.geo_max_sample.inner_draws_per_output"] = ratio(items[inner].sum(), total_items[geo])
    ens = tracer.ids.get("ar1.ar1_ensemble")
    if ens is not None:
        out["ar1.ar1_ensemble.variates_per_chain"] = ratio(total_variates[ens], total_items[ens])
    cli = tracer.ids.get("cli.main")
    if cli is not None:
        out["cli.main.bytes"] = per_op(total_items, "cli.main")
        out["cli.main.ns_per_byte"] = ratio(self_s[cli] * _NS, total_items[cli])
    out.update(extra)
    return out
