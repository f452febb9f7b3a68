"""Span tracer that times calls into the qfield modules from outside them.

A :class:`Tracer` wraps the public functions listed in :data:`FUNCTIONS`
and the law / Green-operator methods listed in :data:`METHODS`.  Each
function is replaced at every ``qfield.*`` module global that binds it,
so calls made by ``qfield.cli`` or by one module into another are timed
too.  :meth:`Tracer.uninstall` puts every original object back.

A span records ``[id, name, start, end, parent, job, thread, error,
work]``.  Spans stay in memory; :meth:`Tracer.dump` writes them once.
A span opened in a pool thread with nothing open on that thread takes
the innermost open ``_mc.run_chunked`` span as its parent, so Monte-Carlo
draws are charged to the call that scheduled them.

Self time is a span's duration minus the part of it covered by the union
of its children's intervals, whichever thread the children ran on.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# (module, function) pairs timed at every module global that binds them.
FUNCTIONS = {
    "lattice": ("dft", "circulant_from_kernel"),
    "walks": ("transition_kernel", "transition_matrix", "simulate_killed"),
    "green": ("green_exact", "green_mc", "green_grouped"),
    "krawtchouk": ("krawtchouk", "table", "kappa_route_counts",
                   "kappa_route_transform", "count_chain_kernel",
                   "orthogonality_residual", "max_duality_residual"),
    "pointprocess": ("y_moment_mc", "log_laplace_mc"),
    "fields": ("sample_field", "invert_field", "empirical_covariance",
               "sample_count_field", "covariance_stderr"),
    "hamiltonian": ("expected_partition", "hamiltonian_identity_check",
                    "hamiltonian_value", "partition_function",
                    "grouping_identity_residual"),
    "limits": ("limit_krawtchouk_series", "limit_krawtchouk_hermite",
               "transform_identity"),
    "_mc": ("run_chunked",),
    "cli": ("main",),
}

# Law classes by family: their ``spectrum`` spans are named per family.
LAW_FAMILIES = {
    "UniformLaw": "uniform",
    "DeterministicLaw": "deterministic",
    "ProductIIDLaw": "product_iid",
    "DeFinettiMixtureLaw": "definetti_mixture",
    "SparseExchangeableLaw": "sparse_exchangeable",
}

# (module, class, method) -> span name.
METHODS = {("walks", cls, "spectrum"): f"walks.spectrum.{family}"
           for cls, family in LAW_FAMILIES.items()}
METHODS.update({("walks", cls, "sample"): "walks.sample"
                for cls in LAW_FAMILIES})
METHODS[("green", "GreenOperator", "row")] = "green.row"

CLI_SUBCOMMANDS = ("eigen", "green", "mc-green", "sample-field", "krawtchouk",
                   "kappa", "pointproc", "hamiltonian", "partition", "potts",
                   "limit", "verify")

POOL_PARENT = "_mc.run_chunked"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Work counted per span, computed from arguments and result.
WORK = {
    "lattice.dft": lambda a, kw, r: r.size,
    "lattice.circulant_from_kernel": lambda a, kw, r: r.nbytes,
    "walks.sample": lambda a, kw, r: len(r),
    "fields.sample_field": lambda a, kw, r: r.driver.shape[0],
    # the (n, N, N) complex128 product array the estimator materializes
    "fields.covariance_stderr": lambda a, kw, r: (
        len(a[0]) * r.shape[0] * r.shape[1] * 16),
    "pointprocess.y_moment_mc": lambda a, kw, r: _arg(a, kw, 2, "n_samples"),
    "pointprocess.log_laplace_mc": lambda a, kw, r: _arg(a, kw, 2, "n_samples"),
}


def _green_exact_name(result) -> str:
    kind = "kernel" if result is None or result.matrix is None else "materialized"
    return f"green.green_exact.{kind}"


class Tracer:
    """Records spans around qfield calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent, job = stack[-1][0], self.job
        elif self._pool_stack:
            pool = self._pool_stack[-1]
            parent, job = pool[0], pool[5]
        else:
            parent, job = None, self.job
        span = [next(self._ids), name, time.perf_counter(), None, parent, job,
                threading.get_ident(), False, 0]
        stack.append(span)
        self.spans.append(span)
        if name == POOL_PARENT:
            self._pool_stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()
        if span[1] == POOL_PARENT:
            self._pool_stack.remove(span)

    def wrap(self, fn, name: str, namer=None):
        """Return a wrapper of ``fn`` that records one span per call."""
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[7] = True
                raise
            finally:
                if namer is not None:
                    span[1] = namer(result)
                if work is not None and not span[7]:
                    span[8] = work(args, kwargs, result)
                self._close(span)

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function at each qfield module global binding it."""
        import qfield.cli  # noqa: F401  (load every module that binds targets)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qfield" or n.startswith("qfield."))]
        targets = []
        for mod_name, names in FUNCTIONS.items():
            mod = sys.modules.get(f"qfield.{mod_name}")
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is None:
                    self.absent.append(f"{mod_name}.{fname}")
                    continue
                namer = _green_exact_name if fname == "green_exact" else None
                targets.append((fn, f"{mod_name}.{fname}", namer))
        cli = sys.modules["qfield.cli"]
        for sub in CLI_SUBCOMMANDS:
            fn = getattr(cli, "cmd_" + sub.replace("-", "_"), None)
            if fn is None:
                self.absent.append(f"cli.{sub}")
            else:
                targets.append((fn, f"cli.{sub}", None))
        for fn, name, namer in targets:
            wrapper = self.wrap(fn, name, namer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)
        for (mod_name, cls_name, meth), name in METHODS.items():
            cls = getattr(sys.modules.get(f"qfield.{mod_name}"), cls_name, None)
            if cls is None or meth not in vars(cls):
                self.absent.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            self._patch(cls, meth, self.wrap(vars(cls)[meth], name))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the spans (and optional summary fields) as one JSON file."""
        doc = {"fields": ["id", "name", "start", "end", "parent", "job",
                          "thread", "error", "work"],
               "spans": self.spans, "absent": self.absent, **(extra or {})}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- analysis ------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> dict[int, tuple[float, float]]:
    """span id -> (self time, same-thread self time).

    Self time subtracts children on every thread; same-thread self time
    subtracts only children on the span's own thread, so for a span whose
    work runs in pool threads it is the time its thread spent waiting.
    """
    children: dict[int, list[list]] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s[0], [])
        dur = s[3] - s[2]
        own = [(k[2], k[3]) for k in kids if k[6] == s[6]]
        out[s[0]] = (dur - _covered([(k[2], k[3]) for k in kids], s[2], s[3]),
                     dur - _covered(own, s[2], s[3]))
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, errors, total_s, self_s, wait_s and work."""
    times = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s[1], {"calls": 0, "errors": 0, "total_s": 0.0,
                                    "self_s": 0.0, "wait_s": 0.0, "work": 0})
        row["calls"] += 1
        row["errors"] += int(s[7])
        row["total_s"] += s[3] - s[2]
        row["self_s"] += times[s[0]][0]
        row["wait_s"] += times[s[0]][1]
        row["work"] += s[8]
    return out


def _work_under(spans: list[list], name: str, ancestor: str) -> int:
    """Work of spans called ``name`` that have an ``ancestor`` span."""
    by_id = {s[0]: s for s in spans}
    total = 0
    for s in spans:
        if s[1] != name:
            continue
        p = s[4]
        while p is not None and by_id[p][1] != ancestor:
            p = by_id[p][4]
        if p is not None:
            total += s[8]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics of the benchmark, by name."""
    summary = summarize(spans)

    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    m: dict[str, float] = {
        "lattice.dft.calls": stat("lattice.dft", "calls"),
        "lattice.dft.self_s": stat("lattice.dft", "self_s"),
        "lattice.dft.points": stat("lattice.dft", "work"),
        "lattice.circulant_from_kernel.self_s":
            stat("lattice.circulant_from_kernel", "self_s"),
        "lattice.circulant_from_kernel.bytes":
            stat("lattice.circulant_from_kernel", "work"),
    }
    for family in LAW_FAMILIES.values():
        m[f"walks.spectrum.{family}.self_s"] = stat(f"walks.spectrum.{family}",
                                                    "self_s")
    for name in ("walks.transition_kernel", "walks.transition_matrix",
                 "walks.simulate_killed", "green.green_exact.kernel",
                 "green.green_exact.materialized", "green.row",
                 "green.green_mc", "green.green_grouped"):
        m[f"{name}.self_s"] = stat(name, "self_s")
    m["walks.sample.rows"] = stat("walks.sample", "work")
    m["walks.simulate_killed.steps_per_s"] = _ratio(
        _work_under(spans, "walks.sample", "walks.simulate_killed"),
        stat("walks.simulate_killed", "total_s"))
    m["krawtchouk.krawtchouk.calls"] = stat("krawtchouk.krawtchouk", "calls")
    for fname in FUNCTIONS["krawtchouk"]:
        m[f"krawtchouk.{fname}.self_s"] = stat(f"krawtchouk.{fname}", "self_s")
    for fname in ("y_moment_mc", "log_laplace_mc"):
        m[f"pointprocess.{fname}.self_s"] = stat(f"pointprocess.{fname}",
                                                 "self_s")
    m["pointprocess.samples_per_s"] = _ratio(
        stat("pointprocess.y_moment_mc", "work")
        + stat("pointprocess.log_laplace_mc", "work"),
        stat("pointprocess.y_moment_mc", "total_s")
        + stat("pointprocess.log_laplace_mc", "total_s"))
    for fname in FUNCTIONS["fields"]:
        m[f"fields.{fname}.self_s"] = stat(f"fields.{fname}", "self_s")
    m["fields.sample_field.samples"] = stat("fields.sample_field", "work")
    m["fields.covariance_stderr.bytes"] = stat("fields.covariance_stderr",
                                               "work")
    for module in ("hamiltonian", "limits"):
        for fname in FUNCTIONS[module]:
            m[f"{module}.{fname}.self_s"] = stat(f"{module}.{fname}", "self_s")
    m["mc.run_chunked.calls"] = stat("_mc.run_chunked", "calls")
    m["mc.run_chunked.wait_s"] = stat("_mc.run_chunked", "wait_s")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.s"] = stat(f"cli.{sub}", "total_s")
    m["cli.self_s"] = sum(row["self_s"] for name, row in summary.items()
                          if name.startswith("cli."))
    return m
