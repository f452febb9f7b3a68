"""The four benchmark workloads: seeded inputs and checked jobs.

``build(name, seed, workdir)`` makes a workload's inputs from the seed and
returns its jobs.  The seed drives pmfs, walk parameters, Gaussian field draws
and Monte-Carlo seeds; shapes, sizes and the job list are fixed, so every
seed gives the same job count.  Inputs are plain numbers, arrays and
JSON files: every qfield call, law construction included, happens inside
a job, where it is timed.

A job is a name and a function that calls qfield and returns
``[(tolerance_key, statistic), ...]``.  The job passes when it raises
nothing and every statistic is finite and at most ``TOL[key]``.

Jobs reach qfield through module attributes at call time (``walks.x``,
never a name imported from a qfield module), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from qfield import cli, fields, green, hamiltonian, krawtchouk, limits
from qfield import pointprocess, walks

# Pinned tolerances, from tests/test_acceptance.py, the module tests and
# the README's CLI contract.
TOL = {
    "kernel_row_sum": 1e-10,      # criterion 01
    "kernel_negativity": 1e-12,   # criterion 01
    "green_row_sum": 1e-10,       # test_green row sums, verify suite
    "inversion": 1e-10,           # criterion 07
    "orthogonality": 1e-9,        # criterion 04
    "duality": 1e-9,              # criterion 04
    "kappa_routes": 1e-10,        # test_krawtchouk: both kappa routes agree
    "lumping": 1e-9,              # criterion 05
    "grouping": 1e-10,            # test_cli partition grouping residual
    "identity": 1e-10,            # criterion 08
    "limit_routes": 1e-9,         # criterion 10
    "half_process": 1e-12,        # criterion 06
    "krawtchouk_exact": 1e-12,    # test_krawtchouk: DP against the q = 2 integers
    "potts_delta": 1e-9,          # test_cli potts: log E[Z] against its delta form
    "mc_se": 4.0,                 # criteria 06, 10, 11: error in standard errors
    "cov_se": 5.0,                # criterion 07: covariance error in standard errors
    "cli": 0.0,                   # exit 0, within_tol true, fields as requested
}

@dataclass
class Job:
    name: str
    fn: Callable[[], list[tuple[str, float]]]


@dataclass
class Workload:
    jobs: list[Job]
    # counts the jobs make themselves, reported with the per-layer metrics
    counters: dict[str, float] = field(
        default_factory=lambda: {"cli.output_bytes": 0})


def _mc_seed(rng) -> int:
    return int(rng.integers(2**31))


def _lazy_gammas(rng, atoms: int = 2) -> list[float]:
    return [float(g) for g in rng.uniform(0.1, 0.9, size=atoms)]


# -- spectral-sweep ----------------------------------------------------------

SWEEP_ALPHA = 0.5


def criterion01_shapes() -> list[tuple[int, int]]:
    """The 613 (q, d) shapes of acceptance criterion 01."""
    pairs = [(q, d) for d in range(2, 13) for q in range(2, 65) if q**d <= 4096]
    pairs += [(q, 1) for q in range(2, 513)] + [(1024, 1), (2048, 1), (4096, 1)]
    return pairs


def seeded_law_doc(family: str, q: int, d: int, rng) -> dict:
    """A law document of ``family`` at (q, d) with seeded parameters."""
    doc = {"variant": family, "q": q, "d": d}
    if family == "deterministic":
        doc["shift"] = [int(v) for v in rng.integers(0, q, size=d)]
    elif family == "product_iid":
        doc["pmf"] = rng.dirichlet(np.ones(q))
    elif family == "definetti_mixture":
        weights = rng.dirichlet(np.ones(2))
        doc["components"] = [{"weight": w, "pmf": rng.dirichlet(np.ones(q))}
                             for w in weights]
    elif family == "sparse_exchangeable":
        c = min(2, d)
        doc["c"] = c
        if c == 1:
            doc["joint_pmf"] = rng.dirichlet(np.ones(q))
        else:  # a symmetric joint pmf on Z_q^2 is exchangeable in its slots
            s = rng.random((q, q))
            s = s + s.T
            doc["joint_pmf"] = (s / s.sum()).ravel()
    return doc


def _sweep_job(doc: dict) -> Job:
    def run():
        spec = walks.law_from_json(doc).spectrum()
        k = walks.transition_kernel(spec)
        g = green.green_exact(spec, SWEEP_ALPHA, materialize=False)
        return [("kernel_row_sum", abs(float(k.sum()) - 1.0)),
                ("kernel_negativity", max(0.0, -float(k.min()))),
                ("green_row_sum", abs(float(g.kernel.sum()) - 1.0))]
    return Job(f"{doc['variant']} q={doc['q']} d={doc['d']}", run)


def spectral_sweep(rng, workdir) -> Workload:
    return Workload([_sweep_job(seeded_law_doc(family, q, d, rng))
                     for q, d in criterion01_shapes()
                     for family in walks.BUILTIN_FAMILIES])


# -- dense-fields ------------------------------------------------------------

DENSE_ALPHA = 0.5
DENSE_SHAPES = ((2, 12), (16, 3), (4096, 1))   # q^d = 4096: many short to one long axis
DENSE_BATCH = 64
IDENTITY_SHAPE = (4, 5)                         # 1024 states
IDENTITY_VECTORS = 4
COV_SHAPE = (2, 6)                              # N = 64
COV_SAMPLES = 6000


def _green_matrix_job(q, d, gammas) -> Job:
    def run():
        spec = walks.lazy_walk(q, d, gammas).spectrum()
        g = green.green_exact(spec, DENSE_ALPHA)
        return [("green_row_sum",
                 float(np.max(np.abs(g.matrix.sum(axis=1) - 1.0))))]
    return Job(f"green materialized q={q} d={d}", run)


def _round_trip_job(q, d, gammas, seed) -> Job:
    def run():
        spec = walks.lazy_walk(q, d, gammas).spectrum()
        sample = fields.sample_field(spec, DENSE_ALPHA, seed,
                                     n_samples=DENSE_BATCH)
        back = fields.invert_field(sample.values, spec, DENSE_ALPHA)
        return [("inversion", float(np.max(np.abs(back - sample.driver))))]
    return Job(f"field round trip q={q} d={d}", run)


def _identity_job(gammas, g, drv, i) -> Job:
    q, d = IDENTITY_SHAPE

    def run():
        spec = walks.lazy_walk(q, d, gammas).spectrum()
        lhs, _, res = hamiltonian.hamiltonian_identity_check(spec, DENSE_ALPHA, g)
        gap = abs(hamiltonian.hamiltonian_value(drv, spec, DENSE_ALPHA)
                  - 0.5 * float(drv @ drv))
        return [("identity", res / (1.0 + abs(lhs))), ("identity", gap)]
    return Job(f"hamiltonian identity q={q} d={d} #{i}", run)


def _covariance_job(gammas, seed) -> Job:
    q, d = COV_SHAPE

    def run():
        spec = walks.lazy_walk(q, d, gammas).spectrum()
        sample = fields.sample_field(spec, DENSE_ALPHA, seed,
                                     n_samples=COV_SAMPLES)
        cov = fields.empirical_covariance(sample.values)
        se = fields.covariance_stderr(sample.values)
        target = green.green_exact(spec, DENSE_ALPHA).matrix
        return [("cov_se", float(np.max(np.abs(cov - target)
                                         / np.maximum(se, 1e-12))))]
    return Job(f"field covariance q={q} d={d} n={COV_SAMPLES}", run)


def dense_fields(rng, workdir) -> Workload:
    jobs = []
    for q, d in DENSE_SHAPES:
        gammas = _lazy_gammas(rng)
        jobs.append(_green_matrix_job(q, d, gammas))
        jobs.append(_round_trip_job(q, d, gammas, _mc_seed(rng)))
    gammas = _lazy_gammas(rng)
    n = IDENTITY_SHAPE[0] ** IDENTITY_SHAPE[1]
    for i in range(IDENTITY_VECTORS):
        jobs.append(_identity_job(gammas, rng.standard_normal(n),
                                  rng.standard_normal(n), i))
    jobs.append(_covariance_job(_lazy_gammas(rng), _mc_seed(rng)))
    return Workload(jobs)


# -- grouped-counts ----------------------------------------------------------

GROUPED_ALPHA = 0.5
KAPPA_SHAPES = ((2, 12), (3, 6))
TABLE_SHAPE = (4, 5)
CHAIN_SHAPE = (3, 4)
COUNT_FIELD_SHAPE = (2, 8)
COUNT_FIELD_SAMPLES = 20000
LIMIT_QS = (2, 3, 4)
LIMIT_POINTS = 5


def _orthogonality_job(q, d) -> Job:
    def run():
        return [("orthogonality",
                 krawtchouk.orthogonality_residual(q, d, min(d, 4)))]
    return Job(f"orthogonality q={q} d={d}", run)


def _duality_job(q, d) -> Job:
    def run():
        return [("duality", krawtchouk.max_duality_residual(q, d, min(d, 4)))]
    return Job(f"duality q={q} d={d}", run)


def _kappa_job(q, d, gammas, weights, l) -> Job:
    def run():
        law = walks.lazy_walk(q, d, gammas, weights)
        a = krawtchouk.kappa_route_counts(law, l)
        b = krawtchouk.kappa_route_transform(law, l)
        return [("kappa_routes", abs(a - b))]
    return Job(f"kappa routes q={q} d={d} l={l}", run)


def _table_job() -> Job:
    q, d = TABLE_SHAPE

    def run():
        tab = krawtchouk.table(q, d)
        return [("orthogonality",
                 krawtchouk.orthogonality_residual(q, d, tab=tab))]
    return Job(f"table q={q} d={d}", run)


def _chain_job(gammas, t) -> Job:
    q, d = CHAIN_SHAPE

    def run():
        law = walks.lazy_walk(q, d, gammas)
        kap = {l: krawtchouk.kappa_from_law(law, l)
               for l in krawtchouk.degree_indices(q, d)}
        kernel, _ = krawtchouk.count_chain_kernel(kap, q, d, t)
        p = walks.transition_matrix(law.spectrum())
        lumped = krawtchouk.lump_by_type(np.linalg.matrix_power(p, t), q, d)
        return [("lumping", float(np.max(np.abs(kernel - lumped))))]
    return Job(f"count chain q={q} d={d} t={t}", run)


def _grouping_job(q, d, gammas, weights) -> Job:
    def run():
        law = walks.lazy_walk(q, d, gammas, weights)
        return [("grouping",
                 hamiltonian.grouping_identity_residual(law, GROUPED_ALPHA))]
    return Job(f"grouping identity q={q} d={d}", run)


def _count_field_job(gammas, seed) -> Job:
    q, d = COUNT_FIELD_SHAPE

    def run():
        law = walks.lazy_walk(q, d, gammas)
        kap = {l: krawtchouk.kappa_from_law(law, l)
               for l in krawtchouk.degree_indices(q, d)}
        cf = fields.sample_count_field(kap, q, d, GROUPED_ALPHA, seed,
                                       n_samples=COUNT_FIELD_SAMPLES)
        tab = krawtchouk.table(q, d)
        lam = np.array([green.grouped_green_eigenvalue(kap[l], GROUPED_ALPHA).real
                        for l in tab.degrees])
        target = (tab.values.T @ ((lam / tab.h_inv)[:, None]
                                  * tab.values.conj())) / q**d
        cov = fields.empirical_covariance(cf.values)
        se = fields.covariance_stderr(cf.values)
        return [("cov_se", float(np.max(np.abs(cov - target)
                                         / np.maximum(se, 1e-12))))]
    return Job(f"count field q={q} d={d}", run)


def _limit_job(q, m_plus, l, i) -> Job:
    def run():
        m = limits.full_type_vector(m_plus, q)
        gap = abs(limits.limit_krawtchouk_series(m, l, q)
                  - limits.limit_krawtchouk_hermite(m, l, q))
        return [("limit_routes", gap)]
    return Job(f"limit routes q={q} m#{i} l={l}", run)


def grouped_counts(rng, workdir) -> Workload:
    jobs = []
    for q in (2, 3, 4):
        for d in range(1, 7):
            jobs += [_orthogonality_job(q, d), _duality_job(q, d)]
    for q, d in KAPPA_SHAPES:
        gammas, weights = _lazy_gammas(rng), rng.dirichlet(np.ones(2))
        jobs += [_kappa_job(q, d, gammas, weights, l)
                 for l in krawtchouk.degree_indices(q, d)]
        jobs.append(_grouping_job(q, d, gammas, weights))
    jobs.append(_table_job())
    gammas = _lazy_gammas(rng)
    jobs += [_chain_job(gammas, t) for t in range(4)]
    jobs.append(_count_field_job(_lazy_gammas(rng), _mc_seed(rng)))
    for q in LIMIT_QS:
        for i in range(LIMIT_POINTS):
            m_plus = 0.8 * rng.standard_normal(q - 1)
            jobs += [_limit_job(q, m_plus, l, i)
                     for l in krawtchouk.degree_indices(q, 5, 4)]
    return Workload(jobs)


# -- cli-session -------------------------------------------------------------

MC_THREADS = min(2, len(os.sched_getaffinity(0)))
CLI_Q, CLI_D = 2, 6
CLI_FIELDS = 256


def _cli_runner(counters: dict) -> Callable[[list[str]], tuple[int, dict]]:
    """Run ``qfield.cli.main(argv)`` in process; return (exit code, document)."""
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a malformed argv
                code = exc.code if isinstance(exc.code, int) else 2
        text = out.getvalue()
        counters["cli.output_bytes"] += len(text.encode())
        if code != 0:
            return code, {}
        for path in (argv[i + 1] for i, a in enumerate(argv) if a == "--out"):
            counters["cli.output_bytes"] += os.path.getsize(path)
        return code, json.loads(text)
    return run


def _cli_job(name, run, argv, check=None) -> Job:
    """``check(result, manifest)`` returns extra statistics."""
    def job():
        code, doc = run(argv)
        stats = [("cli", float(code != 0))]
        if code != 0:
            return stats
        result = doc["result"]
        if "within_tol" in result or "--tol" in argv:
            stats.append(("cli", float(result.get("within_tol") is not True)))
        if check is not None:
            stats += check(result, doc["manifest"])
        return stats
    return Job(name, job)


def _mc_gap(est, exact, se) -> float:
    return abs(complex(*est) - complex(*exact)) / se if se > 0 else math.inf


def _write_json(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _csv_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def cli_session(rng, workdir) -> Workload:
    wl = Workload([])
    run = _cli_runner(wl.counters)
    threads = str(MC_THREADS)

    gammas = _lazy_gammas(rng)
    law_doc = {"variant": "definetti_mixture", "q": CLI_Q, "d": CLI_D,
               "components": [{"weight": 0.5, "pmf": [1.0 - g, g]}
                              for g in gammas]}
    law_path = _write_json(workdir, "law.json", law_doc)

    pmfs = rng.dirichlet(np.ones(3), size=2)
    pmfs[:, 2] = pmfs[:, 1]  # symmetric atoms keep the moments real
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    pp_weights = rng.dirichlet(np.ones(2))
    spec_doc = {"alpha": float(rng.uniform(0.2, 0.8)), "phi": 1.0,
                "atoms": [{"pmf": p.tolist(), "weight": float(w)}
                          for p, w in zip(pmfs, pp_weights)]}
    spec_path = _write_json(workdir, "spec.json", spec_doc)

    config = {"n_vectors": int(rng.integers(4, 12)), "tol": 1e-10}
    config_path = _write_json(workdir, "hamiltonian.json", config)

    alpha = str(round(float(rng.uniform(0.3, 0.7)), 6))
    x = ",".join(str(int(v)) for v in rng.integers(0, CLI_Q, size=CLI_D))
    m1 = int(rng.integers(0, CLI_D + 1))
    l1 = int(rng.integers(0, CLI_D + 1))
    seeds = [str(_mc_seed(rng)) for _ in range(8)]
    lap_varphi = rng.uniform(0.2, 1.5, size=2)
    lap_seed = _mc_seed(rng)
    green_csv = os.path.join(workdir, "green.csv")
    field_csv = os.path.join(workdir, "field.csv")
    n_states = CLI_Q**CLI_D

    def green_matrix(result, _):
        return [("green_row_sum", result["max_row_sum_error"]),
                ("cli", float(result["rows"] != n_states
                              or _csv_lines(green_csv) != n_states + 1))]

    def field_csv_rows(result, _):
        return [("cli", float(_csv_lines(field_csv) != CLI_FIELDS + 1))]

    def kraw_value(result, _):
        exact = krawtchouk.krawtchouk_exact_q2((CLI_D - m1, m1), l1)
        return [("krawtchouk_exact", abs(result["value"][0] - exact)
                 + abs(result["value"][1])),
                ("cli", float(result["h_inv"] != math.comb(CLI_D, l1)))]

    def pointproc_mc(result, _):
        return [("mc_se", _mc_gap(result["mc_estimate"], result["closed_form"],
                                  result["mc_stderr"])),
                ("half_process", result["half_process_residual"])]

    def potts_mc(result, _):
        return [("mc_se", abs(result["mc_partition"] - result["expected_partition"])
                 / result["mc_stderr"]),
                ("potts_delta", abs(math.log(result["expected_partition"])
                                 - result["log_expected_partition_delta"]))]

    def transform_rows(result, _):
        return [("mc_se", _mc_gap(r["mc"], r["closed"], r["stderr"]))
                for r in result["rows"]]

    def verify_suite(result, _):
        return [("cli", float(result["all_pass"] is not True))]

    def config_applied(result, manifest):
        # explicit --alpha and --seed plus config-supplied options, all as
        # requested
        return [("cli", float(result["alpha"] != float(alpha)
                              or result["n_vectors"] != config["n_vectors"]
                              or result.get("tol") != config["tol"]
                              or manifest["seed"] != int(seeds[6])))]

    def laplace():
        spec = pointprocess.PointProcessSpec(
            spec_doc["alpha"],
            [pointprocess.XiAtom(np.array(a["pmf"]), a["weight"])
             for a in spec_doc["atoms"]], 1.0)
        est, se = pointprocess.log_laplace_mc(spec, lap_varphi, 400_000,
                                              lap_seed, workers=MC_THREADS)
        return [("mc_se", abs(est - pointprocess.log_laplace(spec, lap_varphi))
                 / se)]

    law_inline = json.dumps(law_doc)
    jobs = [
        _cli_job("eigen", run, ["eigen", "--law", law_inline, "--tol", "1e-10"]),
        _cli_job("green row", run, ["green", "--law", law_path, "--alpha", alpha,
                                    "--row", x, "--tol", "1e-10"]),
        _cli_job("green matrix", run, ["green", "--law", law_path, "--alpha",
                                       alpha, "--out", green_csv], green_matrix),
        _cli_job("mc-green", run, ["mc-green", "--law", law_path, "--alpha", "0.8",
                                   "--x0", x, "--n", "200000", "--seed", seeds[0],
                                   "--threads", threads, "--tol", "0.02"]),
        _cli_job("sample-field", run, ["sample-field", "--law", law_path,
                                       "--alpha", alpha, "-n", str(CLI_FIELDS),
                                       "--seed", seeds[1], "--threads", threads,
                                       "--out", field_csv, "--tol", "1e-10"],
                 field_csv_rows),
        _cli_job("krawtchouk value", run, ["krawtchouk", "--q", "2", "--d",
                                           str(CLI_D), "--l", str(l1), "--m",
                                           f"{CLI_D - m1},{m1}"], kraw_value),
        _cli_job("krawtchouk orthogonality", run,
                 ["krawtchouk", "--q", "3", "--d", "4", "--check",
                  "orthogonality", "--tol", "1e-9"]),
        _cli_job("kappa", run, ["kappa", "--law", law_path, "--l", "1",
                                "--route", "both", "--tol", "1e-10"]),
        _cli_job("pointproc", run, ["pointproc", "--spec", spec_path, "--l", "1,2",
                                    "--mc", "400000", "--seed", seeds[2],
                                    "--threads", threads], pointproc_mc),
        _cli_job("hamiltonian", run, ["hamiltonian", "--law", law_path,
                                      "--alpha", alpha, "--seed", seeds[3],
                                      "--n-vectors", "10", "--tol", "1e-10"]),
        _cli_job("partition", run, ["partition", "--law", law_path, "--alpha",
                                    alpha, "--beta", "1.3", "--tol", "1e-10"]),
        _cli_job("potts", run, ["potts", "--law", law_path, "--alpha", alpha,
                                "--beta", "0.3", "--n", "20000", "--seed",
                                seeds[4], "--threads", threads], potts_mc),
        # the limit subcommand has no --threads option
        _cli_job("limit transform", run, ["limit", "--check", "transform", "--q",
                                          "2", "--mc", "400000", "--seed",
                                          seeds[5]], transform_rows),
        _cli_job("limit limit-kraw", run, ["limit", "--check", "limit-kraw",
                                           "--q", "3", "--seed", seeds[7],
                                           "--tol", "1e-9"]),
        _cli_job("verify", run, ["verify", "--q", "2", "--d", "3", "--seed",
                                 seeds[7]], verify_suite),
        _cli_job("hamiltonian --config", run,
                 ["hamiltonian", "--law", law_path, "--alpha", alpha, "--seed",
                  seeds[6], "--config", config_path], config_applied),
        # no subcommand reaches the Laplace-transform sampler
        Job("log_laplace_mc", laplace),
    ]
    wl.jobs = jobs
    return wl


WORKLOADS = {
    "spectral-sweep": spectral_sweep,
    "dense-fields": dense_fields,
    "grouped-counts": grouped_counts,
    "cli-session": cli_session,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Inputs and jobs of workload ``name`` for ``seed``."""
    return WORKLOADS[name](np.random.default_rng(seed), workdir)


def run_jobs(jobs: list[Job], tol: dict[str, float] = TOL,
             tracer=None) -> tuple[list[dict], float]:
    """Run every job and gate it; return (records, wall seconds).

    A job that raises or misses a tolerance is recorded as failed and the
    run goes on.  Wall time runs from the first job's start to the last
    job's checked result.  With a ``tracer``, spans carry the job index.
    """
    records = []
    t0 = time.monotonic()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        try:
            stats = job.fn()
            error = None
        except Exception as exc:  # a raising job is a counted failure
            stats, error = [], f"{type(exc).__name__}: {exc}"
        misses = [(k, v) for k, v in stats
                  if not (math.isfinite(v) and v <= tol[k])]
        records.append({"name": job.name, "ok": error is None and not misses,
                        "error": error, "misses": misses})
    return records, time.monotonic() - t0
