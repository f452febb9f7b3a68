"""Command-line front end.

Subcommands: eigen, green, mc-green, sample-field, krawtchouk, kappa,
pointproc, hamiltonian, partition, potts, limit, verify.

Each handler ``cmd_<name>(args)`` returns ``(result, statistic)``, the
statistic being the headline number that ``--tol`` judges, or None.
``main`` alone parses argv (``--config`` keys become flags ahead of it),
judges ``--tol`` and emits {"manifest": ..., "result": ...} as JSON to
``--out`` or stdout.  Matrices and field samples go to CSV at ``--out``
(header row, complex values as re/im column pairs), their JSON to stdout.
The manifest records version, a hash of the effective config, the seed,
thread count and wall time; everything under "result" is byte-identical
across runs with the same config and seed, whatever the thread count:
``--threads`` only schedules the Monte-Carlo blocks.

Exit codes: 0 success, 1 a result with ``all_pass: false`` (verify), 2
bad configuration (any input error: ConfigError or ``lattice.RangeError``),
3 numerical contract violation (``lattice.NumericalError``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, _mc, fields, green, hamiltonian, krawtchouk, limits
from . import pointprocess, verify, walks
from .lattice import MATERIAL_LIMIT, NumericalError, RangeError, budget, size

CONFIG_EXIT = 2
NUMERIC_EXIT = 3


class ConfigError(Exception):
    """Bad CLI/config input; message carries a JSON-pointer-ish path."""


def _load_json_arg(value: str, pointer: str) -> dict:
    """Accept a path to a JSON file or an inline JSON object."""
    text = value
    if not value.lstrip().startswith("{"):
        try:
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"{pointer}: cannot read {value!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{pointer}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{pointer}: expected a JSON object")
    return doc


def _law_from_arg(value: str) -> walks.IncrementLaw:
    doc = _load_json_arg(value, "$.law")
    try:
        return walks.law_from_json(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"$.law: {exc}") from exc


def _pointproc_spec_from_arg(value: str) -> pointprocess.PointProcessSpec:
    doc = _load_json_arg(value, "$.spec")
    try:
        atoms = [pointprocess.XiAtom(a["pmf"], float(a["weight"]))
                 for a in doc["atoms"]]
        return pointprocess.PointProcessSpec(
            float(doc["alpha"]), atoms, float(doc.get("phi", 1.0)))
    except KeyError as missing:
        raise ConfigError(f"$.spec: missing field {missing}") from None
    except (RangeError, TypeError, ValueError) as exc:
        raise ConfigError(f"$.spec: {exc}") from exc


def _int_list(text: str, pointer: str) -> list[int]:
    values = [v for v in text.split(",") if v != ""]
    if not all(v.strip().isdecimal() for v in values):
        raise ConfigError(f"{pointer}: expected comma-separated integers >= 0")
    return [int(v) for v in values]


def _coords(text: str, law: walks.IncrementLaw, pointer: str) -> list[int]:
    """A lattice point of ``law``: exactly d entries, each in [0, q)."""
    x = _int_list(text, pointer)
    if len(x) != law.d or any(v >= law.q for v in x):
        raise ConfigError(
            f"{pointer}: expected {law.d} coordinates in [0, {law.q}), got {text!r}")
    return x


@contextlib.contextmanager
def _out_file(path: str):
    """``path`` open for writing; failing to write it is a $.out error."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"$.out: cannot write {path!r}: {exc}") from exc


def _config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _spectrum_hash(spec: walks.Spectrum) -> str:
    # + 0.0 folds -0.0 into 0.0, so imaginary noise that rounds to zero
    # hashes the same whatever its sign
    rounded = np.round(spec.rho, 12) + 0.0
    return hashlib.sha256(rounded.tobytes()).hexdigest()[:16]


def _emit(args, result: dict, t0: float) -> None:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "out") and v is not None}
    doc = {
        "manifest": {
            "version": __version__,
            "config_hash": _config_hash({k: str(v) for k, v in config.items()}),
            "seed": getattr(args, "seed", None),
            "threads": getattr(args, "threads", None),
            "wall_time_ms": round(1000.0 * (time.monotonic() - t0), 3),
        },
        "result": result,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with _out_file(args.out) as fh:
            fh.write(text + "\n")
    else:
        print(text)


# values per block of CSV rows: bounds the Python floats alive at once
_CSV_BLOCK_VALUES = 1 << 15


def _write_complex_csv(path: str, rows: np.ndarray, prefix: str) -> None:
    """One CSV line per row, columns ``{prefix}{j}_re, {prefix}{j}_im``.

    Real rows get the imaginary column "0.0".  Rows go out in blocks of
    about _CSV_BLOCK_VALUES interleaved re/im floats; ``csv`` writes a float
    as its ``repr``, the shortest string that round-trips.
    """
    rows = np.atleast_2d(rows)
    n_rows, n_cols = rows.shape
    header = []
    for j in range(n_cols):
        header += [f"{prefix}{j}_re", f"{prefix}{j}_im"]
    step = max(1, _CSV_BLOCK_VALUES // (2 * n_cols))
    with _out_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, n_rows, step):
            part = rows[start:start + step]
            block = np.zeros((len(part), 2 * n_cols))
            block[:, 0::2] = part.real
            if np.iscomplexobj(part):
                block[:, 1::2] = part.imag
            writer.writerows(block.tolist())


# entries of the budget per float of a JSON result list (float, list slot,
# text): peak RSS from q^d = 2^16 to 2^18 grew by 56 per point for eigen's
# [re, im] pairs and by 21 for green --row's floats
JSON_FLOAT_ENTRIES = 28


def _json_budget(what: str, floats: int) -> None:
    """Refuse a JSON result list of ``floats`` floats beyond the budget."""
    budget(f"{floats} JSON floats of {what}", entries=floats * JSON_FLOAT_ENTRIES)


def _json_list(what: str, values) -> list:
    """``values`` as lists for the JSON result, complex ones as [re, im],
    budgeted at JSON_FLOAT_ENTRIES entries per float before they exist."""
    values = np.asarray(values)
    _json_budget(what, values.size * (2 if np.iscomplexobj(values) else 1))
    if np.iscomplexobj(values):
        values = np.stack([values.real, values.imag], axis=-1)
    return values.tolist()


def _with_tol(args, result: dict, statistic: float | None) -> dict:
    """Attach a pass/fail judgment of ``statistic`` when --tol is given."""
    if args.tol is not None and statistic is not None:
        result["tol"] = float(args.tol)
        result["within_tol"] = bool(statistic <= args.tol)
    return result


def cmd_eigen(args):
    law = _law_from_arg(args.law)
    spec = law.spectrum()
    max_imag = float(np.max(np.abs(spec.rho.imag)))
    return {"q": law.q, "d": law.d, "rho": _json_list("the spectrum", spec.rho),
            "is_real": spec.is_real, "is_unit_bounded": spec.is_unit_bounded,
            "max_imag": max_imag,
            "spectrum_hash": _spectrum_hash(spec)}, max_imag


def cmd_green(args):
    law = _law_from_arg(args.law)
    if args.row is None and not args.out:
        raise ConfigError("$.out: full-matrix output needs --out FILE.csv")
    spec = law.spectrum()
    g = green.green_exact(spec, args.alpha, materialize=args.row is None)
    if args.row is not None:
        x = _coords(args.row, law, "$.row")
        row = g.row(x)
        return {"alpha": args.alpha, "x": x, "row": _json_list("the Green row", row),
                "row_sum": float(row.sum())}, abs(float(row.sum()) - 1.0)
    path, args.out = args.out, None
    _write_complex_csv(path, g.matrix, "y")
    error = float(np.max(np.abs(g.matrix.sum(1) - 1.0)))
    return {"alpha": args.alpha, "matrix_csv": path,
            "rows": int(g.matrix.shape[0]), "max_row_sum_error": error}, None


def cmd_mc_green(args):
    law = _law_from_arg(args.law)
    x0 = _coords(args.x0, law, "$.x0")
    _json_budget("the endpoint pmf", size(law.q, law.d))  # before any walk
    emp = green.green_mc(law, args.alpha, x0, args.n, args.seed,
                         workers=args.threads)
    exact = green.green_exact(law.spectrum(), args.alpha,
                              materialize=False).row(x0)
    tv = green.tv_distance(emp, exact)
    return {"alpha": args.alpha, "x0": x0, "n_walks": args.n,
            "empirical": _json_list("the endpoint pmf", emp), "tv_to_exact": tv}, tv


def cmd_sample_field(args):
    law = _law_from_arg(args.law)
    path, args.out = args.out, None
    if not path:
        raise ConfigError("$.out: sample-field needs --out FILE.csv")
    spec = law.spectrum()
    sample = fields.sample_field(spec, args.alpha, args.seed,
                                 n_samples=args.n, workers=args.threads)
    _write_complex_csv(path, sample.values, "g")
    inversion = float(np.max(np.abs(
        fields.invert_field(sample.values, spec, args.alpha) - sample.driver)))
    return {"alpha": args.alpha, "n_samples": args.n, "csv": path,
            "inversion_residual": inversion,
            "spectrum_hash": _spectrum_hash(spec)}, inversion


def cmd_krawtchouk(args):
    if args.check:
        check = (krawtchouk.orthogonality_residual
                 if args.check == "orthogonality"
                 else krawtchouk.max_duality_residual)
        residual = check(args.q, args.d, args.max_degree)
        return {"check": args.check, "max_residual": residual}, residual
    if args.l is None or args.m is None:
        raise ConfigError("$.l/$.m: value mode needs both --l and --m")
    l = _int_list(args.l, "$.l")
    m = _int_list(args.m, "$.m")
    if len(m) != args.q or sum(m) != args.d:
        raise ConfigError(f"$.m: need {args.q} counts summing to {args.d}")
    if len(l) != args.q - 1:
        raise ConfigError(f"$.l: need {args.q - 1} degree entries")
    h_inv = krawtchouk.scale_constant_inv(l, args.d)  # refuses |l| > d
    value = krawtchouk.krawtchouk(m, l, args.q)
    return {"l": l, "m": m, "value": [value.real, value.imag],
            "h_inv": h_inv}, None


def cmd_kappa(args):
    law = _law_from_arg(args.law)
    l = _int_list(args.l, "$.l")
    out = {"l": l}
    if args.route in ("transform", "both"):
        kap = krawtchouk.kappa_route_transform(law, l)
        out["transform"] = [kap.real, kap.imag]
    if args.route in ("counts", "both"):
        kap = krawtchouk.kappa_route_counts(law, l)
        out["counts"] = [kap.real, kap.imag]
    if args.route == "both":
        out["route_gap"] = float(abs(complex(*out["transform"])
                                     - complex(*out["counts"])))
    return out, out.get("route_gap")


def cmd_pointproc(args):
    spec = _pointproc_spec_from_arg(args.spec)
    l = _int_list(args.l, "$.l")
    closed = pointprocess.y_moment(spec, l)
    kap = pointprocess.kappa(spec, l)
    result = {
        "l": l, "alpha": spec.alpha, "phi": spec.phi,
        "kappa": [kap.real, kap.imag],
        "closed_form": [closed.real, closed.imag],
        "half_process_residual": pointprocess.half_process_residual(spec, l),
    }
    if not args.mc:
        return result, None
    est, se = pointprocess.y_moment_mc(spec, l, args.mc, args.seed,
                                       workers=args.threads)
    result["mc_estimate"] = [est.real, est.imag]
    result["mc_stderr"] = se
    return result, abs(est - closed)


def cmd_hamiltonian(args):
    law = _law_from_arg(args.law)
    res_max, rel_max, diag_gap = hamiltonian.identity_residuals(
        law.spectrum(), args.alpha, np.random.default_rng(args.seed),
        args.n_vectors)
    return {
        "alpha": args.alpha, "n_vectors": args.n_vectors,
        "max_identity_residual": res_max,
        "max_relative_identity_residual": rel_max,
        "max_diagonalization_gap": diag_gap,
    }, max(res_max, diag_gap)


def cmd_partition(args):
    law = _law_from_arg(args.law)
    spec = law.spectrum()
    pr = hamiltonian.partition_function(spec, args.alpha, args.beta)
    checks = {}
    if law.is_exchangeable() and size(law.q, law.d) <= MATERIAL_LIMIT:
        checks["grouping_identity_residual"] = \
            hamiltonian.grouping_identity_residual(law, args.alpha)
    return {
        "alpha": args.alpha, "beta": args.beta,
        "log_jacobian": pr.log_jacobian,
        "jacobian": pr.jacobian,
        "log_z": pr.log_z,
        "z": pr.z,
        "representable": pr.representable,
        "checks": checks,
    }, checks.get("grouping_identity_residual")


def cmd_potts(args):
    law = _law_from_arg(args.law)
    spec = law.spectrum()
    pspec = hamiltonian.PottsSpec(spec, args.alpha, args.beta)
    result = {
        "alpha": args.alpha, "beta": args.beta,
        "expected_partition": hamiltonian.expected_partition(pspec),
    }
    if law.q == 2:
        result["log_expected_partition_delta"] = \
            hamiltonian.log_expected_partition_delta(spec, args.alpha, args.beta)
    if not args.n:
        return result, None
    sample = fields.sample_field(spec, args.alpha, args.seed,
                                 n_samples=args.n, workers=args.threads)
    h = hamiltonian.potts_hamiltonian(pspec, sample)
    z_samples = np.sum(np.exp(args.beta * h.real), axis=1)
    mean, se = _mc.mean_and_stderr(z_samples)
    result["mc_partition"] = float(mean)
    result["mc_stderr"] = se
    result["mc_var_h"] = float(h.real.var())
    return result, abs(result["mc_partition"] - result["expected_partition"])


def cmd_limit(args):
    rng = np.random.default_rng(args.seed)
    q = args.q
    if args.check == "hermite":
        result = {"max_residual": limits.hermite_orthogonality_residual(q)}
    elif args.check == "limit-kraw":
        # route B runs a DP of 4 passes, q steps each, over a 5^(q-1) box per
        # degree and point (past q = 65, 5^64 already reads "more than 2^64")
        steps = 4 * q * 10 * math.comb(q + 3, 4)
        budget(f"limit-kraw at q={q}", steps=steps,
               touched=steps * 5 ** min(q - 1, 64))
        worst = 0.0
        for _ in range(10):
            m = limits.full_type_vector(rng.standard_normal(q - 1), q)
            for l in krawtchouk.degree_indices(q, 5, 4):
                worst = max(worst, abs(
                    limits.limit_krawtchouk_series(m, l, q)
                    - limits.limit_krawtchouk_hermite(m, l, q)))
        result = {"max_route_gap": worst}
    elif args.check == "transform":
        degrees = krawtchouk.degree_indices(q, 3, 2)
        omega = np.zeros(q)
        omega[1:] = rng.standard_normal(q - 1)
        checks = limits.transform_identity(omega, degrees, q,
                                           args.mc or 200_000, args.seed)
        rows = [{"l": list(l), "mc": [mc.real, mc.imag],
                 "closed": [rhs.real, rhs.imag], "stderr": se,
                 "pass": bool(abs(mc - rhs) <= 4.0 * se + 1e-12)}
                for l, (mc, rhs, se) in zip(degrees, checks)]
        result = {"omega": omega.tolist(), "rows": rows}
    elif args.check == "green-limit":
        spec = pointprocess.lazy_spec(2, args.alpha, [0.2, 0.4])
        kap = lambda l: pointprocess.kappa(spec, l)
        lam = lambda l: pointprocess.y_moment(spec, l)
        rows = []
        for d in (40, 80, 160):
            delta = int(round(0.3 * math.sqrt(d)))
            m = (d // 2 + delta, d // 2 - delta)
            meff = np.array([(m[0] - d / 2) / math.sqrt(d)])
            fin = limits.scaled_green_finite_d(kap, args.alpha, 2, d, m, m,
                                               max_degree=6)
            lim = limits.limit_green_density(meff, meff, lam, 2, 6)
            rows.append({"d": d, "finite": fin, "limit": lim,
                         "ratio": fin / lim})
        result = {"rows": rows}
    else:  # field-transform
        spec = pointprocess.lazy_spec(q, args.alpha, [0.2, 0.4])
        omega = np.zeros(q)
        psi = np.zeros(q)
        omega[1] = 0.3
        psi[1] = 0.5
        # the series route enumerates its degrees first: large q stops there
        b, tail = limits.transform_field_cov_series(omega, psi, spec, 12)
        a, bound = limits.transform_field_cov_closed(omega, psi, spec)
        result = {"closed": [a.real, a.imag], "series": [b.real, b.imag],
                  "route_gap": abs(a - b), "series_tail": tail,
                  "closed_truncation": bound}
    stat = result.get("max_residual", result.get("max_route_gap",
                                                  result.get("route_gap")))
    return {"check": args.check, **result}, stat


def cmd_verify(args):
    if args.tol is not None and args.tol <= 0:
        raise ConfigError(
            f"$.tol: verify needs a tolerance scale > 0, got {args.tol}")
    return verify.run_suite(args.q, args.d, seed=args.seed,
                            tol_scale=1.0 if args.tol is None else args.tol), None


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _at_least(low: int):
    """An argparse type: an integer >= ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _mc_count(text: str) -> int:
    """An argparse type: 0 (no Monte Carlo) or a sample count >= 2.

    One sample has no standard error.
    """
    value = _at_least(0)(text)
    if value == 1:
        raise argparse.ArgumentTypeError(
            f"expected 0 (no Monte Carlo) or an integer >= 2, got {text!r}")
    return value


def _opt(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One option: its flags and the keywords for ``add_argument``."""
    return flags, kwargs


LAW = _opt("--law", required=True, help="law JSON (file or inline)")
ALPHA = _opt("--alpha", type=_finite, required=True)
BETA = _opt("--beta", type=_finite, required=True)
SEED = _opt("--seed", type=_at_least(0), required=True,
            help="RNG seed (stochastic subcommands require one)")
SEED0 = _opt("--seed", type=_at_least(0), default=0)
THREADS = _opt("--threads", type=_at_least(1),
               default=os.environ.get("QFIELD_THREADS", "1"),
               help="Monte-Carlo worker count (default $QFIELD_THREADS or 1)")
MC = _opt("--mc", type=_mc_count, help="Monte-Carlo sample count")
Q = _opt("--q", type=_at_least(2), required=True)
D = _opt("--d", type=_at_least(1), required=True)
# every subcommand takes these
COMMON = (_opt("--out", help="write the JSON document here instead of "
                            "stdout (sample-field, green matrix: the CSV)"),
          _opt("--tol", type=_finite,
               help="pass/fail threshold on the headline statistic, adds "
                    "within_tol (verify: tolerance scale, default 1.0)"),
          _opt("--config", help="JSON file of defaults for this subcommand"))

# subcommand -> (help, options); the handler of "mc-green" is cmd_mc_green
COMMANDS = {
    "eigen": ("eigenvalues of an increment law", [LAW]),
    "green": ("exact Green matrix (CSV) or row (JSON)", [
        LAW, ALPHA, _opt("--row", help="comma-separated start point; row mode")]),
    "mc-green": ("killed-walk endpoint Monte Carlo", [
        LAW, ALPHA, _opt("--x0", required=True),
        _opt("--n", type=_at_least(1), required=True), SEED, THREADS]),
    "sample-field": ("draw Gaussian fields to CSV", [
        LAW, ALPHA, _opt("-n", "--n", type=_at_least(1), required=True), SEED,
        THREADS]),
    "krawtchouk": ("polynomial values and checks", [
        Q, D, _opt("--l"), _opt("--m"),
        _opt("--check", choices=["orthogonality", "duality"]),
        _opt("--max-degree", type=_at_least(0))]),
    "kappa": ("grouped eigenvalues of a law", [
        LAW, _opt("--l", required=True),
        _opt("--route", choices=["counts", "transform", "both"], default="both")]),
    "pointproc": ("point-process moments", [
        _opt("--spec", required=True, help="point-process JSON: alpha, phi, atoms"),
        _opt("--l", required=True), MC, SEED0, THREADS]),
    "hamiltonian": ("quadratic-form identity checks", [
        LAW, ALPHA, _opt("--n-vectors", type=_at_least(1), default=20), SEED]),
    "partition": ("Jacobian and log partition function", [LAW, ALPHA, BETA]),
    "potts": ("random-bond spin quantities", [
        LAW, ALPHA, BETA,
        _opt("--n", type=_mc_count, help="field samples for MC estimates"),
        SEED0, THREADS]),
    "limit": ("large-dimension residual tables", [
        _opt("--check", required=True,
             choices=["hermite", "limit-kraw", "transform", "green-limit",
                      "field-transform"]),
        _opt("--q", type=_at_least(2), default=2),
        _opt("--alpha", type=_finite, default=0.5),
        _opt("--mc", type=_at_least(2),
             help="Monte-Carlo sample count (default 200000)"),
        SEED0]),
    "verify": ("run the invariant suite", [Q, D, SEED0]),
}


class _Parser(argparse.ArgumentParser):
    """Argument errors become ConfigError, so ``main`` reports them as exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The parser built from COMMANDS."""
    parser = _Parser(
        prog="qfield",
        description="Spectral walks on Z_q^d, Green functions, Krawtchouk "
                    "count chains, Gaussian fields and partition functions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flags, kwargs in (*options, *COMMON):
            sp.add_argument(*flags, **kwargs)
        # looked up per build, so a rebound cmd_* (e.g. a profiler's) runs
        sp.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def _parse_with_config(parser, argv, path: str) -> argparse.Namespace:
    """argv parsed again behind the --config document as ``--key=value``
    flags (``_`` in a key becomes ``-``, a non-string value goes through
    ``json.dumps``), so explicit flags win; argv alone parsed already, so
    an error here is the config's."""
    flags = [f"--{key.replace('_', '-')}="
             + (value if isinstance(value, str) else json.dumps(value))
             for key, value in _load_json_arg(path, "$.config").items()]
    try:
        return parser.parse_args([argv[0], *flags, *argv[1:]])
    except ConfigError as exc:
        raise ConfigError(f"$.config: {exc}") from None


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        t0 = time.monotonic()
        if args.config:
            args = _parse_with_config(parser, argv, args.config)
        result, statistic = args.func(args)
        _emit(args, _with_tol(args, result, statistic), t0)
        return 1 if result.get("all_pass") is False else 0
    except (ConfigError, RangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except NumericalError as exc:
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
