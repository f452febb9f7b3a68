import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfield import _mc, cli, limits, verify, walks

LAZY_LAW = json.dumps({
    "variant": "definetti_mixture", "q": 2, "d": 2,
    "components": [{"weight": 0.5, "pmf": [0.7, 0.3]},
                   {"weight": 0.5, "pmf": [0.3, 0.7]}],
})
SWAP_LAW = json.dumps({"variant": "definetti_mixture", "q": 2, "d": 1,
                       "components": [{"weight": 1.0, "pmf": [0.0, 1.0]}]})


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "qfield", *argv],
                          capture_output=True, text=True)
    return proc


def run_json(*argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_eigen_output():
    doc = run_json("eigen", "--law", '{"variant":"uniform","q":3,"d":2}')
    rho = np.array([complex(re, im) for re, im in doc["result"]["rho"]])
    assert abs(rho[0] - 1.0) < 1e-14
    assert np.max(np.abs(rho[1:])) < 1e-14
    assert doc["result"]["is_real"]
    assert doc["manifest"]["version"]


def test_green_row_json():
    doc = run_json("green", "--law", SWAP_LAW, "--alpha", "0.5", "--row", "0")
    assert np.allclose(doc["result"]["row"], [2 / 3, 1 / 3])
    assert abs(doc["result"]["row_sum"] - 1.0) < 1e-12


def test_green_matrix_csv(tmp_path):
    out = tmp_path / "g.csv"
    proc = run_cli("green", "--law", LAZY_LAW, "--alpha", "0.5",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 4  # header plus q^d rows
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    real = data[:, 0::2]
    assert np.max(np.abs(real.sum(axis=1) - 1.0)) < 1e-10
    assert np.max(np.abs(data[:, 1::2])) < 1e-12


def _csv_reference(rows, prefix):
    """The CSV text with each cell written as repr(float) of re and im."""
    rows = np.atleast_2d(rows)
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow([f"{prefix}{j}_{part}" for j in range(rows.shape[1])
                     for part in ("re", "im")])
    for row in rows:
        writer.writerow([repr(float(f(v))) for v in row
                         for f in (np.real, np.imag)])
    return text.getvalue().encode()


def _csv_cases():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((40, 5)) + 1j * rng.standard_normal((40, 5))
    z[0] = [-0.0, complex(np.nan, -0.0), complex(np.inf, -np.inf),
            complex(1e-300, -1e-300), complex(-0.0, np.nan)]
    big = rng.standard_normal((3000, 30))  # several blocks of rows
    big[7, 3] = -0.0
    # signed zero, infinities, nan, the least subnormal and the least power
    # of ten that repr writes with an exponent
    extremes = np.array([[-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16],
                         [1e16, 5e-324, np.nan, -np.inf, np.inf, -0.0]])
    mixed = extremes[0].astype(complex)
    mixed.imag = extremes[1]
    return {"complex": z, "real": z.real.copy(), "complex row": z[0],
            "real row": z.real[0], "strided": z[::3, ::2],
            "strided real": z.real[1::2, ::-1], "blocks": big,
            "extremes": extremes,
            "complex extremes": mixed}


@pytest.mark.parametrize("name", list(_csv_cases()))
def test_csv_bytes_equal_per_cell_repr(tmp_path, name):
    rows = _csv_cases()[name]
    out = tmp_path / "rows.csv"
    cli._write_complex_csv(str(out), rows, "g")
    assert out.read_bytes() == _csv_reference(rows, "g")


@pytest.mark.parametrize("name", ["complex row", "real row", "strided"])
def test_json_lists_hold_the_floats_of_the_array(name):
    rows = _csv_cases()[name]
    want = [[float(np.real(v)), float(np.imag(v))] for v in rows.ravel()] \
        if np.iscomplexobj(rows) else [float(v) for v in rows.ravel()]
    got = cli._json_list("rows", rows.ravel())
    assert json.dumps(got) == json.dumps(want)


def test_json_lists_are_budgeted_before_they_are_built():
    values = np.zeros(2**20, dtype=complex)  # 2^21 floats
    tracemalloc.start()
    try:
        with pytest.raises(cli.RangeError, match="2097152 JSON floats of "
                           "the spectrum: needs 58720256 entries"):
            cli._json_list("the spectrum", values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_partition_worked_value():
    doc = run_json("partition", "--law", SWAP_LAW, "--alpha", "0.5",
                   "--beta", "6.2831853")
    assert abs(doc["result"]["log_z"] - math.log(0.5773503)) < 1e-6
    assert doc["result"]["checks"]["grouping_identity_residual"] < 1e-10


def test_mc_green_reproducible_and_accurate():
    argv = ("mc-green", "--law", LAZY_LAW, "--alpha", "0.6", "--x0", "0,0",
            "--n", "20000", "--seed", "5", "--threads", "2")
    a = run_json(*argv)
    b = run_json(*argv)
    assert a["result"] == b["result"]  # byte-identical modulo wall time
    assert a["result"]["tv_to_exact"] < 0.02


def test_sample_field_csv_and_manifest(tmp_path):
    out = tmp_path / "fields.csv"
    proc = run_cli("sample-field", "--law", LAZY_LAW, "--alpha", "0.5",
                   "-n", "7", "--seed", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["result"]["spectrum_hash"]
    assert doc["manifest"]["seed"] == 3
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 8
    assert rows[0][:2] == ["g0_re", "g0_im"]
    assert len(rows[1]) == 8  # q^d complex values as re/im pairs


def test_sample_field_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        run_cli("sample-field", "--law", LAZY_LAW, "--alpha", "0.5",
                "-n", "4", "--seed", "11", "--threads", "2", "--out", str(out))
    assert out1.read_bytes() == out2.read_bytes()


# spans four Monte-Carlo blocks, so --threads 2 and 4 really share the work
MULTI_BLOCK = str(3 * _mc.BLOCK + 7)
PP_SPEC = json.dumps({"alpha": 0.5, "phi": 1.0,
                      "atoms": [{"pmf": [0.6, 0.2, 0.2], "weight": 0.5},
                                {"pmf": [0.2, 0.4, 0.4], "weight": 0.5}]})


@pytest.mark.parametrize("argv", [
    ["mc-green", "--law", LAZY_LAW, "--alpha", "0.6", "--x0", "0,1",
     "--n", MULTI_BLOCK, "--seed", "5"],
    ["sample-field", "--law", SWAP_LAW, "--alpha", "0.5", "-n", MULTI_BLOCK,
     "--seed", "3"],
    ["pointproc", "--spec", PP_SPEC, "--l", "1,1", "--mc", MULTI_BLOCK,
     "--seed", "2"],
    ["potts", "--law", LAZY_LAW, "--alpha", "0.5", "--beta", "0.3",
     "--n", MULTI_BLOCK, "--seed", "4"],
], ids=["mc-green", "sample-field", "pointproc", "potts"])
def test_monte_carlo_results_do_not_depend_on_threads(tmp_path, argv):
    out = tmp_path / "fields.csv"
    if argv[0] == "sample-field":
        argv = [*argv, "--out", str(out)]
    results, csvs = set(), set()
    for threads in ("1", "2", "4"):
        code, text, err = run_main([*argv, "--threads", threads])
        assert code == 0, err
        results.add(json.dumps(json.loads(text)["result"], sort_keys=True))
        if out.exists():
            csvs.add(out.read_bytes())
    assert len(results) == 1
    assert len(csvs) == (argv[0] == "sample-field")


def test_krawtchouk_value_and_checks():
    doc = run_json("krawtchouk", "--q", "2", "--d", "3", "--l", "1",
                   "--m", "2,1")
    assert doc["result"]["value"][0] == 1.0
    assert doc["result"]["h_inv"] == 3
    ortho = run_json("krawtchouk", "--q", "3", "--d", "4",
                     "--check", "orthogonality")
    assert ortho["result"]["max_residual"] < 1e-9
    dual = run_json("krawtchouk", "--q", "2", "--d", "4", "--check", "duality")
    assert dual["result"]["max_residual"] < 1e-9
    # the residuals are relative, so correct tables pass at large d too
    for argv in (("--q", "3", "--d", "30", "--check", "orthogonality"),
                 ("--q", "3", "--d", "20", "--check", "duality",
                  "--max-degree", "20")):
        doc = run_json("krawtchouk", *argv, "--tol", "1e-9")
        assert doc["result"]["within_tol"], doc["result"]


def test_kappa_routes():
    doc = run_json("kappa", "--law", LAZY_LAW, "--l", "1", "--route", "both")
    assert doc["result"]["route_gap"] < 1e-10


def test_pointproc_subcommand(tmp_path):
    spec = {"alpha": 0.5, "phi": 1.0,
            "atoms": [{"pmf": [0.75, 0.25], "weight": 1.0}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    doc = run_json("pointproc", "--spec", str(path), "--l", "2",
                   "--mc", "50000", "--seed", "2")
    assert abs(doc["result"]["closed_form"][0] - 4 / 7) < 1e-12
    est = doc["result"]["mc_estimate"][0]
    assert abs(est - 4 / 7) <= 4 * doc["result"]["mc_stderr"]
    assert doc["result"]["half_process_residual"] < 1e-12


def test_hamiltonian_subcommand():
    doc = run_json("hamiltonian", "--law", LAZY_LAW, "--alpha", "0.5",
                   "--seed", "0", "--n-vectors", "10")
    assert doc["result"]["max_identity_residual"] < 1e-10
    assert doc["result"]["max_diagonalization_gap"] < 1e-10


def test_potts_subcommand():
    doc = run_json("potts", "--law", LAZY_LAW, "--alpha", "0.5",
                   "--beta", "0.3", "--n", "20000", "--seed", "4")
    ez = doc["result"]["expected_partition"]
    assert abs(math.log(ez)
               - doc["result"]["log_expected_partition_delta"]) < 1e-9
    assert abs(doc["result"]["mc_partition"] - ez) \
        <= 4 * doc["result"]["mc_stderr"]


def test_limit_checks():
    doc = run_json("limit", "--check", "hermite", "--q", "3")
    assert doc["result"]["max_residual"] < 1e-10
    doc = run_json("limit", "--check", "field-transform", "--q", "2",
                   "--alpha", "0.6")
    assert doc["result"]["route_gap"] < 1e-6
    doc = run_json("limit", "--check", "limit-kraw", "--q", "3", "--seed", "1")
    assert doc["result"]["max_route_gap"] < 1e-9
    doc = run_json("limit", "--check", "transform", "--q", "2", "--seed", "3",
                   "--mc", "50000")
    assert all(row["pass"] for row in doc["result"]["rows"])
    doc = run_json("limit", "--check", "green-limit", "--alpha", "0.5")
    assert abs(doc["result"]["rows"][-1]["ratio"] - 1.0) < 0.05


def test_verify_suite_passes():
    proc = run_cli("verify", "--q", "2", "--d", "3")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)["result"]
    assert report["all_pass"]
    assert any(c["name"] == "kernel_row_sums" for c in report["checks"])


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "row": "0"}))
    doc = run_json("green", "--law", SWAP_LAW, "--alpha", "0.5",
                   "--config", str(cfg))
    assert np.allclose(doc["result"]["row"], [2 / 3, 1 / 3])


def test_threads_default_from_environment(tmp_path):
    import os

    env = dict(os.environ, QFIELD_THREADS="3")
    proc = subprocess.run(
        [sys.executable, "-m", "qfield", "mc-green", "--law", LAZY_LAW,
         "--alpha", "0.5", "--x0", "0,0", "--n", "3000", "--seed", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["manifest"]["threads"] == 3


def test_tol_override_judges_statistics():
    doc = run_json("mc-green", "--law", LAZY_LAW, "--alpha", "0.5",
                   "--x0", "0,0", "--n", "5000", "--seed", "1",
                   "--tol", "0.05")
    assert doc["result"]["within_tol"] is True
    assert doc["result"]["tol"] == 0.05
    doc = run_json("kappa", "--law", LAZY_LAW, "--l", "2", "--tol", "1e-9")
    assert doc["result"]["within_tol"] is True


def test_bad_config_exits_2():
    proc = run_cli("eigen", "--law", '{"variant": "nope", "q": 2, "d": 1}')
    assert proc.returncode == 2
    assert "variant" in proc.stderr
    proc = run_cli("green", "--law", '{"variant":"uniform","q":2,"d":1}',
                   "--alpha", "1.5", "--row", "0")
    assert proc.returncode == 2


def test_numerical_contract_exits_3():
    # complex-spectrum law cannot drive a Gaussian field
    law = json.dumps({"variant": "deterministic", "q": 3, "d": 1,
                      "shift": [1]})
    proc = run_cli("sample-field", "--law", law, "--alpha", "0.5",
                   "-n", "2", "--seed", "0", "--out", "/dev/null")
    assert proc.returncode == 3
    assert "reversib" in proc.stderr.lower() or "real" in proc.stderr.lower()


def run_main(argv):
    """Call ``cli.main`` in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


UNIFORM_22 = json.dumps({"variant": "uniform", "q": 2, "d": 2})
MC_ARGS = ["--n", "100", "--seed", "1"]


def law_with(**fields):
    return json.dumps({"variant": "uniform", "q": 2, "d": 2, **fields})


@pytest.mark.parametrize("argv", [
    ["green", "--law", UNIFORM_22, "--alpha", "0.5", "--row", "0,3"],
    ["mc-green", "--law", UNIFORM_22, "--alpha", "0.5", "--x0", "0,5", *MC_ARGS],
    ["mc-green", "--law", UNIFORM_22, "--alpha", "0.5", "--x0", "0", *MC_ARGS],
    ["partition", "--law", UNIFORM_22, "--alpha", "0.5", "--beta", "nan"],
    ["mc-green", "--law", UNIFORM_22, "--alpha", "0.5", "--x0", "0,0",
     *MC_ARGS, "--threads", "0"],
    ["hamiltonian", "--law", UNIFORM_22, "--alpha", "0.5", "--seed", "1",
     "--config", '{"n_vectors": "x"}'],
    ["kappa", "--law", UNIFORM_22, "--l", "1", "--config", '{"route": "nope"}'],
    ["eigen", "--law", UNIFORM_22, "--config", '{"bogus": 1}'],
    ["eigen", "--law", law_with(q="2")],
    ["eigen", "--law", law_with(q=2.0)],
    ["eigen", "--law", law_with(q=None)],
    ["eigen", "--law", law_with(variant="deterministic", shift=[1, "a"])],
    ["eigen", "--law", law_with(variant="product_iid", pmf=["a", 1])],
    ["eigen", "--law", UNIFORM_22, "--out", "/nonexistent/dir/x.json"],
    ["sample-field", "--law", UNIFORM_22, "--alpha", "0.5", "-n", "0",
     "--seed", "1", "--out", "/dev/null"],
    ["mc-green", "--law", UNIFORM_22, "--alpha", "0.5", "--x0", "0,0",
     "--n", "100", "--seed", "-1"],
    ["hamiltonian", "--law", UNIFORM_22, "--alpha", "0.5", "--seed", "1",
     "--n-vectors", "-1"],
    ["potts", "--law", UNIFORM_22, "--alpha", "0.5", "--beta", "0.3",
     "--n", "-2"],
    ["limit", "--check", "hermite", "--q", "0"],
    ["krawtchouk", "--q", "0", "--d", "3", "--check", "orthogonality"],
    ["kappa", "--law", UNIFORM_22, "--l", "-1"],
    ["kappa", "--law", UNIFORM_22, "--l", ""],
    ["kappa", "--law", UNIFORM_22, "--l", ",", "--route", "counts"],
    ["hamiltonian", "--law", UNIFORM_22, "--alpha", "0", "--seed", "1"],
    ["verify", "--q", "2", "--d", "1", "--tol", "0"],
    ["verify", "--q", "2", "--d", "1", "--tol", "-1"],
    ["limit", "--check", "transform", "--mc", "0"],
    ["pointproc", "--l", "1", "--spec",
     '{"alpha": 0.5, "atoms": [{"pmf": [NaN, 0.5], "weight": 1.0}]}'],
    ["pointproc", "--l", "1", "--spec",
     '{"alpha": 0.5, "atoms": [{"pmf": [0.5, 0.5], "weight": NaN}]}'],
    ["pointproc", "--l", "1", "--spec",
     '{"alpha": 0.5, "phi": NaN, "atoms": [{"pmf": [0.5, 0.5], "weight": 1.0}]}'],
    ["pointproc", "--l", "1", "--spec", '{"alpha": 0.5, "phi": Infinity, '
     '"atoms": [{"pmf": [0.5, 0.5], "weight": 1.0}]}'],
    ["green", "--law", law_with(d=13), "--alpha", "0.5", "--out", os.devnull],
    ["hamiltonian", "--law", law_with(d=13), "--alpha", "0.5", "--seed", "1",
     "--n-vectors", "1"],
    ["limit", "--check", "transform", "--q", "3", "--mc", "1"],
    ["potts", "--law", UNIFORM_22, "--alpha", "0.5", "--beta", "0.3",
     "--n", "1"],
    ["krawtchouk", "--q", "2", "--d", "3", "--m", "1,2",
     "--l", "100000000000000000000"],
], ids=["row-out-of-range", "x0-out-of-range", "x0-short", "beta-nan",
        "threads-0", "config-type", "config-choice", "config-unknown-key",
        "q-string", "q-float",
        "q-null", "shift-string", "pmf-string", "out-unwritable",
        "samples-0", "seed-negative", "n-vectors-negative", "potts-n-negative",
        "limit-q-0", "krawtchouk-q-0", "degree-negative", "degree-empty",
        "degree-empty-counts", "hamiltonian-alpha-0",
        "verify-tol-0", "verify-tol-negative", "limit-mc-0", "spec-pmf-nan",
        "spec-weight-nan", "spec-phi-nan", "spec-phi-inf",
        "green-matrix-above-limit", "hamiltonian-above-limit", "limit-mc-1",
        "potts-n-1", "krawtchouk-degree-above-m"])
def test_hostile_input_exits_2(argv):
    code, _, err = run_main(argv)
    assert code == 2
    assert "config error:" in err
    if argv[0] == "pointproc":
        assert "$.spec" in err
    if "--config" in argv:
        # argparse judged the config value as the flag it stands for
        key = next(iter(json.loads(argv[-1])))
        assert "$.config: qfield" in err and f"--{key.replace('_', '-')}" in err


def _refuse(*args, **kwargs):
    raise AssertionError("the work ran before the argument check")


@pytest.mark.parametrize("argv", [
    ["sample-field", "--law", UNIFORM_22, "--alpha", "0.5", "-n", "3",
     "--seed", "1"],
    ["green", "--law", UNIFORM_22, "--alpha", "0.5"],
], ids=["sample-field", "green-matrix"])
def test_missing_out_exits_2_before_the_work(monkeypatch, argv):
    monkeypatch.setattr(cli.fields, "sample_field", _refuse)
    monkeypatch.setattr(cli.green, "green_exact", _refuse)
    code, _, err = run_main(argv)
    assert code == 2
    assert "config error:" in err and "$.out" in err


@pytest.mark.parametrize("check", ["orthogonality", "duality"])
def test_krawtchouk_check_caps_count_vectors_before_the_table(monkeypatch,
                                                             check):
    # 125751 count vectors at (3, 500): refused before any table is built
    monkeypatch.setattr(cli.krawtchouk, "table", _refuse)
    code, _, err = run_main(["krawtchouk", "--q", "3", "--d", "500",
                             "--check", check, "--max-degree", "2"])
    assert code == 2
    assert "config error:" in err and "125751 count vectors" in err


def test_krawtchouk_check_caps_table_entries_before_the_table(monkeypatch):
    # 45451 count vectors pass the count cap; 45451^2 table entries do not
    monkeypatch.setattr(cli.krawtchouk, "table", _refuse)
    code, _, err = run_main(["krawtchouk", "--q", "3", "--d", "300",
                             "--check", "orthogonality"])
    assert code == 2
    assert "config error:" in err and "table entries" in err


def test_out_receives_the_document_whatever_its_suffix(tmp_path):
    out = tmp_path / "r.txt"
    code, text, err = run_main(["eigen", "--law", UNIFORM_22, "--out",
                                str(out)])
    assert code == 0, err
    assert text == ""
    assert json.loads(out.read_text())["result"]["q"] == 2


def test_potts_above_dense_limit():
    # 2^13 points: E[Z] reads the Green kernel, no q^d x q^d matrix is built
    code, out, _ = run_main(["potts", "--law", law_with(d=13), "--alpha",
                             "0.5", "--beta", "0.3"])
    assert code == 0
    result = json.loads(out)["result"]
    assert abs(math.log(result["expected_partition"])
               - result["log_expected_partition_delta"]) < 1e-12


def test_single_sample_monte_carlo_exits_2_and_zero_skips_it():
    spec = '{"alpha": 0.5, "atoms": [{"pmf": [0.5, 0.5], "weight": 1.0}]}'
    code, _, err = run_main(["pointproc", "--spec", spec, "--l", "1",
                             "--mc", "1"])
    assert code == 2 and "--mc" in err
    for argv in (["pointproc", "--spec", spec, "--l", "1", "--mc", "0"],
                 ["potts", "--law", UNIFORM_22, "--alpha", "0.5", "--beta",
                  "0.3", "--n", "0"]):
        code, out, _ = run_main(argv)
        assert code == 0
        assert not any(key.startswith("mc_")
                       for key in json.loads(out)["result"])


def test_spectrum_hash_ignores_signed_zero_noise():
    rho = np.array([1.0, 0.5, 0.5, 0.0], dtype=complex)
    plus = walks.Spectrum(rho + 1e-17j, 2, 2)
    minus = walks.Spectrum(rho - 1e-17j, 2, 2)
    assert cli._spectrum_hash(plus) == cli._spectrum_hash(minus)


def test_explicit_flag_beats_config_in_process():
    code, out, _ = run_main(
        ["hamiltonian", "--law", UNIFORM_22, "--alpha", "0.3", "--seed", "1",
         "--config", '{"alpha": 0.5, "n_vectors": 3}'])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["alpha"] == 0.3
    assert result["n_vectors"] == 3


def test_explicit_choice_beats_config_in_process():
    code, out, err = run_main(
        ["kappa", "--law", UNIFORM_22, "--l", "1", "--route", "counts",
         "--config", '{"route": "both"}'])
    assert code == 0, err
    result = json.loads(out)["result"]
    assert "counts" in result and "transform" not in result


_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(allow_nan=True),
                       st.text(max_size=2)), max_size=5))


@st.composite
def _law_doc(draw, broken=True):
    """A well-formed law document; when ``broken``, at most one field is
    broken or dropped.

    q <= 4 and d <= 3, and junk integers stay in [-3, 3], so every shape
    that passes validation has q^d <= 64.
    """
    q, d = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    pmf = [1.0 / q] * q
    doc = {"variant": draw(st.sampled_from(
               ["uniform", "deterministic", "product_iid",
                "definetti_mixture", "sparse_exchangeable"])),
           "q": q, "d": d, "c": 1, "pmf": pmf, "joint_pmf": pmf,
           "shift": draw(st.lists(st.integers(0, q - 1), min_size=d,
                                  max_size=d)),
           "components": [{"weight": 1.0, "pmf": pmf}]}
    key = draw(st.sampled_from([None, "variant", "q", "d", "c", "pmf",
                                "joint_pmf", "shift", "components", "weight"])) \
        if broken else None
    if key == "weight":
        doc["components"][0]["weight"] = draw(_junk)
    elif key is not None and draw(st.booleans()):
        del doc[key]
    elif key is not None:
        doc[key] = draw(_junk)
    return doc


_alpha = st.one_of(st.floats(0, 0.95).map(repr), st.sampled_from(
    ["nan", "inf", "-inf", "-0.5", "1", "1.5", "x", ""]))
# worker counts stay tiny: the fuzz must never ask for many threads
_threads = st.sampled_from(["1", "2", "0", "-1", "x", "", "1.5", "nan"])
_point = st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
        lambda x: ",".join(map(str, x))),
    st.text(alphabet="0123-,x ", max_size=6))


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["eigen", "green", "mc-green"]), law=_law_doc(),
       alpha=_alpha, point=_point, threads=_threads)
def test_fuzz_exit_codes(command, law, alpha, point, threads):
    argv = [command, "--law", json.dumps(law)]
    if command == "green":
        argv += ["--alpha", alpha, "--row", point]
    elif command == "mc-green":
        argv += ["--alpha", alpha, "--x0", point, "--n", "50", "--seed", "0",
                 "--threads", threads]
    code, _, err = run_main(argv)
    assert code in (0, 2, 3), err


@st.composite
def _spec_doc(draw, broken=True):
    """A point-process spec; when ``broken``, at most one field is broken
    or dropped."""
    q = draw(st.integers(2, 4))
    atom = {"pmf": [1.0 / q] * q, "weight": 1.0}
    doc = {"alpha": 0.5, "phi": 1.0, "atoms": [atom]}
    key = draw(st.sampled_from([None, "alpha", "phi", "atoms", "pmf", "weight"])) \
        if broken else None
    target = atom if key in ("pmf", "weight") else doc
    if key is not None and draw(st.booleans()):
        del target[key]
    elif key is not None:
        target[key] = draw(_junk)
    return doc


def _degrees(q):
    """A valid --l: q - 1 small non-negative degrees."""
    return st.lists(st.integers(0, 2), min_size=q - 1, max_size=q - 1).map(
        lambda l: ",".join(map(str, l)))


# no hostile value is a large integer: counts stay <= 1000, threads <= 2
# and lattices q^d <= 64 whichever option it lands on.  Boundary values
# come first because hypothesis draws early elements more often.
_hostile = st.sampled_from(["0", "-1", "", "nan", "inf", "-inf", "x", "1.5",
                            "1e400", "0,1", "-0", "{"])


@st.composite
def _other_argv(draw):
    """Valid argv for one of the nine subcommands the fuzz above leaves out,
    then at most one option dropped or replaced by a hostile value."""
    command = draw(st.sampled_from(
        ["sample-field", "krawtchouk", "kappa", "pointproc", "hamiltonian",
         "partition", "potts", "limit", "verify"]))
    seed = st.integers(0, 99).map(str)
    threads = st.sampled_from(["1", "2"])
    alpha = st.floats(0.05, 0.95).map(repr)
    count = st.integers(1, 20).map(str)
    opts = {}
    if command in ("sample-field", "kappa", "hamiltonian", "partition", "potts"):
        law = draw(_law_doc(broken=False))
        opts["--law"] = json.dumps(law)
    if command in ("sample-field", "hamiltonian", "partition", "potts", "limit"):
        opts["--alpha"] = draw(alpha)
    if command in ("partition", "potts"):
        opts["--beta"] = draw(st.floats(0.05, 1).map(repr))
    if command in ("sample-field", "hamiltonian", "pointproc", "potts", "limit",
                   "verify"):
        opts["--seed"] = draw(seed)
    if command in ("sample-field", "pointproc", "potts"):
        opts["--threads"] = draw(threads)
    if command == "sample-field":
        opts.update({"-n": draw(count), "--out": os.devnull})
    elif command == "krawtchouk":
        q = draw(st.integers(2, 4))
        m = draw(st.lists(st.integers(0, 1), min_size=q, max_size=q).filter(
            lambda m: 1 <= sum(m) <= 3))
        opts.update({"--q": str(q), "--d": str(sum(m))})
        if draw(st.booleans()):
            opts.update({"--check": draw(st.sampled_from(["orthogonality",
                                                          "duality"])),
                         "--max-degree": draw(st.integers(0, 3).map(str))})
        else:
            opts.update({"--l": draw(_degrees(q)), "--m": ",".join(map(str, m))})
    elif command == "kappa":
        opts.update({"--l": draw(_degrees(law["q"])), "--route": draw(
            st.sampled_from(["counts", "transform", "both"]))})
    elif command == "pointproc":
        spec = draw(_spec_doc(broken=False))
        opts.update({"--spec": json.dumps(spec),
                     "--l": draw(_degrees(len(spec["atoms"][0]["pmf"]))),
                     "--mc": draw(st.integers(0, 1000).map(str))})
    elif command == "hamiltonian":
        opts["--n-vectors"] = draw(count)
    elif command == "potts":
        opts["--n"] = draw(st.integers(0, 20).map(str))
    elif command == "limit":
        opts.update({"--check": draw(st.sampled_from(
                         ["hermite", "limit-kraw", "transform", "green-limit",
                          "field-transform"])),
                     "--q": draw(st.integers(2, 4).map(str)),
                     "--mc": draw(st.integers(1, 1000).map(str))})
    elif command == "verify":
        q, d = draw(st.sampled_from([(2, 1), (2, 3), (3, 2), (4, 1), (4, 3)]))
        opts.update({"--q": str(q), "--d": str(d),
                     "--tol": draw(st.floats(0.5, 2).map(repr))})
    # --out is never replaced (a hostile value would be a file name) and
    # --mc never dropped (limit would fall back to 200000 samples)
    victim = draw(st.sampled_from([*(k for k in opts if k != "--out"), None]))
    if victim == "--law":
        opts[victim] = json.dumps(draw(_law_doc()))
    elif victim == "--spec":
        opts[victim] = json.dumps(draw(_spec_doc()))
    elif victim not in (None, "--mc") and draw(st.integers(0, 3)) == 0:
        del opts[victim]
    elif victim is not None:
        opts[victim] = draw(_hostile)
    return [command, *(v for item in opts.items() for v in item)]


@settings(max_examples=300, deadline=None)
@given(argv=_other_argv())
def test_fuzz_exit_codes_other_subcommands(argv):
    code, _, err = run_main(argv)
    assert code in (0, 2, 3), err


def test_krawtchouk_refuses_a_degree_above_d_before_evaluating():
    # the refused input is never evaluated, so it warns about nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_main(["krawtchouk", "--q", "2", "--d", "3", "--m",
                                 "1,2", "--l", "100000000000000000000"])
    assert code == 2
    assert "config error: |l| = 100000000000000000000 exceeds d = 3" in err


def _traced_main(argv):
    """``run_main`` under tracemalloc: (exit code, stderr, traced peak)."""
    tracemalloc.start()
    try:
        code, _, err = run_main(argv)
        return code, err, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("q", ["9", "16", "400"])
def test_limit_kraw_refuses_a_large_q_before_building(q):
    code, err, peak = _traced_main(["limit", "--check", "limit-kraw",
                                    "--q", q])
    assert code == 2
    assert f"config error: limit-kraw at q={q}: needs" in err
    assert peak < 2**22, peak


def test_limit_kraw_at_q8_is_inside_the_budget(monkeypatch):
    # route B's DPs and its loop at the 10 points are charged 839548 steps
    # at q = 8; the routes themselves take seconds there, so both are stubbed
    monkeypatch.setattr(limits, "limit_krawtchouk_series", lambda m, l, q: 0j)
    monkeypatch.setattr(limits, "limit_krawtchouk_hermite", lambda m, l, q: 0j)
    code, out, err = run_main(["limit", "--check", "limit-kraw", "--q", "8"])
    assert code == 0, err
    assert json.loads(out)["result"]["max_route_gap"] == 0.0


@pytest.mark.parametrize("argv, key", [
    (["hermite", "--q", "3"], "max_residual"),
    (["limit-kraw", "--q", "3", "--seed", "1"], "max_route_gap"),
    (["field-transform", "--q", "2", "--alpha", "0.6"], "route_gap"),
    (["transform", "--q", "2", "--mc", "2000", "--seed", "3"], None),
    (["green-limit", "--alpha", "0.5"], None),
])
def test_limit_tol_judges_each_tables_headline_statistic(argv, key):
    def result(*tol):
        code, out, err = run_main(["limit", "--check", *argv, *tol])
        assert code == 0, err
        return json.loads(out)["result"]

    if key is None:
        assert result("--tol", "1e-300").keys() == result().keys()
        return
    stat = result()[key]
    at = result("--tol", repr(stat))
    below = result("--tol", repr(math.nextafter(stat, -math.inf)))
    assert (at[key], at["tol"], at["within_tol"]) == (stat, stat, True)
    assert below[key] == stat and below["within_tol"] is False


def test_verify_refuses_a_dense_p_over_budget_before_any_check(monkeypatch):
    monkeypatch.setattr(cli.verify.lattice, "dft", _refuse)
    code, _, err = run_main(["verify", "--q", "2", "--d", "13"])
    assert code == 2
    assert "config error: verify at 8192 points" in err


UNIFORM_2_40 = json.dumps({"variant": "uniform", "q": 2, "d": 40})
UNIFORM_2_3 = json.dumps({"variant": "uniform", "q": 2, "d": 3})
# inside the lattice budget, but its JSON result lists are not
UNIFORM_2_20 = json.dumps({"variant": "uniform", "q": 2, "d": 20})
ZEROS_40 = ",".join(["0"] * 40)
HALF_SPEC = json.dumps({"alpha": 0.5,
                        "atoms": [{"pmf": [0.5, 0.5], "weight": 1.0}]})
OVER_BUDGET = {
    "eigen-2^40": ["eigen", "--law", UNIFORM_2_40],
    "partition-2^40": ["partition", "--law", UNIFORM_2_40, "--alpha", "0.5",
                       "--beta", "1"],
    "green-row-2^40": ["green", "--law", UNIFORM_2_40, "--alpha", "0.5",
                       "--row", ZEROS_40],
    "potts-2^40": ["potts", "--law", UNIFORM_2_40, "--alpha", "0.5", "--beta",
                   "0.3"],
    "mc-green-2^40": ["mc-green", "--law", UNIFORM_2_40, "--alpha", "0.5",
                      "--x0", ZEROS_40, "--n", "10", "--seed", "1"],
    "sample-field-2^40": ["sample-field", "--law", UNIFORM_2_40, "--alpha",
                          "0.5", "-n", "2", "--seed", "1", "--out", os.devnull],
    "sample-field-n": ["sample-field", "--law", UNIFORM_2_3, "--alpha", "0.5",
                       "-n", "100000000", "--seed", "1", "--out", os.devnull],
    "mc-green-n": ["mc-green", "--law", UNIFORM_2_3, "--alpha", "0.5", "--x0",
                   "0,0,0", "--n", "2000000000", "--seed", "1"],
    "pointproc-mc": ["pointproc", "--spec", HALF_SPEC, "--l", "1", "--mc",
                     "3000000000"],
    "hamiltonian-n-vectors": ["hamiltonian", "--law", UNIFORM_2_3, "--alpha",
                              "0.5", "--seed", "1", "--n-vectors",
                              "1000000000"],
    "mc-green-alpha": ["mc-green", "--law", UNIFORM_2_3, "--alpha",
                       "0.999999999", "--x0", "0,0,0", "--n", "10", "--seed",
                       "1"],
    "field-transform-alpha": ["limit", "--check", "field-transform", "--q",
                              "3", "--alpha", "0.99"],
    "verify-2^13": ["verify", "--q", "2", "--d", "13"],
    "limit-kraw-16": ["limit", "--check", "limit-kraw", "--q", "16"],
    "limit-kraw-400": ["limit", "--check", "limit-kraw", "--q", "400"],
    # plans over q - 1 = 999999 axes: sized without a product over every axis
    "limit-kraw-10^6": ["limit", "--check", "limit-kraw", "--q", "1000000"],
    "orthogonality-300000-12": ["krawtchouk", "--q", "300000", "--d", "12",
                                "--check", "orthogonality"],
    "eigen-2^20": ["eigen", "--law", UNIFORM_2_20],
    "green-row-2^20": ["green", "--law", UNIFORM_2_20, "--alpha", "0.5",
                       "--row", ",".join(["0"] * 20)],
    # 4096 count vectors of 4096 types: no recursion per type
    "verify-4096-1": ["verify", "--q", "4096", "--d", "1"],
    # the table DP and the dual DP, 3003 rows over 3003 coefficients each:
    # one of them alone is inside the budget
    "duality-9-6": ["krawtchouk", "--q", "9", "--d", "6", "--check",
                    "duality"],
    # route B's loop steps: 1260789 at q = 7 and the default 200000 draws
    "transform-7": ["limit", "--check", "transform", "--q", "7"],
    "transform-8": ["limit", "--check", "transform", "--q", "8"],
    "field-transform-9": ["limit", "--check", "field-transform", "--q", "9"],
}


def _two_gb_address_space():
    # runs in the child between fork and exec: the limit is the child's
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


@pytest.mark.parametrize("argv", OVER_BUDGET.values(), ids=OVER_BUDGET.keys())
def test_over_budget_argv_exits_2_at_once(argv):
    proc = subprocess.run([sys.executable, "-m", "qfield", *argv],
                          capture_output=True, text=True, timeout=10,
                          preexec_fn=_two_gb_address_space)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    [line] = [s for s in proc.stderr.splitlines()
              if s.startswith("config error:")]
    assert re.search(r": needs (\d+|more than 2\^64) (entries|steps), over "
                     r"the (entry|step) budget of \d+$", line), line


# q >= 65 types: one array axis per w_k would pass numpy's 64; the
# Krawtchouk DP keeps its coefficients in one flat index
_DEGREE_69 = ",".join(["1"] + ["0"] * 68)
PAST_64_AXES = {
    "kappa-70": ["kappa", "--law", '{"variant":"uniform","q":70,"d":1}',
                 "--l", _DEGREE_69],
    "krawtchouk-70": ["krawtchouk", "--q", "70", "--d", "1", "--l",
                      _DEGREE_69, "--m", ",".join(["1"] + ["0"] * 69)],
    "verify-70": ["verify", "--q", "70", "--d", "1"],
    "limit-transform-66": ["limit", "--check", "transform", "--q", "66"],
}


@pytest.mark.parametrize("argv", PAST_64_AXES.values(), ids=PAST_64_AXES.keys())
def test_more_than_64_types_exit_without_a_traceback(argv):
    proc = run_cli(*argv)
    assert proc.returncode in (0, 2), proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    if proc.returncode == 2:
        [line] = proc.stderr.splitlines()
        assert line.startswith("config error: "), line


def test_mc_green_refuses_its_endpoint_pmf_before_any_walk(monkeypatch):
    # the list of q^d = 2^20 floats is refused from (q, d), not after 800000
    # killed walks
    def no_walks(*args, **kwargs):
        raise AssertionError("green_mc ran")

    monkeypatch.setattr(cli.green, "green_mc", no_walks)
    code, _, err = run_main(["mc-green", "--law", UNIFORM_2_20, "--alpha",
                             "0.9", "--x0", ",".join(["0"] * 20), "--n",
                             "800000", "--seed", "1"])
    assert code == 2, err
    [line] = err.splitlines()
    assert line.startswith("config error: 1048576 JSON floats of the endpoint "
                           "pmf: needs "), line


def test_verify_refuses_route_a_before_listing_degrees():
    # the 4096 count vectors of 4096 types (about 134 MB of tuples) that
    # degree_indices(4096, 1, 1) lists are never built
    tracemalloc.start()
    try:
        code, _, err = run_main(["verify", "--q", "4096", "--d", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2, err
    assert err == ("config error: 4096 count vectors and 16777216 table "
                   "entries at q=4096, d=1, degree <= 1: needs 234881024 "
                   "steps, over the step budget of 1048576\n")
    assert peak <= 16 * 2**20, peak


@pytest.mark.parametrize("q", ["600", "1000"])
def test_verify_refuses_before_its_first_check(monkeypatch, q):
    # route A, the table, its dual DP and Gram product are charged in one
    # plan before the transform round trip, the first check, runs
    calls, dft = [], verify.lattice.dft
    monkeypatch.setattr(verify.lattice, "dft",
                        lambda *args, **kw: calls.append(1) or dft(*args, **kw))
    code, _, err = run_main(["verify", "--q", q, "--d", "1"])
    assert code == 2, err
    assert calls == []
    assert err.startswith(f"config error: {q} count vectors and "), err


def _mostly(big, small):
    """Three draws in four from ``big``, the rest from ``small``."""
    return st.integers(0, 3).flatmap(lambda k: small if k == 0 else big)


# counts and alphas past every budget, or at desk scale
_size_count = _mostly(st.integers(2**25, 10**12), st.integers(2, 20)).map(str)
_size_alpha = _mostly(st.integers(7, 12).map(lambda k: repr(1.0 - 10.0**-k)),
                      st.floats(0.05, 0.9).map(repr))


@st.composite
def _size_law(draw):
    """A law document with q^d in (2^24, 2^64], or q^d <= 64 one time in
    four.  A pmf over Z_q is written out, so only the uniform and
    deterministic laws draw q past 16."""
    variant = draw(st.sampled_from(
        ["uniform", "deterministic", "product_iid", "definetti_mixture",
         "sparse_exchangeable"]))
    if draw(st.integers(0, 3)) == 0:
        q, d = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    else:
        q = draw(st.integers(2, 2**40 if variant in ("uniform", "deterministic")
                             else 16))
        low = next(d for d in itertools.count(1) if q**d > 2**24)
        d = draw(st.integers(low, max(d for d in range(1, 65)
                                      if q**d <= 2**64)))
    pmf = [1.0 / q] * q if q <= 16 else None
    return {"variant": variant, "q": q, "d": d, "c": 1, "pmf": pmf,
            "joint_pmf": pmf, "shift": [1] * d,
            "components": [{"weight": 1.0, "pmf": pmf}]}


@st.composite
def _size_argv(draw):
    """An argv whose sizes are mostly past the budgets: q^d up to 2^64 for
    every subcommand that takes a law (and verify), limit --q up to 10^6,
    --n, --mc and --n-vectors up to 10^12 and alpha up to 1 - 10^-12."""
    command = draw(st.sampled_from(
        ["eigen", "green", "mc-green", "sample-field", "kappa", "hamiltonian",
         "partition", "potts", "pointproc", "limit", "verify"]))
    law, alpha, n = draw(_size_law()), draw(_size_alpha), draw(_size_count)
    q, d = law["q"], law["d"]
    if command == "pointproc":
        spec = {"alpha": float(alpha),
                "atoms": [{"pmf": [0.5, 0.5], "weight": 1.0}]}
        return [command, "--spec", json.dumps(spec), "--l", "1", "--mc", n,
                "--threads", "2"]
    if command == "limit":
        q = draw(_mostly(st.integers(400, 10**6), st.integers(2, 4)))
        return [command, "--check", draw(st.sampled_from(
            ["hermite", "limit-kraw", "transform", "green-limit",
             "field-transform"])), "--q", str(q), "--alpha", alpha, "--mc", n]
    if command == "verify":
        return [command, "--q", str(q), "--d", str(d)]
    argv = [command, "--law", json.dumps(law)]
    if command not in ("eigen", "kappa"):
        argv += ["--alpha", alpha]
    zeros = ",".join(["0"] * d)
    if command == "green":
        argv += ["--row", zeros]
    elif command == "mc-green":
        argv += ["--x0", zeros, "--n", n, "--seed", "0", "--threads", "2"]
    elif command == "sample-field":
        argv += ["-n", n, "--seed", "0", "--out", os.devnull]
    elif command == "kappa":
        argv += ["--l", ",".join(["1"] * (q - 1)) if q <= 16 else "1"]
    elif command == "hamiltonian":
        argv += ["--seed", "0", "--n-vectors", n]
    elif command in ("partition", "potts"):
        argv += ["--beta", "0.3"]
    if command == "potts":
        argv += ["--n", n, "--threads", "2"]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_size_argv())
def test_fuzz_sizes_past_the_budgets(argv):
    # the budget checks run before the builds they guard, so a refused
    # run allocates next to nothing
    code, err, peak = _traced_main(argv)
    assert code in (0, 2, 3), err
    if code == 2:
        assert peak <= 64 * 2**20, (peak, err)


def test_a_reader_closing_stdout_early_leaves_the_exit_code():
    # 2^16 points of JSON are megabytes, more than a pipe holds, so the
    # write meets the closed pipe
    law = json.dumps({"variant": "uniform", "q": 2, "d": 16})
    proc = subprocess.Popen([sys.executable, "-m", "qfield", "eigen", "--law",
                             law], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert "Traceback" not in err
