"""Replay one corpus of ``qfield`` argvs on this tree and on a git revision.

    python tests/replay.py --against REV

The corpus is recorded from this tree, in a subprocess:

- every argv that ``tests/test_cli.py`` hands to ``cli.main`` or runs as
  ``python -m qfield``, through hooks on ``cli.main`` and
  ``subprocess.run`` while pytest runs the file under the suite's
  derandomized Hypothesis profile;
- the argvs of the ``cli-session`` benchmark workload at seeds 5 and 11;
- ``EDGE_ARGVS`` below.

An input file that an argv names is copied into the corpus, and every
``--out`` gets a file of its own; both paths are rewritten relative to the
working directory of the side that runs them, so results that name a path
compare equal.

REV is extracted with ``git archive``.  Each side runs the whole corpus
in process, in one subprocess with its own ``src`` on ``PYTHONPATH`` and
warnings printed as ``Category: message``, without the source line that
moves with the code.  The sides are compared on the exit code (or the
exception that escaped ``cli.main``), the ``result`` document, each
``--out`` file (its ``result`` if it is a JSON document, else its bytes)
and stderr.  The tool prints one summary line, then the differing argvs
grouped by field, and exits 0 when nothing differs, 1 otherwise.

No golden bytes are stored: numpy builds can differ in the last bit, so
both sides always run on one machine.  The file has no ``test_`` prefix,
so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ADDRESS_LIMIT = 3 * 2**30  # per side: a runaway argv fails, not the machine

_UNIFORM = '{{"variant": "uniform", "q": {q}, "d": {d}}}'
_LAZY = ('{"variant": "definetti_mixture", "q": 3, "d": 2, "components": '
         '[{"weight": 0.5, "pmf": [0.6, 0.2, 0.2]}, '
         '{"weight": 0.5, "pmf": [0.2, 0.4, 0.4]}]}')
_Q2 = '{{"variant": "product_iid", "q": 2, "d": {d}, "pmf": [0.7, 0.3]}}'


def _ramp(q: int, d: int) -> str:
    """A product_iid law with pmf proportional to 1..q."""
    total = q * (q + 1) // 2
    return json.dumps({"variant": "product_iid", "q": q, "d": d,
                       "pmf": [k / total for k in range(1, q + 1)]})


EDGE_ARGVS = [
    # --config and --out
    ["green", "--law", _LAZY, "--alpha", "0.5",
     "--config", '{"row": "1,2", "tol": 1e-9}'],
    ["kappa", "--law", _LAZY, "--l", "1,1", "--config", '{"route": "counts"}',
     "--route", "transform"],
    ["partition", "--law", _LAZY, "--alpha", "0.4", "--beta", "2",
     "--out", "partition.json"],
    ["green", "--law", _LAZY, "--alpha", "0.3", "--out", "green.csv"],
    ["sample-field", "--law", _LAZY, "--alpha", "0.3", "-n", "5",
     "--seed", "4", "--threads", "2", "--out", "field.csv"],
    ["pointproc", "--l", "2,1", "--mc", "5000", "--seed", "3", "--spec",
     '{"alpha": 0.6, "phi": 0.5, "atoms": [{"pmf": [0.6, 0.2, 0.2], '
     '"weight": 0.3}, {"pmf": [0.2, 0.4, 0.4], "weight": 0.7}]}'],
    # verify at several shapes
    ["verify", "--q", "2", "--d", "1"],
    ["verify", "--q", "3", "--d", "2"],
    ["verify", "--q", "3", "--d", "5"],
    ["verify", "--q", "5", "--d", "3"],
    ["verify", "--q", "2", "--d", "12"],
    ["verify", "--q", "4", "--d", "6"],
    ["verify", "--q", "64", "--d", "1"],
    ["krawtchouk", "--q", "200", "--d", "2", "--check", "orthogonality"],
    # the batched Krawtchouk DP over two chunks, and route A over 91 counts
    ["krawtchouk", "--q", "4", "--d", "8", "--check", "duality",
     "--tol", "1e-9"],
    ["kappa", "--law", _LAZY.replace('"d": 2', '"d": 12'), "--l", "2,1",
     "--route", "counts"],
    # both limit Krawtchouk routes past the fuzzed q = 2..4, the transform
    # identity at q = 3 and the limit Green density
    *(["limit", "--check", "limit-kraw", "--q", q, "--seed", seed]
      for q in ("4", "5", "6") for seed in ("1", "2")),
    ["limit", "--check", "transform", "--q", "3", "--mc", "20000",
     "--seed", "1"],
    ["limit", "--check", "green-limit", "--alpha", "0.3"],
    # what --tol judges in each limit table
    ["limit", "--check", "hermite", "--q", "4", "--tol", "1e-10"],
    ["limit", "--check", "limit-kraw", "--q", "3", "--seed", "2",
     "--tol", "1e-9"],
    ["limit", "--check", "transform", "--q", "2", "--mc", "5000",
     "--seed", "1", "--tol", "1e-3"],
    ["limit", "--check", "green-limit", "--alpha", "0.5", "--tol", "0.1"],
    ["limit", "--check", "field-transform", "--q", "3", "--alpha", "0.5",
     "--tol", "1e-6"],
    # the largest limit-kraw q inside the step budget, and the first past it
    ["limit", "--check", "limit-kraw", "--q", "8"],
    ["limit", "--check", "limit-kraw", "--q", "9"],
    # the largest JSON lists inside the budgets, and the first past them
    ["eigen", "--law", _UNIFORM.format(q=2, d=18)],
    ["green", "--law", _UNIFORM.format(q=2, d=19), "--alpha", "0.5",
     "--row", ",".join(["1"] * 19)],
    ["eigen", "--law", _UNIFORM.format(q=2, d=19)],
    ["mc-green", "--law", _UNIFORM.format(q=2, d=20), "--alpha", "0.5",
     "--x0", ",".join(["0"] * 20), "--n", "10", "--seed", "1"],
    # past the budgets
    ["verify", "--q", "4096", "--d", "1"],
    ["eigen", "--law", _UNIFORM.format(q=2, d=40)],
    ["limit", "--check", "limit-kraw", "--q", "16"],
    ["mc-green", "--law", _UNIFORM.format(q=2, d=3), "--alpha", "0.999999999",
     "--x0", "0,0,0", "--n", "10", "--seed", "1"],
    ["limit", "--check", "transform", "--q", "90"],
    # the dual DP charged for all its rows: inside the budget, and past it
    ["krawtchouk", "--q", "8", "--d", "7", "--check", "duality",
     "--max-degree", "1"],
    ["krawtchouk", "--q", "9", "--d", "6", "--check", "duality",
     "--max-degree", "1"],
    # the DP over the degree simplex: a q = 5 table, the Gram product and
    # both DPs of the duality check charged ahead, the route-gap loop of
    # verify at one route-A run per degree
    ["krawtchouk", "--q", "5", "--d", "8", "--check", "orthogonality"],
    ["krawtchouk", "--q", "8", "--d", "7", "--check", "orthogonality"],
    ["krawtchouk", "--q", "4", "--d", "19", "--check", "orthogonality"],
    ["krawtchouk", "--q", "9", "--d", "6", "--check", "duality"],
    ["verify", "--q", "7", "--d", "4"],
    ["verify", "--q", "8", "--d", "4"],
    ["verify", "--q", "101", "--d", "1"],
    ["verify", "--q", "102", "--d", "1"],
    ["verify", "--q", "400", "--d", "1"],
    # more than 64 types, past numpy's array axes were there one per w_k
    ["kappa", "--law", _UNIFORM.format(q=70, d=1),
     "--l", ",".join(["1"] + ["0"] * 68)],
    ["krawtchouk", "--q", "70", "--d", "1", "--l", ",".join(["1"] + ["0"] * 68),
     "--m", ",".join(["1"] + ["0"] * 69)],
    ["krawtchouk", "--q", "66", "--d", "3",
     "--l", ",".join(["1", "2"] + ["0"] * 63),
     "--m", ",".join(["1", "1", "1"] + ["0"] * 63)],
    ["verify", "--q", "70", "--d", "1"],
    ["limit", "--check", "transform", "--q", "66"],
    # single degrees over a large box: 251001 coefficients at q = 3, a 5^9
    # box at q = 10; and plans sized over 999999 axes
    ["krawtchouk", "--q", "3", "--d", "1000", "--l", "500,500",
     "--m", "400,300,300"],
    ["krawtchouk", "--q", "10", "--d", "36", "--l", ",".join(["4"] * 9),
     "--m", ",".join(["4"] * 9 + ["0"])],
    ["limit", "--check", "limit-kraw", "--q", "1000000"],
    # real q = 2 fields transformed inside their result: potts over three
    # Monte-Carlo blocks at two betas, a field CSV, the quadratic forms
    *(["potts", "--law", _Q2.format(d=6), "--alpha", "0.5", "--beta", beta,
       "--n", "70001", "--seed", "3", "--threads", "2"]
      for beta in ("0.3", "2")),
    ["sample-field", "--law", _Q2.format(d=10), "--alpha", "0.4", "-n", "2000",
     "--seed", "2", "--out", "field-2-10.csv"],
    ["hamiltonian", "--law", _Q2.format(d=6), "--alpha", "0.5", "--seed", "1"],
    # killed walks over three blocks whose increments draw from long pmfs,
    # on one thread and two
    *(["mc-green", "--law", _ramp(q, d), "--alpha", "0.8", "--x0",
       ",".join(["0"] * d), "--n", "70001", "--seed", "5", "--threads", t]
      for q, d in ((17, 2), (64, 1)) for t in ("1", "2")),
    # a real q = 2 transform over many chunks of rows
    ["sample-field", "--law", _UNIFORM.format(q=2, d=12), "--alpha", "0.5",
     "-n", "2000", "--seed", "6", "--out", "field-2-12.csv"],
    # transforms over three chunks of rows in both directions: the real
    # synthesis and the complex inversion, at q = 3 (404 rows of 81 points
    # to a chunk) and at q = 2 (512 rows of 64 points)
    ["sample-field", "--law", _UNIFORM.format(q=3, d=4), "--alpha", "0.5",
     "-n", "900", "--seed", "7", "--out", "field-3-4.csv"],
    ["sample-field", "--law", _Q2.format(d=6), "--alpha", "0.5",
     "-n", "1100", "--seed", "8", "--out", "field-2-6.csv"],
    # three Monte-Carlo blocks, the last one short, copied in order into
    # one output, on one thread and two
    *(["potts", "--law", _UNIFORM.format(q=2, d=6), "--alpha", "0.5",
       "--beta", "0.3", "--n", "70000", "--seed", "9", "--threads", t]
      for t in ("1", "2")),
    ["sample-field", "--law", _LAZY, "--alpha", "0.5", "-n", "70000",
     "--seed", "10", "--threads", "2", "--out", "field-70000.csv"],
    ["limit", "--check", "transform", "--q", "3", "--mc", "70000",
     "--seed", "2"],
]


# -- recording ----------------------------------------------------------------

def _entry(argv, source: str) -> dict:
    """One corpus entry: the argv with each existing input file replaced by
    ``in/<i>_<name>`` (its bytes kept) and each writable ``--out`` target by
    ``out/<i>_<name>``, i being the argv position."""
    argv = [os.fspath(a) for a in argv]
    files, rewritten = {}, []
    for i, arg in enumerate(argv):
        prefix, value = "", arg
        if arg.startswith("--") and "=" in arg:
            prefix, value = arg.split("=", 1)
            prefix += "="
        is_out = prefix == "--out=" or (not prefix and i and argv[i - 1] == "--out")
        name = os.path.basename(value)
        if is_out and value != os.devnull and name \
                and os.path.isdir(os.path.dirname(os.path.abspath(value))):
            value = f"out/{i}_{name}"
        elif not is_out and value != os.devnull and os.path.isfile(value):
            with open(value, "rb") as fh:
                data = fh.read()
            value = f"in/{i}_{name}"
            files[value] = base64.b64encode(data).decode()
        rewritten.append(prefix + value)
    return {"source": source, "argv": rewritten, "files": files}


def record(path: str) -> None:
    """Write the corpus to ``path`` (runs in its own process)."""
    import pytest

    from qfield import cli

    sys.path.insert(0, str(REPO))  # perfbench
    from perfbench import workloads

    corpus: list[dict] = []
    source = ["tests/test_cli.py"]
    real_main, real_run = cli.main, subprocess.run

    def main_hook(argv=None):
        corpus.append(_entry(argv, source[0]))
        return real_main(argv)

    def run_hook(cmd, *args, **kwargs):
        if isinstance(cmd, (list, tuple)) and list(cmd[1:3]) == ["-m", "qfield"]:
            corpus.append(_entry(cmd[3:], source[0]))
        return real_run(cmd, *args, **kwargs)

    cli.main, subprocess.run = main_hook, run_hook
    with contextlib.redirect_stdout(io.StringIO()) as log:
        status = pytest.main([str(REPO / "tests" / "test_cli.py"), "-q",
                              "-p", "no:cacheprovider", "--rootdir", str(REPO)])
    subprocess.run = real_run
    summary = log.getvalue().strip().splitlines()

    # the benchmark's argvs alone: the hook answers for cli.main
    def session_hook(argv=None):
        corpus.append(_entry(argv, source[0]))
        return 1

    cli.main = session_hook
    for seed in (5, 11):
        source[0] = f"cli-session seed {seed}"
        with tempfile.TemporaryDirectory() as workdir:
            wl = workloads.build("cli-session", seed, workdir)
            for job in wl.jobs:
                if job.name != "log_laplace_mc":  # not a CLI call
                    job.fn()
    cli.main = real_main
    corpus += [_entry(argv, "edge") for argv in EDGE_ARGVS]

    seen, unique = set(), []
    for entry in corpus:
        key = json.dumps([entry["argv"], entry["files"]])
        if key not in seen:
            seen.add(key)
            unique.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pytest": f"{summary[-1] if summary else ''} "
                             f"(exit {int(status)})", "entries": unique}, fh)


# -- running one side ---------------------------------------------------------

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _result_text(text: str) -> str:
    """The ``result`` of a JSON document as emitted, else the text itself."""
    try:
        doc = json.loads(text)
    except ValueError:
        return text
    if not isinstance(doc, dict) or "result" not in doc:
        return text
    return json.dumps(doc["result"], indent=2, sort_keys=True)


def _summary(text: str) -> dict:
    return {"digest": _digest(text.encode()), "size": len(text),
            "head": text[:160]}


def _show_warning(message, category, *args, **kwargs):
    print(f"{category.__name__}: {message}", file=sys.stderr)


def run_side(corpus_path: str, src: str, results_path: str) -> None:
    """Run every corpus argv through ``cli.main`` in this process, from the
    working directory, and write one outcome per argv."""
    sys.path.insert(0, src)
    import qfield
    from qfield import cli

    if not Path(qfield.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"qfield imported from {qfield.__file__}, not {src}")
    warnings.simplefilter("always")
    warnings.showwarning = _show_warning
    with open(corpus_path, encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    outcomes = []
    for entry in entries:
        for folder in ("in", "out"):
            shutil.rmtree(folder, ignore_errors=True)
            os.mkdir(folder)
        for name, data in entry["files"].items():
            Path(name).write_bytes(base64.b64decode(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(entry["argv"]))
            except SystemExit as exc:  # --help, --version
                code = exc.code
            except Exception as exc:  # one escaping cli.main is an outcome
                code = f"raised {type(exc).__name__}"
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        files = {path.name: _digest(_result_text(
                     path.read_bytes().decode("utf-8", "replace")).encode())
                 for path in sorted(Path("out").iterdir())}
        outcomes.append({"exit": code, "result": _summary(_result_text(out.getvalue())),
                         "files": files, "stderr": err.getvalue()})
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(outcomes, fh)


# -- comparing ----------------------------------------------------------------

def _limit_address_space():
    # runs in the child between fork and exec: the limit is the child's
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


def _side(name: str, src: Path, corpus: str, workdir: Path) -> subprocess.Popen:
    side_dir = workdir / name
    side_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen(
        [sys.executable, __file__, "--run", corpus, "--src", str(src),
         "--results", str(side_dir / "results.json")],
        cwd=side_dir, env=env, preexec_fn=_limit_address_space,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _show(field: str, outcome: dict) -> str:
    value = outcome[field]
    if field == "result":
        return f"{value['size']} chars, {value['digest']}: {value['head']!r}"
    if field == "stderr":
        lines = value.strip().splitlines()
        return repr(lines[-1] if lines else "")
    return repr(value)


def _argv_text(argv: list[str]) -> str:
    text = " ".join(a if a and " " not in a and '"' not in a else repr(a)
                    for a in argv)
    return text if len(text) <= 160 else text[:157] + "..."


def compare(rev: str) -> int:
    t0 = time.monotonic()
    label = subprocess.run(["git", "rev-parse", "--short", rev], cwd=REPO,
                           check=True, capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="qfield-replay-") as tmp:
        workdir = Path(tmp)
        archive = subprocess.run(["git", "archive", label], cwd=REPO, check=True,
                                 capture_output=True).stdout
        (workdir / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(workdir / "rev")], input=archive,
                       check=True)
        corpus = str(workdir / "corpus.json")
        rec = subprocess.run([sys.executable, __file__, "--record", corpus],
                             cwd=REPO, capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
        if rec.returncode != 0:
            print(rec.stdout[-3000:], rec.stderr[-3000:], file=sys.stderr)
            return 2
        with open(corpus, encoding="utf-8") as fh:
            doc = json.load(fh)
        entries = doc["entries"]
        sides = {name: _side(name, src, corpus, workdir) for name, src in
                 ((label, workdir / "rev" / "src"), ("tree", REPO / "src"))}
        outcomes = {}
        for name, proc in sides.items():
            log = proc.communicate()[0]
            path = workdir / name / "results.json"
            if proc.returncode != 0 or not path.exists():
                print(f"side {name} exited {proc.returncode}:\n{log[-3000:]}",
                      file=sys.stderr)
                return 2
            outcomes[name] = json.loads(path.read_text(encoding="utf-8"))
    fields = ("exit", "result", "files", "stderr")
    differ = {f: [i for i, (a, b) in enumerate(zip(outcomes[label],
                                                   outcomes["tree"]))
                  if a[f] != b[f]] for f in fields}
    n = len(entries)
    counts = ", ".join(f"{f} {n - len(differ[f])}/{n} equal" for f in fields)
    print(f"replay {label} -> working tree: {n} argvs; {counts}; "
          f"{time.monotonic() - t0:.0f} s (test_cli.py while recording: "
          f"{doc['pytest']})")
    for f in fields:
        if differ[f]:
            print(f"\n{f} differs on {len(differ[f])} argvs:")
        for i in differ[f]:
            print(f"  [{entries[i]['source']}] {_argv_text(entries[i]['argv'])}")
            print(f"    {label}: {_show(f, outcomes[label][i])}")
            print(f"    tree: {_show(f, outcomes['tree'][i])}")
    return 1 if any(differ.values()) else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", help="git revision to compare with")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--run", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("--results", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.record:
        record(args.record)
        return 0
    if args.run:
        run_side(args.run, args.src, args.results)
        return 0
    if not args.against:
        parser.error("--against REV is required")
    return compare(args.against)


if __name__ == "__main__":
    sys.exit(main())
