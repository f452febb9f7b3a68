"""The package's module graph and error families.

``src/qfield`` is layered one way: each module imports, at module top, only
modules of lower layers, so no function needs a deferred import to break a
cycle.  Every library error class derives from one of two families in
``lattice``, and ``cli.main`` maps the families, not the classes, to exit
codes.
"""

import ast
import importlib
from pathlib import Path

import pytest

import qfield
from qfield import cli, krawtchouk, lattice, walks

SRC = Path(qfield.__file__).parent
# lowest layer first; a module may import only from layers before its own
LAYERS = [{"lattice"}, {"_mc"}, {"walks"}, {"krawtchouk"},
          {"green", "pointprocess"}, {"fields"}, {"limits", "hamiltonian"},
          {"verify"}, {"cli"}]
LIBRARY = [importlib.import_module(f"qfield.{name}")
           for layer in LAYERS[:-1] for name in sorted(layer)]


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def _package_imports(tree: ast.Module) -> set[str]:
    """Names of the qfield modules a module imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module)
            else:  # from . import walks, ...
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("qfield."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("qfield."))
    return {name for name in out if (SRC / f"{name}.py").exists()}


def test_layers_name_every_module():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert set().union(*LAYERS) == modules


@pytest.mark.parametrize("name", sorted(set().union(*LAYERS)))
def test_no_function_or_method_imports(name):
    for node in ast.walk(_tree(name)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = [n for n in ast.walk(node)
                      if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not nested, f"{name}.{node.name} imports at line " \
                               f"{nested[0].lineno}"


@pytest.mark.parametrize("layer", range(len(LAYERS)))
def test_modules_import_only_lower_layers(layer):
    lower = set().union(*LAYERS[:layer])
    for name in LAYERS[layer]:
        assert _package_imports(_tree(name)) <= lower, name


def test_walks_names_nothing_from_krawtchouk():
    tree = _tree("walks")
    assert "krawtchouk" not in _package_imports(tree)
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "krawtchouk" not in names
    assert not hasattr(walks, "ct_grouped_eigenvalues")


def test_count_classes_live_in_lattice():
    assert krawtchouk.count_vectors is lattice.count_vectors
    assert krawtchouk.multinomial_pmf is lattice.multinomial_pmf


def _index_maps(tree: ast.Module) -> list[str]:
    """Stride products ``... ** np.arange(...)`` and digit views
    ``.reshape((q,) * d)`` written out in a module."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.Call)
                and ast.unparse(node.right.func) == "np.arange"):
            out.append(f"line {node.lineno}: {ast.unparse(node)}")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reshape"
                and any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.Mult)
                        and isinstance(a.left, ast.Tuple) for a in node.args)):
            out.append(f"line {node.lineno}: {ast.unparse(node)}")
    return out


def test_index_maps_live_in_lattice():
    assert _index_maps(_tree("lattice"))  # the check sees what it looks for
    for name in sorted(set().union(*LAYERS) - {"lattice"}):
        assert not _index_maps(_tree(name)), name


def test_type_counts_live_in_lattice():
    assert krawtchouk.state_type_counts is lattice.state_type_counts


def _library_errors() -> set[type]:
    return {obj for mod in LIBRARY for obj in vars(mod).values()
            if isinstance(obj, type) and issubclass(obj, Exception)
            and obj.__module__ == mod.__name__}


def test_every_library_error_belongs_to_one_family():
    errors = _library_errors()
    assert {e.__name__ for e in errors} >= {
        "RangeError", "ShapeError", "NumericalError", "KernelError",
        "ContractError", "KappaError", "ReversibilityError"}
    for error in errors:
        families = [issubclass(error, lattice.RangeError),
                    issubclass(error, lattice.NumericalError)]
        assert families.count(True) == 1, error


@pytest.mark.parametrize("error", sorted(_library_errors(),
                                         key=lambda e: e.__name__),
                         ids=lambda e: e.__name__)
def test_each_error_exits_through_its_family(monkeypatch, capsys, error):
    def raise_it(args):
        raise error("deliberate")

    monkeypatch.setattr(cli, "cmd_eigen", raise_it)
    code = cli.main(["eigen", "--law", '{"variant":"uniform","q":2,"d":1}'])
    err = capsys.readouterr().err
    if issubclass(error, lattice.RangeError):
        assert (code, err) == (2, "config error: deliberate\n")
    else:
        assert (code, err) == (3, "numerical contract failure: deliberate\n")


def test_main_catches_the_two_families_alone():
    main = next(n for n in ast.walk(_tree("cli"))
                if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [ast.unparse(h.type) for n in ast.walk(main)
                if isinstance(n, ast.Try) for h in n.handlers]
    assert handlers == ["(ConfigError, RangeError)", "NumericalError"]
    imported = {alias.name for n in ast.walk(_tree("cli"))
                if isinstance(n, ast.ImportFrom) for alias in n.names}
    assert not {name for name in imported if name.endswith("Error")} \
        - {"NumericalError", "RangeError"}
