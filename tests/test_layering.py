"""The package is a chain of layers: grid -> alias analysis -> field route.

Each module imports only the layers below it, every import is a
module-level statement, and the Wigner-d table cache and its layout are
private to the grid, which builds the blocks of one matrix-route call in
one kernel pass.  The library has one Wigner-d evaluator, and the test
oracles do not import it.  Every exported name has a caller outside the
tests, or is a quantity of the paper.  No module suppresses a warning.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import spinalias
from spinalias import (AngularPowerSpectrum, HarmonicIndex, aliased_spectrum,
                       build_grid_equiangular, build_grid_gauss, enumerate_aliases, sampling,
                       xi_factors)

SRC = Path(spinalias.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# exported without a library or benchmark caller: each is a quantity of the paper
PAPER_API = {
    "spin_sph_harm": "the spin-weighted harmonics the coefficients are defined by",
    "h_q": "the longitude phase sum H, the comb factor of tau",
    "xi_factors": "the squared-alias transfer factors xi and xi0",
    "circular_covariance": "the circular covariance of a spin field",
    "aliased_eb": "the E/B split of an aliased coefficient",
}

# each module may import only modules earlier in this chain
CHAIN = ["special", "sampling", "aliasing", "spectrum", "fieldsim"]
ALLOWED = {name: set(CHAIN[:i]) for i, name in enumerate(CHAIN)}
ALLOWED["serialize"] = {"spectrum"}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _targets(node) -> list:
    """Dotted names an import statement binds, relative ones under spinalias."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    base = ".".join(filter(None, ["spinalias", node.module]))
    return [base] if node.module else [f"{base}.{alias.name}" for alias in node.names]


def _internal_imports(tree) -> set:
    """Package modules a module imports ("__init__" for the package itself)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for parts in (target.split(".") for target in _targets(node)):
                if parts[0] == "spinalias":
                    sub = parts[1] if len(parts) > 1 else "__init__"
                    out.add(sub if (SRC / f"{sub}.py").exists() else "__init__")
    return out


def test_imports_are_module_level():
    nested = [
        f"{name}.py:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert nested == []


def test_layers_import_only_lower_layers():
    imports = {name: _internal_imports(tree) for name, tree in _trees().items()}
    bad = {
        name: sorted(imports[name] - allowed)
        for name, allowed in ALLOWED.items()
        if imports[name] - allowed
    }
    assert bad == {}


def test_no_import_cycle():
    graph = {name: _internal_imports(tree) for name, tree in _trees().items()}
    done, active = set(), []

    def visit(name):
        assert name not in active, " -> ".join(active + [name])
        if name in done:
            return
        active.append(name)
        for dep in sorted(graph.get(name, ())):
            visit(dep)
        active.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_only_the_grid_touches_its_tables():
    touching = sorted(p.name for p in SRC.glob("*.py") if "_d_tables" in p.read_text())
    assert touching == ["sampling.py"]


def test_only_the_grid_knows_the_table_layout():
    # the field route calls the grid's transforms and the alias analysis reads
    # unsigned rows and residue classes through SamplingGrid._d_rows and _classes
    trees = _trees()
    outside = {name: tree for name, tree in trees.items() if name != "sampling"}
    stored = {"_nodes", "_near", "_d_tables", "_parity", "_d_blocks"}
    reads = [f"{name}.py:{node.lineno}" for name, tree in outside.items()
             for node in ast.walk(tree)
             if getattr(node, "attr", None) in stored or getattr(node, "id", None) in stored
             or isinstance(node, ast.alias) and node.name in stored]
    assert reads == []
    transforms = {node.attr for node in ast.walk(trees["fieldsim"])
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and getattr(node.value, "id", None) == "grid"}
    assert transforms == {"_synthesis", "_analysis"}
    gone = ("_order_rows", "_weighted_row", "_order_scales", "_parity",
            "_class_orders", "_class_columns")
    layout = [(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name in gone]
    assert layout == [("sampling", "_parity")]
    # the mirror sign goes only on the sums that keep it: the squares drop it
    signers = sorted({f"{name}.{getattr(stmt, 'name', stmt.lineno)}"
                      for name, tree in outside.items() for stmt in tree.body
                      for node in ast.walk(stmt)
                      if getattr(node, "attr", getattr(node, "id", None)) == "_signs"})
    assert signers == ["aliasing.enumerate_aliases", "aliasing.i_n"]
    private = [f"{name}.py:{node.lineno}" for name, tree in trees.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "aliasing"
               and any(alias.name.startswith("_") for alias in node.names)]
    assert private == []


@pytest.mark.parametrize("build", [build_grid_gauss, build_grid_equiangular])
@pytest.mark.parametrize("Q,orders", [(1, (49, 30, 15, 4)), (5, (49, 12, 6, 2)),
                                      (8, (49, 7, 4, 1))])
def test_each_matrix_route_call_is_one_kernel_pass(monkeypatch, build, Q, orders):
    # the per-class reads of a call share one kernel pass over all its orders
    passes = []

    def counted(order_list, *args):
        passes.append(len(order_list))
        return kernel(order_list, *args)

    kernel = sampling._wigner_d_blocks
    monkeypatch.setattr(sampling, "_wigner_d_blocks", counted)
    calls = [
        lambda grid: aliased_spectrum(grid, AngularPowerSpectrum.flat(2, 48), range(2, 17), 48),
        lambda grid: enumerate_aliases(HarmonicIndex(7, -3, 2), grid, u_max=60),
        lambda grid: xi_factors(grid, 7, -3, 30, 2),
        # the source row and the cells at ell' only: orders |v| <= ell', not <= ell
        lambda grid: xi_factors(grid, 30, 3, 7, 2),
    ]
    for call, count in zip(calls, orders):
        passes.clear()
        call(build(16, 2, Q))
        assert passes == [count]


def test_src_suppresses_no_warning():
    # warnings are surfaced, not suppressed: the CLI records them with "always"
    filters, actions = ("filterwarnings", "simplefilter"), {}
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "attr", getattr(func, "id", None)) in filters:
                given = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "action")]
                # a non-literal action counts as "ignore"
                actions[f"{name}.py:{node.lineno}"] = getattr(given[0], "value", None)
    assert "always" in actions.values()
    assert [where for where, action in actions.items() if action in ("ignore", None)] == []


def test_import_loads_no_fft_and_no_scipy():
    # numpy loads numpy.fft lazily; the transforms reach it at call time
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, spinalias; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
         "or m.startswith('numpy.fft')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _calls(tree, qualname: str) -> set:
    """Names that a module-level function or ``Class.method`` calls directly."""
    node = tree
    for part in qualname.split("."):
        node = next(item for item in node.body if getattr(item, "name", None) == part)
    return {call.func.id for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}


def test_one_wigner_d_evaluator():
    # the Jacobi form lives in the tests as the oracle; the library has the kernel only
    trees = _trees()
    jacobi = [f"{name}.py:{node.lineno}" for name, tree in trees.items()
              for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name in ("jacobi", "jacobi_norm")]
    assert jacobi == []
    readers = {"special": "wigner_d", "spectrum": "circular_covariance",
               "sampling": "SamplingGrid._d_blocks"}
    assert [f"{module}.{name}" for module, name in readers.items()
            if "_wigner_d_blocks" not in _calls(trees[module], name)] == []


def test_oracles_do_not_import_the_kernel():
    tree = ast.parse((Path(__file__).parent / "_invariants.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spinalias")
        for alias in node.names
    }
    assert imported & {"wigner_d", "spin_sph_harm", "_wigner_d_blocks"} == set()


def _referenced(tree) -> set:
    """Names and attributes a module reads, outside the definitions they name."""
    out = set()
    for stmt in tree.body:
        names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        out |= names
    return out


def test_every_export_has_a_caller():
    trees = {name: tree for name, tree in _trees().items() if name != "__init__"}
    exported = {
        name: ast.literal_eval(stmt.value)
        for name, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "__all__"
    }
    used = set().union(*map(_referenced, trees.values()))
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _referenced(ast.parse(path.read_text()))
    unused = [f"{module}.{name}" for module, names in exported.items() for name in names
              if name not in used and name not in PAPER_API]
    assert unused == []
