"""Every exported name resolves, so a deleted helper cannot leave a dangling export."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import solab

MODULES = sorted(m.name for m in pkgutil.iter_modules(solab.__path__))
ROOT = Path(__file__).resolve().parents[1]


def _loads(node):
    """Names read under an ast node: loaded names and attribute names."""
    return ([n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
            + [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)])


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"solab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"solab.{name}.__all__ names missing attributes: {missing}"


def test_no_unused_imports():
    # every name a module or test file imports at top level is used in it
    paths = sorted(Path(solab.__file__).parent.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}: {name}" for name in imported if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_no_unused_private_names():
    # every module-level private function, class or constant is referenced in the
    # package somewhere outside its own definition, so a helper left behind fails here
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(solab.__file__).parent.glob("*.py"))}

    def references(node):
        return _loads(node) + [alias.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom)
                               for alias in n.names]

    everywhere = [name for tree in trees.values() for name in references(tree)]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = references(node)
            unused += [f"{module}.{name}" for name in defined
                       if name.startswith("_") and not name.startswith("__")
                       and everywhere.count(name) == own.count(name)]
    assert not unused, f"private names with no reference: {unused}"


# exported names whose only reader is their own unit test file, kept on purpose
DOCUMENTED_API = {
    "solver.discrete_energy": "cross-checks SolveReport.final_energy in tests/test_solver.py",
}


def test_no_unused_exports():
    # every exported name is read in the package, the tests or the benchmark outside its
    # own definition; the __all__ entry and the module's own unit test file
    # tests/test_<module>.py do not count, except for DOCUMENTED_API
    files = sorted(Path(solab.__file__).parent.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    loads = {path: _loads(ast.parse(path.read_text())) for path in files}
    unused = []
    for module_name in MODULES:
        module = importlib.import_module(f"solab.{module_name}")
        tree = ast.parse(Path(module.__file__).read_text())
        own = {node.name: _loads(node) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        own_test = ROOT / "tests" / f"test_{module_name}.py"
        everywhere = [name for path, names in loads.items() if path != own_test for name in names]
        unused += [f"{module_name}.{name}" for name in getattr(module, "__all__", ())
                   if everywhere.count(name) == own.get(name, []).count(name)]
    flagged = [name for name in unused if name not in DOCUMENTED_API]
    assert not flagged, f"exported names with no reader outside their own unit tests: {flagged}"
    stale = [name for name in DOCUMENTED_API if name not in unused]
    assert not stale, f"DOCUMENTED_API entries not exported, or read elsewhere now: {stale}"


def test_no_unread_fields():
    # every dataclass field in the package is read as an attribute somewhere in the package
    # or the benchmark (the class's own methods included; the tests do not count)
    package = sorted(Path(solab.__file__).parent.glob("*.py"))
    reads = {node.attr for path in package + sorted((ROOT / "perfbench").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}

    def is_dataclass(cls):
        return any(isinstance(d, ast.Name) and d.id == "dataclass"
                   or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                   for d in cls.decorator_list)

    unread = [f"{path.stem}.{cls.name}.{stmt.target.id}" for path in package
              for cls in ast.walk(ast.parse(path.read_text()))
              if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in reads]
    assert not unread, f"dataclass fields no program code reads: {unread}"


def test_regularized_operator_exported():
    # the solver's eps-regularization is public under one name and one import path, its module's
    operator = importlib.import_module("solab.operator")
    assert "regularized_operator" in operator.__all__
    assert not hasattr(solab, "regularized_operator")
    assert not hasattr(operator, "regularize")


def _benchmark_tracer():
    """The benchmark's tracer module, loaded from perfbench/tracer.py without importing perfbench."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod


def test_benchmark_tracer_bindings_resolve():
    # the benchmark tracer patches solab names; a refactor that drops one must fail here
    tracer_mod = _benchmark_tracer()
    tracer = tracer_mod.Tracer("tier1")
    verify = importlib.import_module("solab.verify")
    original = verify.solution_fields
    try:
        tracer_mod.install_solab(tracer)
        assert verify.solution_fields is not original
    finally:
        tracer.restore()
    assert verify.solution_fields is original


def test_benchmark_tracer_sees_one_span_per_solved_level(tmp_path):
    # a cold 33^3 solve is the ladder 17^3 -> 33^3: two solver.solve spans side by side, so the
    # tracer's per-level rows (outermost spans) see both levels; a solve_dirichlet that called
    # back into the ladder would show three spans, two of them nested in the third
    cli = importlib.import_module("solab.cli")
    config = importlib.import_module("solab.config")
    path = tmp_path / "cfg.txt"
    path.write_text("structure = power:p=3\nboundary = poly2:x1=0.5,x1t=0.4,x2=0.2\n"
                    "resolution = 33\nepsilon = 1e-4\n")
    cfg = config.load_config(str(path))
    tracer_mod = _benchmark_tracer()
    tracer = tracer_mod.Tracer("tier1")
    try:
        tracer_mod.install_solab(tracer)
        assert cli.cmd_solve(cfg, str(tmp_path)) == cli.EXIT_PASS
    finally:
        tracer.restore()
    solves = [span for span in tracer.spans if span[1] == "solver.solve"]
    assert len(solves) == 2
    assert tracer_mod.outermost(tracer.spans, "solver.solve") == solves
