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
PACKAGE = {path.stem: path.read_text() for path in sorted(Path(solab.__file__).parent.glob("*.py"))}


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


def _module_reads(tree, own, modules):
    """(module, name) reads of one file: ``from solab.m import name`` or ``from .m import name``,
    ``alias.name`` with ``alias`` bound to module m, and in module ``own`` a bare load outside the
    name's definition.  An attribute of any other object, like ``report.weak_residual``, reads none."""
    reads, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            head, _, rest = (node.module or "").partition(".")
            source = (node.module or "") if node.level else rest if head == "solab" else None
            if source in modules:
                reads |= {(source, alias.name) for alias in node.names}
            elif source == "":  # from solab import m [as alias], from . import m [as alias]
                aliases |= {alias.asname or alias.name: alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname: a.name[6:] for a in node.names if a.asname and a.name.startswith("solab.")}
    reads |= {(aliases[node.value.id], node.attr) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in aliases}
    for stmt in tree.body if own else []:
        reads |= {(own, node.id) for node in ast.walk(stmt) if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load) and node.id != getattr(stmt, "name", None)}
    return reads


def _defined(stmt):
    """The names a module-level statement defines: its function, its class or its assigned names."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def unread_exports(package: dict, others: list, tracer: str) -> list:
    """The ``__all__`` names of the package modules (name -> source) that no program code reads; the
    benchmark's sources ``others`` and ``tracer`` count, and a string in ``tracer`` reads its name."""
    reads = set().union(*(_module_reads(ast.parse(src), m, package) for m, src in package.items()),
                        *(_module_reads(ast.parse(src), None, package) for src in others + [tracer]))
    patched = {node.value for node in ast.walk(ast.parse(tracer)) if isinstance(node, ast.Constant)}
    return [f"{m}.{name}" for m, src in package.items() for stmt in ast.parse(src).body
            if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "__all__"
            for name in ast.literal_eval(stmt.value) if (m, name) not in reads and name not in patched]


def test_no_unused_private_names():
    # every module-level private function, class or constant is read, as its module's name, in the
    # package outside its own definition, so a helper left behind fails here
    reads = set().union(*(_module_reads(ast.parse(src), m, PACKAGE) for m, src in PACKAGE.items()))
    unused = [f"{m}.{name}" for m, src in PACKAGE.items() for stmt in ast.parse(src).body
              for name in _defined(stmt) if name[:1] == "_" and name[:2] != "__" and (m, name) not in reads]
    assert not unused, f"private names with no reference: {unused}"


def test_no_unused_exports():
    # every exported name is read as its module's name by the package or the benchmark, outside its
    # own definition and its __all__ entry: a public name that only tests read is not program code
    others = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")) if path.stem != "tracer"]
    unused = unread_exports(PACKAGE, others, (ROOT / "perfbench" / "tracer.py").read_text())
    assert not unused, f"exported names no program or benchmark code reads: {unused}"


def test_export_lint_resolves_reads_to_modules():
    # a report's attribute and a bare name in another module do not read solver.weak_residual
    package = {"solver": '__all__ = ["weak_residual", "solve", "helper"]\n'
                         "def weak_residual(): return weak_residual()\ndef solve(): return helper()\n",
               "cli": "from . import solver as sv\ndef main(report, weak_residual):\n"
                      "    return sv.solve(), report.weak_residual, weak_residual\n"}
    assert unread_exports(package, [], "") == ["solver.weak_residual"]
    for other, tracer in (("from solab.solver import weak_residual", ""), ("", '("weak_residual",)'),
                          ("import solab.solver as s\ns.weak_residual", ""),
                          ("from solab import solver\nsolver.weak_residual", "")):
        assert unread_exports(package, [other], tracer) == [], other
    assert unread_exports(dict(package, grid="from .solver import weak_residual"), [], "") == []


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
