"""The package's seams: which module may import which, the input rules
every public function that takes V or eps enforces at its boundary, and no
top-level definition that nothing reads."""

import ast
import inspect
import math
import re
from pathlib import Path

import pytest

import cvqkd_fading
from cvqkd_fading import DomainError, FadingUniform, SampleConfig, effective_params, moments_uniform

PACKAGE = Path(cvqkd_fading.__file__).resolve().parent


def package_imports(module):
    """The package modules that ``module`` imports, read from its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules = [node.module] if node.module else [a.name for a in node.names]
            names += [f"cvqkd_fading.{m}" for m in modules]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module)
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    return {name.split(".")[1] for name in names if name.startswith("cvqkd_fading.")}


def test_the_fading_law_imports_only_errors():
    assert package_imports("fading") == {"errors"}


@pytest.mark.parametrize("module", ["channel", "cma", "montecarlo", "numerics"])
def test_module_does_not_import_the_worst_case_model(module):
    # the law both models average over lives in ``fading``, not in ``hba``
    assert "hba" not in package_imports(module)


F = FadingUniform(0.4, 0.2)
M = moments_uniform(F)
# a valid value for every required argument of a public function taking V or eps
VALID = {
    "v": 10.0,
    "eps": 0.01,
    "t": 0.4,
    "f": F,
    "m": M,
    "eff": effective_params(M, 0.01, 10.0),
    "cfg": SampleConfig(10, 1),
}
RULES = {
    "v": "variance must satisfy V >= 1, got {!r}",
    "eps": "excess noise must satisfy eps >= 0, got {!r}",
}
BAD = {"v": (0.5, math.nan, math.inf), "eps": (-0.01, math.nan)}


def boundary_cases():
    for name in sorted(cvqkd_fading.__all__):
        obj = getattr(cvqkd_fading, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        params = inspect.signature(obj).parameters
        for arg in ("v", "eps"):
            if arg in params:
                for bad in BAD[arg]:
                    yield pytest.param(name, arg, bad, id=f"{name}-{arg}={bad!r}")


@pytest.mark.parametrize("name, arg, bad", boundary_cases())
def test_public_function_rejects_bad_v_and_eps(name, arg, bad):
    fn = getattr(cvqkd_fading, name)
    params = inspect.signature(fn).parameters
    kwargs = {p: VALID[p] for p in params if params[p].default is inspect.Parameter.empty}
    kwargs[arg] = bad
    with pytest.raises(DomainError, match=f"^{re.escape(RULES[arg].format(bad))}$"):
        fn(**kwargs)


def top_level_definitions(tree):
    """The names a module's top level defines: functions, classes and
    assignment targets (dunder names such as ``__all__`` aside)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id


def test_every_definition_is_public_or_read():
    # a helper that only a deleted feature used is dead code: every top-level
    # definition is exported or read by name somewhere in the package
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    read = set(cvqkd_fading.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    defined = [(m, name) for m, tree in sorted(trees.items()) for name in top_level_definitions(tree)]
    assert [f"{m}.{name}" for m, name in defined if name not in read] == []
