"""Every name a module exports resolves, so a deletion cannot leave a stale
``__all__`` entry behind; each public name is declared once, in its
module's ``__all__``, and the package exports exactly those lists; and
every definition in the package has a reader, so code with no caller
cannot stay behind either."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import coskew

MODULES = ["coskew"] + [f"coskew.{m.name}" for m in pkgutil.iter_modules(coskew.__path__)]

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "coskew").glob("*.py"))


# the console script's module imports click, so the package does not
# re-export it
LIBRARY = [m for m in MODULES[1:] if m != "coskew.cli"]

# the package's top-level names before its __all__ became the modules'
# lists joined; a cut that removes one of them edits this list on purpose
EXPORTED = [
    "BoundsResult", "CopulaSpec", "CoskewError", "DegenerateColumnError", "DomainError",
    "EventSpec", "ExperimentConfig", "ExperimentReport", "GaussianParams",
    "InsufficientEventRowsError", "InvalidCorrelationError", "Marginal",
    "MomentAccumulator", "QuadratureError", "SeedSpec", "TriSample", "USample",
    "UnsupportedMarginalError", "build_event_mask", "conditional_corr", "coskew_bound",
    "coskewness", "exponential", "laplace", "mixture_prediction", "parse_copula",
    "parse_event", "parse_marginal", "pearson_corr", "rank_coskew_gaussian",
    "rank_coskewness", "rank_transform", "run_algorithm1", "run_example1",
    "run_figure1", "run_figure2", "sample", "sample_comonotonic", "sample_gaussian",
    "sample_independence", "sample_max_coskew", "sample_min_coskew",
    "sample_mixing_sum", "sample_mixture", "spearman_rho", "standard_normal",
    "student_t", "to_data", "trivariate_orthant_prob", "uniform01",
    "verify_propositions",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_all_is_the_modules_lists_joined():
    modules = [importlib.import_module(m) for m in LIBRARY]
    assert [m.__name__ for m in modules if not hasattr(m, "__all__")] == []
    joined = [n for m in modules for n in m.__all__]
    assert sorted(n for n in set(joined) if joined.count(n) > 1) == []
    assert coskew.__all__ == joined


def test_earlier_top_level_names_stay_exported():
    assert len(EXPORTED) == len(set(EXPORTED)) == 51
    assert [n for n in EXPORTED if n not in coskew.__all__] == []


def test_package_declares_no_name_itself():
    # no string in it repeats a name that a module's __all__ declares
    tree = ast.parse((ROOT / "src" / "coskew" / "__init__.py").read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Constant)
                and isinstance(n.value, str) and n.value in coskew.__all__]


def _definitions(tree):
    """(qualname, node) of each top-level function and class, and of each
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    yield f"{node.name}.{m.name}", m


def _click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def test_every_definition_has_a_reader():
    # a name counts where src code reads it (a name or an attribute; an
    # import or an __all__ string alone does not), or where README.md or
    # the benchmark's tracer names it; dunders and click commands are
    # called by Python and by click
    trees = {p.name: ast.parse(p.read_text()) for p in SRC}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    text = (ROOT / "README.md").read_text() + (ROOT / "perfbench" / "tracer.py").read_text()
    unread = [
        f"{module}:{qual}"
        for module, tree in trees.items()
        for qual, node in _definitions(tree)
        if not (node.name.startswith("__") or _click_command(node)
                or node.name in read or re.search(rf"\b{node.name}\b", text))
    ]
    assert unread == []
