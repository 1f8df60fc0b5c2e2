"""The import graph between the package's modules, read from the source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bci"


def _relative_imports(module: str) -> dict[str, set[str]]:
    """{imported module: names taken from it} over the module's relative imports."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    out: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize(
    "module,forbidden",
    [("hypergeometric", {"quadrature", "closedform"}), ("quadrature", {"hypergeometric", "closedform"})],
)
def test_series_and_quadrature_stay_independent(module, forbidden):
    assert not forbidden & set(_relative_imports(module))


def test_closedform_takes_only_the_euler_integral_from_quadrature():
    # the one edge between the closed forms and the quadrature oracle: it
    # goes when the identity checks move into a module of their own
    assert _relative_imports("closedform")["quadrature"] == {"euler_integrals"}


def test_verify_takes_only_the_single_series_from_hypergeometric():
    # verify sums each series through the code eval runs, not a copy of it
    assert _relative_imports("verify")["hypergeometric"] == {"hyp2f1_one_b"}


def test_no_module_imports_dataclasses():
    # the records are named tuples: each frozen dataclass would exec its
    # generated methods at every `import bci`
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            importers += [path.name for name in names if name.partition(".")[0] == "dataclasses"]
    assert importers == []
