"""Source-level rules for the package: every vector norm is `repcore.frobenius`."""
import ast
from pathlib import Path

import bethelab

SOURCES = sorted(Path(bethelab.__file__).resolve().parent.glob("*.py"))


def _linalg_norm_calls(path: Path) -> list[int]:
    """Lines of the calls `<...>.linalg.norm(...)` in one source file."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "norm"
                  and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr == "linalg")


def test_no_linalg_norm_call_in_the_package():
    # `np.linalg.norm` of a long vector splits across BLAS threads, so its bits
    # depend on the thread count; `repcore.frobenius` makes no BLAS call
    assert SOURCES
    calls = {path.name: lines for path in SOURCES if (lines := _linalg_norm_calls(path))}
    assert calls == {}
