"""The package computes with integers only: a scan of its source for the
ways a float can get in."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "k3carpets"


def _float_uses(source: str, module: str) -> list[str]:
    """Every float literal, float() call, true division and use of `inf`
    (an unbounded bound is None everywhere) in `source`, as 'module:line
    what' strings."""
    found = []

    class Scan(ast.NodeVisitor):
        def report(self, node, what):
            found.append(f"{module}:{node.lineno} {what}")

        def visit_Constant(self, node):
            if isinstance(node.value, (float, complex)):
                self.report(node, f"literal {node.value!r}")

        def visit_Call(self, node):
            if isinstance(node.func, ast.Name) and node.func.id == "float":
                self.report(node, "float() call")
            self.generic_visit(node)

        def _division(self, node, op):
            if isinstance(op, ast.Div):
                self.report(node, "true division")
            self.generic_visit(node)

        def visit_BinOp(self, node):
            self._division(node, node.op)

        def visit_AugAssign(self, node):
            self._division(node, node.op)

        def _inf(self, node, name):
            if name == "inf":
                self.report(node, "inf")

        def visit_Name(self, node):
            self._inf(node, node.id)

        def visit_Attribute(self, node):
            self._inf(node, node.attr)
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            for alias in node.names:
                self._inf(node, alias.name)

    Scan().visit(ast.parse(source))
    return found


def test_package_source_has_no_floats():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [use for path in modules for use in _float_uses(path.read_text(), path.stem)]
    assert found == []


def test_scan_finds_each_kind_of_float():
    source = (
        "from math import inf\n"
        "def _rank(a, b):\n"
        "    return a / b\n"
        "def f(a, b):\n"
        "    a /= b\n"
        "    return float(a) + 1.5 + 2j + math.inf + a / b\n"
    )
    for module in ("cech_oracle", "exact_seq"):  # `inf` is flagged in every module
        assert sorted(_float_uses(source, module)) == [f"{module}:{use}" for use in (
            "1 inf", "3 true division", "5 true division", "6 float() call", "6 inf",
            "6 literal 1.5", "6 literal 2j", "6 true division")]
