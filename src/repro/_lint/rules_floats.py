"""No-float-equality rule.

Simulated clocks, completion times, and probabilities are floats built
from long chains of arithmetic; exact ``==``/``!=`` against a float
literal is almost always a latent bug (the comparison silently stops
matching after any rounding change). Inside the numeric packages
(``sim/``, ``dls/``, ``ra/``), ``FLT001`` flags equality comparisons
where either operand is a float literal — including ``0.0``: degenerate
guards should use an ordering (``<= 0.0``) or a tolerance.

The rule is deliberately syntactic (it does not try to infer float-ness
of variables); comparisons between two non-literal expressions are out of
scope. No comment silences it: an intentional exact comparison is written
as an ordering or against a non-literal name.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .core import Finding, Module, Rule, register

__all__ = ["FloatEqualityRule"]

#: Packages whose floats are times/probabilities.
_NUMERIC_PACKAGES = ("sim/", "dls/", "ra/")


def _is_float_literal(node: ast.expr) -> bool:
    # Cover unary minus: ``x == -1.0`` parses as UnaryOp(USub, Constant).
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register
class FloatEqualityRule(Rule):
    id = "FLT001"
    title = "no exact equality on time/probability floats"
    rationale = (
        "float equality on simulated times and probabilities breaks under "
        "any rounding change; use an ordering or a tolerance"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        if not module.pkgpath.startswith(_NUMERIC_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_literal(left) or _is_float_literal(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield module.finding(
                        node,
                        self.id,
                        f"float-literal `{symbol}` comparison; use an "
                        "ordering (`<= 0.0`) or math.isclose/np.isclose",
                    )
                    break
