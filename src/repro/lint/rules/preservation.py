"""R004: every pass declares its ``preserved_analyses`` explicitly.

History (PR-2): loop passes reported preheader-only mutations as
"unchanged", leaving cached dominator trees and loop nests describing a
CFG that had already grown a block — the stale-analysis hazard.  The
fix gave every pass a preservation contract, but the contract was only
*total by default*: a subclass that forgot to declare silently
inherited the abstract base's ``PRESERVE_NONE``, and nobody could tell
a deliberate "preserves nothing" from an unexamined one.  This rule
makes the contract total by construction: every ``Pass``/
``FunctionPass`` subclass (transitively, within its module) must carry
an explicit ``preserved_analyses`` assignment in its own class body.

The dynamic half — recomputing each claimed-preserved analysis after
every pass and diffing it against the cache — is
:mod:`repro.passes.audit` (the analog of LLVM's
``-verify-analysis-invalidation`` expensive checks).
"""

import ast

from repro.lint.core import Rule, register_rule


def _base_names(class_node):
    for base in class_node.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def _declares_preserved(class_node):
    for stmt in class_node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and \
                        target.id == "preserved_analyses":
                    return True
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name) and \
                stmt.target.id == "preserved_analyses":
            return True
    return False


@register_rule
class PreservationContractRule(Rule):
    """Pass subclass without an explicit preservation declaration."""

    code = "R004"
    name = "undeclared-preservation"
    history = ("PR-2 stale-analysis hazard: passes without an explicit "
               "preservation contract silently inherit PRESERVE_NONE — "
               "safe but unexamined, and indistinguishable from a "
               "forgotten declaration when the default ever changes.")

    def check(self, ctx):
        config = ctx.config
        if not config.preservation_applies(ctx.module_path):
            return
        # One top-to-bottom sweep suffices: Python requires a base
        # class to exist before the subclass definition executes, so
        # in-module pass lineages appear in definition order.
        pass_classes = set(config.pass_base_names)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(name in pass_classes
                       for name in _base_names(node)):
                continue
            pass_classes.add(node.name)
            if not _declares_preserved(node):
                yield self.finding(
                    node,
                    f"pass class '{node.name}' does not declare "
                    f"preserved_analyses — declare the preservation "
                    f"contract explicitly (PRESERVE_NONE when the pass "
                    f"restructures the CFG); the preservation auditor "
                    f"(PassManager(audit_analyses=True)) validates the claim",
                    symbol=node.name)
