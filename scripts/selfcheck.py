#!/usr/bin/env python
"""AST-based repo self-lint: enforce invariants the test suite can't.

Run as ``python scripts/selfcheck.py`` (CI does).  Checks every module
under ``src/repro/``:

* **SC001** — no mutable dataclass field defaults: an annotated class
  attribute in a ``@dataclass`` must not default to a list/dict/set
  literal (or a bare ``list()``/``dict()``/``set()`` call); use
  ``field(default_factory=...)``.
* **SC002** — every subclass of ``ModelError`` (transitively) carries a
  docstring: error types are user-facing API and the docstring is the
  only place their meaning is recorded.
* **SC003** — ``__all__`` consistency: every name a module exports must
  be bound at module top level (def / class / assignment / import),
  and ``__all__`` must not contain duplicates.
* **SC004** — the semantic verifier agrees with its own example plans:
  the clean example verifies ok, the racy and deadlocking examples
  produce their seeded CT21x findings, every payload passes the
  ``repro-verify-report/1`` validator, and fault coverage is complete
  on both machines.
* **SC005** — schema tags live in one place: no string literal outside
  ``repro/contract.py`` may contain a ``repro-<name>/<N>`` tag (use
  the contract's constant).  Docstrings are exempt.
* **SC006** — layers record counts in their results and one emitter
  per layer hands them to the tracer: ``current_tracer`` appears
  nowhere in ``runtime/stages.py`` (the pipeline returns chunk rows
  instead) or in the memsim kernels ``memsim/engine.py`` and
  ``memsim/fastpath.py`` (they fill ``KernelResult.counts``); it is
  read only inside ``CommRuntime.transfer`` in ``runtime/engine.py``,
  which hands the transfer's ledger to the one emitter, inside
  ``CommunicationStep.emit`` in ``runtime/collective.py`` (a step's
  one emitter, which also replays a memoized round's ledger), and
  inside ``NodeMemorySystem._count`` in ``memsim/node.py``; the
  collectives in ``runtime/collectives.py`` never read it.
* **SC007** — digests and draws have one home: ``hashlib`` is imported
  only by ``repro/contract.py``.  Everything else hashes through
  ``digest``, ``content_key`` or a ``draws`` stream, so no second
  encoding of a replayed value can drift from the canonical one.

Exit status: 0 when clean, 1 when any violation is found.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

MUTABLE_CALLS = ("list", "dict", "set")

CONTRACT = PACKAGE_ROOT / "contract.py"

SCHEMA_TAG = re.compile(r"repro-[a-z]+(?:-[a-z]+)*/[0-9]+")

TRACER_READ = "current_tracer"
#: Modules whose tracer reads are confined, and the one function (as a
#: class/def nesting path) allowed to read it; ``None`` means nowhere,
#: not even an import.
TRACER_SCOPES: Dict[Path, Optional[Tuple[str, ...]]] = {
    PACKAGE_ROOT / "runtime" / "stages.py": None,
    PACKAGE_ROOT / "runtime" / "engine.py": ("CommRuntime", "transfer"),
    PACKAGE_ROOT / "runtime" / "collective.py": ("CommunicationStep", "emit"),
    PACKAGE_ROOT / "runtime" / "collectives.py": None,
    PACKAGE_ROOT / "memsim" / "engine.py": None,
    PACKAGE_ROOT / "memsim" / "fastpath.py": None,
    PACKAGE_ROOT / "memsim" / "node.py": ("NodeMemorySystem", "_count"),
}


def iter_modules() -> Iterator[Tuple[Path, ast.Module]]:
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield path, tree


def is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass":
            return True
    return False


def is_mutable_default(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in MUTABLE_CALLS
    return False


def check_mutable_dataclass_defaults(
    path: Path, tree: ast.Module
) -> Iterator[str]:
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and is_dataclass_decorated(node)):
            continue
        for statement in node.body:
            if not isinstance(statement, ast.AnnAssign):
                continue
            if statement.value is None:
                continue
            if is_mutable_default(statement.value):
                target = ast.unparse(statement.target)
                yield (
                    f"SC001 {path.relative_to(REPO_ROOT)}:{statement.lineno}: "
                    f"dataclass {node.name}.{target} has a mutable default; "
                    "use field(default_factory=...)"
                )


def collect_classes(
    modules: List[Tuple[Path, ast.Module]],
) -> Dict[str, Tuple[Path, ast.ClassDef, List[str]]]:
    """Map class name -> (path, node, base names) across the package.

    Class names are unique enough within this package for the
    transitive ``ModelError`` walk; a collision would only widen the
    set of classes required to carry docstrings.
    """
    classes: Dict[str, Tuple[Path, ast.ClassDef, List[str]]] = {}
    for path, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = []
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        bases.append(base.id)
                    elif isinstance(base, ast.Attribute):
                        bases.append(base.attr)
                classes[node.name] = (path, node, bases)
    return classes


def check_error_docstrings(
    modules: List[Tuple[Path, ast.Module]],
) -> Iterator[str]:
    classes = collect_classes(modules)
    error_types: Set[str] = {"ModelError"}
    grew = True
    while grew:
        grew = False
        for name, (__, ___, bases) in classes.items():
            if name not in error_types and error_types & set(bases):
                error_types.add(name)
                grew = True
    for name in sorted(error_types):
        if name not in classes:
            continue
        path, node, __ = classes[name]
        if ast.get_docstring(node) is None:
            yield (
                f"SC002 {path.relative_to(REPO_ROOT)}:{node.lineno}: "
                f"error class {name} has no docstring"
            )


def module_bindings(tree: ast.Module) -> Set[str]:
    bound: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        bound.add(name_node.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
    return bound


def check_all_consistency(path: Path, tree: ast.Module) -> Iterator[str]:
    exported: List[str] = []
    lineno = 0
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                lineno = node.lineno
                for element in node.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        exported.append(element.value)
    if not exported:
        return
    rel = path.relative_to(REPO_ROOT)
    duplicates = sorted({n for n in exported if exported.count(n) > 1})
    for name in duplicates:
        yield f"SC003 {rel}:{lineno}: __all__ lists {name!r} more than once"
    bound = module_bindings(tree)
    for name in exported:
        if name not in bound:
            yield (
                f"SC003 {rel}:{lineno}: __all__ exports {name!r} "
                "but the module never binds it"
            )


def docstring_ids(tree: ast.Module) -> Set[int]:
    """``id()`` of every docstring constant in a module."""
    found: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.add(id(first.value))
    return found


def check_schema_tag_literals(path: Path, tree: ast.Module) -> Iterator[str]:
    if path == CONTRACT:
        return
    docstrings = docstring_ids(tree)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            match = SCHEMA_TAG.search(node.value)
            if match:
                yield (
                    f"SC005 {path.relative_to(REPO_ROOT)}:{node.lineno}: "
                    f"schema tag {match.group()!r} written as a literal; "
                    "use its constant in repro.contract"
                )


def check_tracer_reads(path: Path, tree: ast.Module) -> Iterator[str]:
    if path not in TRACER_SCOPES:
        return
    allowed = TRACER_SCOPES[path]
    rel = path.relative_to(REPO_ROOT)

    def walk(node: ast.AST, scope: Tuple[str, ...]) -> Iterator[str]:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            read = (
                isinstance(child, ast.Name) and child.id == TRACER_READ
                or isinstance(child, ast.Attribute)
                and child.attr == TRACER_READ
            )
            imported = (
                isinstance(child, ast.alias) and child.name == TRACER_READ
            )
            if (read and inner != allowed) or (imported and allowed is None):
                where = (
                    "in a module that must not read the tracer"
                    if allowed is None
                    else "outside " + ".".join(allowed)
                )
                yield (
                    f"SC006 {rel}:{getattr(child, 'lineno', node.lineno)}: "
                    f"{TRACER_READ} referenced {where}; record counts "
                    "or ledger rows in the result and let the layer's "
                    "one emitter trace them"
                )
            yield from walk(child, inner)

    yield from walk(tree, ())


def check_hashlib_imports(path: Path, tree: ast.Module) -> Iterator[str]:
    if path == CONTRACT:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "hashlib" for name in modules):
            yield (
                f"SC007 {path.relative_to(REPO_ROOT)}:{node.lineno}: "
                "hashlib imported outside repro/contract.py; hash through "
                "contract.digest or a contract.draws stream"
            )


def check_verifier_examples() -> Iterator[str]:
    """SC004: run the verify passes over the repo's own example plans."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.analysis.verify import validate_verify_report
    from repro.analysis.verify.examples import (
        EXAMPLES,
        example_payload,
        example_result,
    )

    for machine_key in ("t3d", "paragon"):
        expected_rules = {"clean": set(), "racy": {"CT211"},
                          "deadlock": {"CT212"}}
        for example in sorted(EXAMPLES):
            where = f"verify[{machine_key}:{example}]"
            result = example_result(machine_key, example)
            rules = {d.rule for d in result.diagnostics}
            want = expected_rules[example]
            if example == "clean" and not result.ok:
                yield (
                    f"SC004 {where}: clean example reported findings "
                    f"{sorted(rules)}"
                )
            if want - rules:
                yield (
                    f"SC004 {where}: expected {sorted(want)} among "
                    f"diagnostics, got {sorted(rules)}"
                )
            uncovered = [
                entry.fault_class for entry in result.coverage
                if not entry.covered
            ]
            if uncovered:
                yield f"SC004 {where}: uncovered fault classes {uncovered}"
            problems = validate_verify_report(
                example_payload(machine_key, example)
            )
            for problem in problems:
                yield f"SC004 {where}: payload invalid: {problem}"


def main() -> int:
    modules = list(iter_modules())
    violations: List[str] = []
    for path, tree in modules:
        violations.extend(check_mutable_dataclass_defaults(path, tree))
        violations.extend(check_all_consistency(path, tree))
        violations.extend(check_schema_tag_literals(path, tree))
        violations.extend(check_tracer_reads(path, tree))
        violations.extend(check_hashlib_imports(path, tree))
    violations.extend(check_error_docstrings(modules))
    violations.extend(check_verifier_examples())
    for violation in violations:
        print(violation)
    if violations:
        print(f"selfcheck: {len(violations)} violation(s)")
        return 1
    print(f"selfcheck: {len(modules)} modules clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
