"""Every public name of ``src/egbp`` has a caller in the package or the benchmark.

A public module-level function or class of ``src/egbp``, and each public
method or property of such a class, must be referenced in
``src/egbp/*.py`` or ``perfbench/*.py`` somewhere other than its own
definition, an ``__all__`` entry or an import (which covers the
re-exports of ``egbp/__init__.py``).  Code that only the tests call
belongs in ``tests/``.

References are matched by name: a name read as a variable, as an
attribute (``x.name``) or as a whole string constant (perfbench looks the
solver's functions up by name).  A method that shares its name with an
attribute of something else, such as ``copy``, passes unnoticed.
"""

import ast
from dataclasses import fields
from pathlib import Path

from egbp.assembly import ProblemSpec
from egbp.cli import StudyConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "egbp"


def _trees():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def _public_definitions(trees):
    """(qualified name, name, path, node) of each public function, class,
    and public method or property of a public class, in src/egbp."""
    out = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            qualname = "%s.%s" % (path.stem, node.name)
            out.append((qualname, node.name, path, node))
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    out.append(("%s.%s" % (qualname, member.name), member.name, path, member))
    return out


def _references(trees):
    """name -> [(path, line)] of every read of a name, outside __all__."""
    refs = {}
    for path, tree in trees.items():
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                skip.update(map(id, ast.walk(node.value)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if id(node) not in skip:
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_public_name_has_a_caller_outside_tests():
    trees = _trees()
    refs = _references(trees)
    unused = [
        qualname
        for qualname, name, path, node in _public_definitions(trees)
        if not any(
            p != path or not node.lineno <= line <= node.end_lineno
            for p, line in refs.get(name, ())
        )
    ]
    assert unused == [], "public names that only the tests use: %s" % ", ".join(unused)


# Parameters that no body reads but a frozen caller passes by position:
# perfbench calls conservation_report(mesh, system, u).
UNREAD_PARAMETERS_ALLOWED = {"analysis.conservation_report(mesh)"}


def _unread_parameters(path, tree):
    """'module.qualname(param)' of each parameter of each function (methods
    and nested functions included) whose body never reads it."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = "%s.%s" % (prefix, child.name)
                args = child.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                read = {
                    n.id
                    for stmt in child.body
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                out.extend("%s(%s)" % (qualname, p) for p in params if p not in read)
                visit(child, qualname)
            elif isinstance(child, ast.ClassDef):
                visit(child, "%s.%s" % (prefix, child.name))
            else:
                visit(child, prefix)

    visit(tree, path.stem)
    return out


def test_every_parameter_is_read():
    unread = [
        name
        for path, tree in _trees().items()
        if path.parent == PACKAGE
        for name in _unread_parameters(path, tree)
    ]
    assert sorted(set(unread) - UNREAD_PARAMETERS_ALLOWED) == []
    assert set(unread) >= UNREAD_PARAMETERS_ALLOWED, "stale allowlist entries"


# Settings that perfbench sets and no solve reads (see ProblemSpec).
UNREAD_FIELDS_ALLOWED = {"ProblemSpec.omega", "ProblemSpec.tol_inner"}


def _attribute_reads(tree):
    """Names read as an attribute (x.name) in tree, outside any __post_init__."""
    validation = {
        id(n)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        for n in ast.walk(node)
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and id(node) not in validation
    }


def test_every_setting_is_read():
    # a setting that only its validation reads changes nothing
    reads = set()
    for path, tree in _trees().items():
        if path.parent == PACKAGE:
            reads |= _attribute_reads(tree)
    unread = {
        "%s.%s" % (cls.__name__, f.name)
        for cls in (ProblemSpec, StudyConfig)
        for f in fields(cls)
        if f.name not in reads
    }
    assert sorted(unread - UNREAD_FIELDS_ALLOWED) == []
    assert unread >= UNREAD_FIELDS_ALLOWED, "stale allowlist entries"
