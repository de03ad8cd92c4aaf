"""The README's Library example runs as written, its command lines parse,
the package root exports nothing but its version, which pyproject.toml
states again, every command of the standing byte-identity set parses,
every public module-level name of the package is used in it, and only
polyarith touches a coefficient list through its kernels."""

import ast
import importlib.util
import re
import shlex
import types
from pathlib import Path

import qnarayana
from qnarayana.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src" / "qnarayana"

_spec = importlib.util.spec_from_file_location("byte_identity", ROOT / "scripts" / "byte_identity.py")
byte_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_identity)


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_command_lines_parse():
    lines = re.findall(r"^\$ qnarayana (.*)$", README.read_text(encoding="utf-8"), re.M)
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True))


def test_package_root_holds_only_the_version():
    # Submodules appear on the package once imported; nothing else may.
    names = [name for name, value in vars(qnarayana).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert names == []


def test_pyproject_states_the_package_version():
    # A regex rather than tomllib, which needs Python 3.11.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    assert re.findall(r'^version = "([^"]*)"$', project, re.M) == [qnarayana.__version__]


def test_byte_identity_commands_parse():
    # A renamed option would fail the same way in both checkouts and read as
    # "same"; parsing each command here catches that.
    assert len(byte_identity.COMMANDS) == 52
    parser = build_parser()
    for args in byte_identity.COMMANDS:
        parser.parse_args(args)


# Public module-level names that no code in src/ refers to, each kept for
# the reason given.
UNUSED_BUT_KEPT = {
    "q_shifted_factorial": "perfbench/traced_cli.py wraps it as the qobjects.qsf span",
}


def _module_level_names(node):
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _references(tree):
    """The names that Name and Attribute nodes under tree read, one per node,
    so that imports, strings and docstrings do not count."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)]


def test_every_public_module_name_is_used():
    """A public module-level function, class or constant that nothing in the
    package refers to outside its own definition is surface nothing uses.
    Methods are out of scope: `shift`, for one, also names record fields."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    references = [name for tree in trees for name in _references(tree)]
    unused = set()
    for tree in trees:
        for node in tree.body:
            own = _references(node)
            for name in _module_level_names(node):
                if not name.startswith("_") and references.count(name) == own.count(name):
                    unused.add(name)
    assert unused == set(UNUSED_BUT_KEPT)


COEFFICIENT_LIST_NAMES = {"_trusted", "imul_one_minus_qt", "idiv_one_minus_qt"}


def test_only_polyarith_touches_coefficient_lists():
    """The in-place kernels and the trusted constructor build coefficient
    lists; every other module builds through mul_ratio, so no other module
    imports or reads them."""
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [*_references(tree), *(a.name for n in ast.walk(tree)
                                        if isinstance(n, ast.ImportFrom) for a in n.names)]
        used = COEFFICIENT_LIST_NAMES.intersection(names)
        if used and path.name != "polyarith.py":
            offenders[path.name] = sorted(used)
    assert offenders == {}
