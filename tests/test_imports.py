"""Lint: every import in the package and the tests is used, every local
name the package assigns is read, every parameter of its module-level
functions and methods is read, every module-level function, class and
UPPER_CASE constant of the package is used somewhere in it, every method
and property of its classes is called from the package, the tests or the
benchmark, the solve path does not import the reference mesher or finite
elements, the package does not load scipy.optimize, and in the command
line only run and its two writers write files.

No linter ships with the project's dependencies, so this standard-library
check stands in for one.  The package's __init__ imports only to
re-export, so it is exempt.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import with_src_path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "steklovmax").glob("*.py"))
FILES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
               if p.name != "__init__.py")
# modules of the optimizer, command line and experiments; meshing and fem
# are the reference the mesh-free solver is tested against
SOLVE_PATH = ("optimize", "trefftz", "gradients", "geometry", "constraints",
              "graphs", "experiments", "cli")


def unused_imports(source):
    """Names an import binds in source that nothing else mentions."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_checker_finds_unused_import():
    src = "import os\nimport a.b as c\nfrom x import y, z\nprint(z)\n"
    assert unused_imports(src) == [(1, "os"), (2, "c"), (3, "y")]


def test_checker_sees_attribute_roots():
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_locals(source):
    """(line, name) of each name a function assigns that nothing in the
    function, its nested functions included, reads.  Names starting with
    _ are exempt, and so are names declared global or nonlocal; an
    augmented assignment reads its target."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        stored, read = {}, set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
        found.update((line, name) for name, line in stored.items()
                     if name not in read and not name.startswith("_"))
    return sorted(found)


def test_checker_finds_unread_locals():
    src = ("def f(xs):\n"
           "    a, _b = xs\n"
           "    for i, x in enumerate(xs):\n"
           "        n = 0\n"
           "        n += x\n"
           "    c = 1\n"
           "    def g():\n"
           "        return c\n"
           "    return g\n")
    assert unread_locals(src) == [(2, "a"), (3, "i")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_locals(path):
    assert unread_locals(path.read_text()) == []


def unread_parameters(source):
    """(line, function, parameter) of each parameter of a module-level
    function or of a method of a module-level class that nothing in the
    function's body, its nested functions included, reads.  Nested
    functions are exempt: their callers fix their signatures."""
    found = []
    for stmt in ast.parse(source).body:
        funcs = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        for func in funcs:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = func.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *filter(None, [a.vararg, a.kwarg])]
            read = {node.id for node in ast.walk(func)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            found.extend((func.lineno, func.name, p.arg) for p in params
                         if p.arg not in read)
    return found


def test_checker_finds_unread_parameters():
    src = ("def f(a, b, *c, d=1, **e):\n"
           "    def g(unused):\n"
           "        return b\n"
           "    return g(d)\n"
           "class C:\n"
           "    def m(self, x):\n"
           "        return self\n"
           "def h(y):\n"
           "    y = 1\n"
           "    return 0\n")
    assert unread_parameters(src) == [
        (1, "f", "a"), (1, "f", "c"), (1, "f", "e"), (6, "m", "x"),
        (8, "h", "y")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def unmentioned_definitions(sources):
    """(file, line, name) of each module-level function, class and
    UPPER_CASE constant in sources, a dict of file name to text, that no
    source mentions outside its own definition, as a name it reads, an
    attribute or an imported name."""
    defined, mentioned = [], set()
    for name, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    if not isinstance(node.ctx, ast.Store):
                        names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((name, stmt.lineno, stmt.name))
                names.discard(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                defined.extend(
                    (name, stmt.lineno, node.id) for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name) and node.id.isupper())
            mentioned |= names
    return sorted(d for d in defined if d[2] not in mentioned)


def test_checker_finds_unmentioned_definitions():
    sources = {"a.py": ("def used():\n    return 1\n"
                        "def recursive(n):\n    return recursive(n - 1)\n"
                        "class Unused:\n    pass\n"
                        "def by_attr():\n    pass\n"),
               "b.py": ("from a import used\nimport a\na.by_attr()\n"
                        "def left_over():\n    return used()\n")}
    assert unmentioned_definitions(sources) == [
        ("a.py", 3, "recursive"), ("a.py", 5, "Unused"),
        ("b.py", 4, "left_over")]


def test_checker_finds_unmentioned_constants():
    sources = {"a.py": ("TOL = 1e-9\nUNREAD_TOL, OTHER = 1, 2\n"
                        "GROWN: int = 1\nGROWN = GROWN + 1\n"
                        "lower = 3\nLEFT = lower\n"
                        "def f(x):\n    return x < TOL\nf(0)\n"),
               "b.py": "from a import OTHER\nimport a\na.LEFT\n"}
    assert unmentioned_definitions(sources) == [("a.py", 2, "UNREAD_TOL")]


def test_package_definitions_are_used():
    # an __init__ re-export counts as a use
    assert unmentioned_definitions(
        {path.name: path.read_text() for path in PACKAGE}) == []


def unmentioned_methods(package, others):
    """(file, line, Class.method) of each method and property of a
    module-level class in package that no source in package or others
    (dicts of file name to text) mentions as an attribute outside its own
    definition.  Dunder methods are exempt: Python calls them."""
    mentioned, defined = Counter(), []
    for name, source in [*package.items(), *others.items()]:
        tree = ast.parse(source)
        mentioned.update(node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute))
        if name not in package:
            continue
        for cls in tree.body:
            for fn in cls.body if isinstance(cls, ast.ClassDef) else []:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not fn.name.startswith("__"):
                    own = sum(isinstance(node, ast.Attribute)
                              and node.attr == fn.name
                              for node in ast.walk(fn))
                    defined.append((name, fn.lineno, cls.name, fn.name, own))
    return sorted((name, line, f"{cls}.{fn}")
                  for name, line, cls, fn, own in defined
                  if mentioned[fn] <= own)


def test_checker_finds_unmentioned_methods():
    package = {"a.py": ("class A:\n"
                        "    def __len__(self):\n        return 0\n"
                        "    def used(self):\n"
                        "        return self.used_here()\n"
                        "    def used_here(self):\n        return 1\n"
                        "    @property\n"
                        "    def size(self):\n        return 1\n"
                        "    def recursive(self, n):\n"
                        "        return self.recursive(n - 1)\n"
                        "    def unused(self):\n        pass\n")}
    others = {"t.py": "from a import A\nA().used() + A().size\n"}
    assert unmentioned_methods(package, others) == [
        ("a.py", 11, "A.recursive"), ("a.py", 13, "A.unused")]
    # a file outside the package only mentions; its classes are not checked
    assert unmentioned_methods({}, {**package, **others}) == []


def test_package_methods_are_used():
    def texts(paths):
        return {str(p.relative_to(ROOT)): p.read_text() for p in paths}
    assert unmentioned_methods(
        texts(PACKAGE), texts([*(ROOT / "tests").glob("*.py"),
                               *(ROOT / "perfbench").glob("*.py")])) == []


def package_imports(source):
    """Names of the steklovmax modules that source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module)
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            mods = ([node.module] if isinstance(node, ast.ImportFrom)
                    else [alias.name for alias in node.names])
            names.update(m.split(".")[1] for m in mods
                         if m and m.startswith("steklovmax."))
    return names


def test_package_imports_sees_relative_and_absolute():
    src = ("from .meshing import triangulate\nfrom . import fem\n"
           "import steklovmax.geometry\nfrom numpy import array\n")
    assert package_imports(src) == {"meshing", "fem", "geometry"}


@pytest.mark.parametrize("name", SOLVE_PATH)
def test_solve_path_does_not_import_mesher(name):
    path = ROOT / "src" / "steklovmax" / f"{name}.py"
    assert not package_imports(path.read_text()) & {"meshing", "fem"}


# the functions of cli.py that may write: run makes the output directory
# and writes every file, the run modes only compute
CLI_WRITERS = ("run", "_write_json", "_write_series")
WRITE_CALLS = ("makedirs", "savetxt", "to_csv", "to_svg", "_write_json",
               "_write_series")


def file_writes(source):
    """(line, call) of each call in source, outside the module-level
    functions named in CLI_WRITERS, that writes: one of WRITE_CALLS, called by
    name or as an attribute, or open with a mode that is not a plain
    read mode."""
    found = []
    for stmt in ast.parse(source).body:
        if getattr(stmt, "name", None) in CLI_WRITERS:
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            mode = [kw.value for kw in node.keywords if kw.arg == "mode"]
            mode = (node.args[1:2] or mode or [ast.Constant("r")])[0]
            reads = isinstance(mode, ast.Constant) and \
                not set(str(mode.value)) & set("wax+")
            if name in WRITE_CALLS or name == "open" and not reads:
                found.append((node.lineno, name))
    return found


def test_checker_finds_file_writes():
    src = ("def run(b):\n    os.makedirs('o')\n    b.to_csv('s')\n"
           "def mode(b, m):\n    b.to_svg('s')\n    _write_series('p', [])\n"
           "    open('r').read()\n    open('w', 'w')\n"
           "    open('a', mode='a')\n    open('m', m)\n"
           "    np.savetxt('t', [])\n")
    assert file_writes(src) == [(5, "to_svg"), (6, "_write_series"),
                                (8, "open"), (9, "open"), (10, "open"),
                                (11, "savetxt")]


def test_cli_writes_only_in_run():
    path = ROOT / "src" / "steklovmax" / "cli.py"
    assert file_writes(path.read_text()) == []


def test_package_does_not_load_scipy_optimize():
    # a fresh interpreter: the import and a short convex ascent, whose
    # trial steps run the projection
    code = ("import sys\n"
            "import steklovmax as sm\n"
            "from steklovmax.cli import _flat_support\n"
            "opts = sm.OptimOptions(k=2, n_angles=40, max_iters=3, "
            "restarts=0)\n"
            "sm.ascend(_flat_support(opts), opts)\n"
            "print('scipy.optimize' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=with_src_path(os.environ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
