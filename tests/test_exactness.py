"""No floating point in the math: a static scan of the math modules and a
runtime check of every exact object a full verification builds."""

import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qgrass
from qgrass import linalg
from qgrass.grassmann import build_graph, spectral_system
from qgrass.ladders import build_poset_matrices
from qgrass.nucleus import build_alpha_family, compute_nucleus, verify_actions, verify_bases

from test_ladders import estar_csr, pair_set_csr

MATH_MODULES = ["qarith", "subspaces", "grassmann", "linalg", "nucleus", "ladders"]

FLOAT_NAMES = {"float", "complex"}
FLOAT_ATTRS = re.compile(r"^(float\d*|complex\d*|double|single|half|longdouble)$")
FLOAT_DTYPE_STRINGS = re.compile(
    r"^[<>=|]?(f|c|d|e|g)\d*$|^(float|complex|double|single|half|longdouble)\d*$"
)


def float_uses(source: str) -> list[str]:
    """Line and kind of every float literal, use of the float or complex
    builtins, numpy float type, and float dtype string passed as a dtype
    keyword or to astype."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{line}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            found.append(f"{line}: builtin {node.id}")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and FLOAT_ATTRS.match(node.attr)
        ):
            found.append(f"{line}: np.{node.attr}")
        elif isinstance(node, ast.Call):
            args = [k.value for k in node.keywords if k.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                args += node.args[:1]
            for a in args:
                if isinstance(a, ast.Constant) and isinstance(a.value, str) \
                        and FLOAT_DTYPE_STRINGS.match(a.value):
                    found.append(f"{line}: dtype {a.value!r}")
    return found


def test_scanner_sees_every_kind():
    bad = """
x = 0.5
y = float(3)
a = np.zeros(3, dtype=float)
b = np.float64(1)
c = arr.astype("float32")
d = np.empty(2, dtype="f8")
e = 2j
"""
    assert len(float_uses(bad)) == 7
    ok = "a = np.zeros(3, dtype=np.int64).astype(object)\nb = Fraction(1, 2)\nc = s.half\n"
    assert float_uses(ok) == []


@pytest.mark.parametrize("module", MATH_MODULES)
def test_math_module_has_no_float(module):
    path = Path(qgrass.__file__).with_name(f"{module}.py")
    assert float_uses(path.read_text(encoding="utf-8")) == []


# The functions allowed to do arithmetic in F_q: the kernel words and
# the functionals of the table masks, the digits of `all_vectors`, the
# echelon form of x, and the generator matrices of the automorphism
# certificate.  These are the sites that must change before F_q can be
# a field of prime-power order, so a new one fails the scan.  The scan
# keys on a modulus spelled `q` or `<anything>.q`; the helpers of
# `linalg` that reduce mod a prime argument p (`echelon_mod_p`,
# `rank_mod_prime`, `_reconstruct`) are outside it, and the echelon of
# x is listed at its caller, which passes p = q.
FIELD_SITES = {
    "subspaces": {"kernel_words", "_functionals", "all_vectors", "GeometryContext.__init__"},
    "grassmann": {"_primitive_root", "_conjugated", "_inverse_point_maps"},
}


def field_arithmetic_sites(source: str) -> list[tuple[str, int]]:
    """(enclosing definition, line) of every reduction mod q: a `% q`
    or `%= q`, np.mod or np.remainder by q, and a three-argument pow
    with modulus q, where q is the name `q` or any attribute `.q`.  The
    definition is qualified as `Class.method`, and is "<module>" at the
    top level."""
    found = []

    def is_q(node):
        return (isinstance(node, ast.Name) and node.id == "q") or (
            isinstance(node, ast.Attribute) and node.attr == "q"
        )

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
            hit = is_q(node.right if isinstance(node, ast.BinOp) else node.value)
        elif isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
            hit = (name in ("mod", "remainder") and len(node.args) == 2 and is_q(node.args[1])) or (
                name == "pow" and len(node.args) == 3 and is_q(node.args[2])
            )
        else:
            hit = False
        if hit:
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_field_scanner_sees_every_kind():
    bad = """
a = b % q
class Box:
    def go(self, v):
        v %= q
        return np.mod(v, q) + np.remainder(v, q)
def f(w, e):
    def inner():
        return pow(w, e, q)
    return inner() + w % p + pow(w, e) + np.mod(w, 2) + w % q.size
def g(gc, self, v):
    return v % gc.q + np.mod(v, self.geometry.q) + pow(v, 2, gc.q)
"""
    assert field_arithmetic_sites(bad) == [
        ("<module>", 2), ("Box.go", 5), ("Box.go", 6), ("Box.go", 6), ("f.inner", 9),
        ("g", 12), ("g", 12), ("g", 12),
    ]


@pytest.mark.parametrize("module", MATH_MODULES)
def test_field_arithmetic_stays_in_its_sites(module):
    path = Path(qgrass.__file__).with_name(f"{module}.py")
    sites = field_arithmetic_sites(path.read_text(encoding="utf-8"))
    # a listed site that no longer reduces mod q leaves the list too
    assert {where for where, _line in sites} == FIELD_SITES.get(module, set())


def random_uses(source: str) -> list[str]:
    """Line of every import of the random module and every use of
    numpy.random: a check holds on every pair, never on a sample."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and node.attr == "random"
        ):
            names = ["numpy.random"]
        else:
            continue
        found += [f"{line}: {name}" for name in names if name in ("random", "numpy.random")]
    return found


def test_random_scanner_sees_every_kind():
    bad = """
import random
from random import sample
import numpy.random
from numpy import random
rng = np.random.default_rng(1)
"""
    assert len(random_uses(bad)) == 5
    ok = "from .random_walks import x\nimport numpy as np\nfrom fractions import Fraction\n"
    assert random_uses(ok) == []


@pytest.mark.parametrize("module", MATH_MODULES)
def test_math_module_does_not_sample(module):
    path = Path(qgrass.__file__).with_name(f"{module}.py")
    assert random_uses(path.read_text(encoding="utf-8")) == []


def scipy_imports(source: str) -> list[str]:
    """Line and name of every absolute import of scipy or one of its
    submodules: importing scipy.sparse alone costs more than a whole
    small verify run."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names if name.split(".")[0] == "scipy"]
    return found


def test_scipy_scanner_sees_every_kind():
    bad = """
import scipy
import numpy, scipy.sparse as sp
from scipy import sparse
from scipy.sparse.csgraph import connected_components
"""
    assert len(scipy_imports(bad)) == 4
    ok = "from .scipy_free import x\nfrom . import report\nimport scipyish\nimport numpy as np\n"
    assert scipy_imports(ok) == []


@pytest.mark.parametrize("module", MATH_MODULES + ["cli"])
def test_module_does_not_import_scipy(module):
    path = Path(qgrass.__file__).with_name(f"{module}.py")
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def test_verify_run_loads_no_scipy(tmp_path):
    # a whole verify run in a fresh interpreter: nothing imports scipy,
    # at start-up or later in a call, nor numpy.ma (which np.unique
    # imports), whose load raises peak RSS
    argv = ["verify", "--q", "2", "--n", "5", "--d", "2", "--suite", "all",
            "--out", str(tmp_path / "report.json")]
    code = (
        "import sys\n"
        "import qgrass.cli\n"
        f"rc = qgrass.cli.main({argv!r})\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "      sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qgrass.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 [] []"


def _definitions(tree: ast.Module):
    """(qualified name, node) of every top-level function or class and
    every non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}", sub


def _references(tree: ast.Module, strings: bool):
    """(line, name) of every ast.Name and ast.Attribute, and with
    `strings` of every part of a dotted string constant, the way the
    benchmark tracer names the functions it wraps."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from ((node.lineno, part) for part in node.value.split("."))


def unreferenced_definitions(package: dict, readers: list) -> list[str]:
    """`module.name` of every definition of the `package` sources
    (module name -> source; see `_definitions`) that nothing references:
    no ast.Name or ast.Attribute of the package outside the definition
    itself, and no name or dotted string constant of the `readers`
    sources (the demos and the benchmark tracer)."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    refs = {mod: list(_references(tree, strings=False)) for mod, tree in trees.items()}
    outside = {name for src in readers for _line, name in _references(ast.parse(src), True)}
    dead = []
    for mod, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            used = name in outside or any(
                name == ref and (other != mod or not node.lineno <= line <= node.end_lineno)
                for other, found in refs.items()
                for line, ref in found
            )
            if not used:
                dead.append(f"{mod}.{qualname}")
    return dead


def test_dead_helper_scanner_sees_every_kind():
    package = {
        "a": """
def used():
    return 1
def unused():
    return used()
def recursive(n):
    return recursive(n - 1)
def shown():
    return 2
class Box:
    def method(self):
        return self.helper()
    def helper(self):
        return used()
    def orphan(self):
        return Box()
    def __len__(self):
        return 0
class Traced:
    def go(self):
        return 3
class Lonely:
    def make(self):
        return Lonely()
""",
        "b": "from a import Box\nx = Box().method()\n",
    }
    readers = ["from a import shown\nshown()\n", 'TRACED = {"k": ("a", "Traced.go")}\n']
    assert unreferenced_definitions(package, readers) == [
        "a.unused", "a.recursive", "a.Box.orphan", "a.Lonely", "a.Lonely.make"
    ]


def test_program_has_no_dead_helpers():
    # every function, class and method of the package is reached from
    # the package itself, a demo or the benchmark tracer, not only from
    # the tests
    root = Path(__file__).resolve().parents[1]
    package = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(Path(qgrass.__file__).parent.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8") for p in sorted((root / "demos").glob("*.py"))]
    tracer = root / "benchmarks" / "tracer.py"
    if tracer.exists():
        readers.append(tracer.read_text(encoding="utf-8"))
    assert unreferenced_definitions(package, readers) == []


def is_integer_array(a) -> bool:
    """int64, or an object array of Python ints."""
    return a.dtype == np.int64 or (a.dtype == object and all(type(v) is int for v in a.flat))


def test_exact_objects_hold_int_or_fraction(built_matrices, monkeypatch):
    """The spectral system, the nucleus, the alpha family and their
    action and basis checks on J_2(4,2) build no ExactMatrix: every
    nucleus basis is an integer array (int64, or Python ints), the
    families and their containment order are 0/1 arrays, every inclusion
    matrix W_i is a bool array, every certified rank is an int, and
    every rank and kernel of `certified_kernel` is an int and an integer
    array.  With every certificate failing, the Bareiss fallback builds
    ExactMatrix objects, which hold only Python ints and Fractions, and
    the bases stay integer arrays."""
    kernels = []
    real_kernel = linalg.certified_kernel

    def recording_kernel(m, *args):
        found = real_kernel(m, *args)
        kernels.append(found)
        return found

    monkeypatch.setattr(linalg, "certified_kernel", recording_kernel)
    gc = build_graph(2, 4, 2)
    ss = spectral_system(gc)
    nd = compute_nucleus(ss)
    fam = build_alpha_family(gc)
    verify_actions(ss, fam)
    verify_bases(nd, fam)
    monkeypatch.setattr(linalg, "certified_kernel", real_kernel)
    assert kernels and None not in kernels
    assert any(kernel.size for _rank, kernel in kernels)
    for rank, kernel in kernels:
        assert type(rank) is int
        assert is_integer_array(kernel), kernel.dtype
    assert ss.checks.ok and nd.checks.ok and fam.checks.ok
    assert built_matrices == []
    assert all(is_integer_array(basis) for basis in nd.bases)
    assert is_integer_array(nd.combined_basis())
    for name in ("vee", "meet", "zeta"):
        assert getattr(fam, name).dtype == bool, name
    assert all(gc.inclusion(i).dtype == bool for i in range(gc.d))
    certified = ss.partial_ranks + next(
        c.observed for c in ss.checks.checks if c.name == "rank_certificate"
    )
    certified += [
        c.observed for c in nd.checks.checks if c.name.startswith("eigenspace_side_rank_")
    ]
    assert len(certified) == 2 * (gc.d + 1) + gc.d
    assert all(type(r) is int for r in certified), certified

    monkeypatch.setattr(linalg, "certified_kernel", lambda m, p=None: None)
    fallback = compute_nucleus(ss)
    verify_bases(fallback, fam).require()
    assert fallback.checks.ok and built_matrices
    for obj in built_matrices:
        bad = {type(v).__name__ for v in obj.a.flat if type(v) not in (int, Fraction)}
        assert not bad, f"ExactMatrix of shape {obj.a.shape} holds {bad}"
    assert all(is_integer_array(basis) for basis in fallback.bases)


def test_poset_operators_are_integer():
    # the pair sets and E* diagonals themselves, and the 0/1 matrices
    # they stand for
    pm = build_poset_matrices(build_graph(2, 4, 2).geometry)
    ops, mats = {}, {}
    for name in ("L1", "L2", "R1", "R2", "cover"):
        ops[name] = getattr(pm, name)
        mats[name] = pair_set_csr(pm, ops[name])
    for i, j in set(zip(pm.ivec.tolist(), pm.jvec.tolist())):
        ops[f"estar({i},{j})"] = pm.estar(i, j)
        mats[f"estar({i},{j})"] = estar_csr(pm, i, j)
    for name, op in ops.items():
        assert np.issubdtype(op.dtype, np.integer), f"{name} has dtype {op.dtype}"
    for name, mat in mats.items():
        assert np.issubdtype(mat.dtype, np.integer), f"{name} has dtype {mat.dtype}"
        mat.sum_duplicates()
        assert set(mat.data.tolist()) <= {1}, name
