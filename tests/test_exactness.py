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
    env = {k: v for k, v in os.environ.items() if k != "QGRASS_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qgrass.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 [] []"


def test_exact_objects_hold_int_or_fraction(built_matrices, monkeypatch):
    """Every ExactMatrix built by the spectral system, the nucleus, the
    alpha family and their action and basis checks on J_2(4,2) holds
    only Python ints and Fractions; every nucleus basis is one of them,
    the families and their containment order are 0/1 arrays, every
    inclusion matrix W_i is a bool array, every certified rank is an
    int, and every rank and kernel of `certified_kernel` is an int and
    an integer array (int64, or Python ints)."""
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
    monkeypatch.undo()
    assert kernels and None not in kernels
    assert any(kernel.size for _rank, kernel in kernels)
    for rank, kernel in kernels:
        assert type(rank) is int
        assert kernel.dtype == np.int64 or (
            kernel.dtype == object and all(type(v) is int for v in kernel.flat)
        ), kernel.dtype
    assert ss.checks.ok and nd.checks.ok and fam.checks.ok
    assert built_matrices
    for obj in built_matrices:
        bad = {type(v).__name__ for v in obj.a.flat if type(v) not in (int, Fraction)}
        assert not bad, f"ExactMatrix of shape {obj.a.shape} holds {bad}"
    assert all(any(basis is obj for obj in built_matrices) for basis in nd.bases)
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
