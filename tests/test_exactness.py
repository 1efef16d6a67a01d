"""No floating point in the math: a static scan of the math modules and a
runtime check of every exact object a full verification builds."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qgrass
from qgrass.grassmann import build_graph, spectral_system
from qgrass.ladders import build_poset_matrices
from qgrass.linalg import ExactMatrix
from qgrass.nucleus import build_alpha_family, compute_nucleus, verify_actions, verify_bases

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


def test_exact_objects_hold_int_or_fraction(monkeypatch):
    """Every ExactMatrix built by the spectral system, the nucleus, the
    alpha family and their action and basis checks on J_2(4,2) holds
    only Python ints and Fractions; every nucleus basis is one of them,
    and the families and their containment order are 0/1 arrays."""
    built = []
    init = ExactMatrix.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ExactMatrix, "__init__", recording_init)
    gc = build_graph(2, 4, 2)
    ss = spectral_system(gc)
    nd = compute_nucleus(ss)
    fam = build_alpha_family(gc)
    verify_actions(ss, fam)
    verify_bases(nd, fam)
    monkeypatch.undo()
    assert ss.checks.ok and nd.checks.ok and fam.checks.ok
    assert built
    for obj in built:
        bad = {type(v).__name__ for v in obj.a.flat if type(v) not in (int, Fraction)}
        assert not bad, f"ExactMatrix of shape {obj.a.shape} holds {bad}"
    assert all(any(basis is obj for obj in built) for basis in nd.bases)
    for name in ("vee", "meet", "zeta"):
        assert getattr(fam, name).dtype == bool, name


def test_poset_operators_are_integer():
    pm = build_poset_matrices(build_graph(2, 4, 2).geometry)
    ops = {name: getattr(pm, name) for name in ("L1", "L2", "R1", "R2", "cover")}
    for i, j in set(zip(pm.ivec.tolist(), pm.jvec.tolist())):
        ops[f"estar({i},{j})"] = pm.estar(i, j)
    for name, op in ops.items():
        assert np.issubdtype(op.dtype, np.integer), f"{name} has dtype {op.dtype}"
