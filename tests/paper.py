"""The paper's printed formulas, transcribed verbatim: the tests' reference.

At run time every structured family's composition law is its structure's
closure, and its form is the structure's determinant (threefold_quadratic
reads t^2 as a in both).  The laws, printed expansions, factorizations and
inverse formulas the paper prints live here, so that the suite checks the
derived data against them and a typo on either side is caught.

- `law(name)`: the printed bilinear or trilinear law of the eight
  families whose law the paper prints (sextic_uv's among them), and psi
  of threefold_quadratic.
- `printed_form(name)`: the printed expansion of cubic3x3, quartic4x4 and
  threefold4x4.  The quartic's transcription is the one the catalog keeps
  (`FormFamily.printed_form`), because the benchmark's oracle reads it
  there.  `threefold_quadratic_form()` is Q = a*x1^2 + b*x1*x2 + c*x2^2.
- `circulant_factors()`: the quadratic and quartic factors of
  sextic_circulant's form.
- `uv_factors()`: the pair f1, f2 that sextic_uv's law composes
  simultaneously, whose product is its form: the determinants of its
  structure's diagonal blocks.  The catalog keeps no factor.
- `IRREDUCIBLE`: whether each family's form is irreducible over Q at each
  numeric --params of the golden CLI argvs (`golden_params`), each True
  certified by the line `irreducibility_line`, each False by the factors
  `golden_value_factors(name, values)`.
- `DEGENERATE_WITNESSES`: parameter values at which a three-fold family's
  form collapses to a power or a definite form.
- `quartic_inverse_forms()`: the printed inverse of the quartic's law.
"""

import json
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from matform import catalog
from matform.linstruct import MultilinearMap, argument_names
from matform.polyring import Polynomial, VarTable


def _vars(names: Sequence[str]) -> Dict[str, Polynomial]:
    table = VarTable(tuple(names))
    return {name: table.var(name) for name in table.names}


def _map_from(params: Tuple[str, ...], h: int, k: int,
              build) -> MultilinearMap:
    """The arity-k map whose outputs `build` writes in x.., y.. [, z..]."""
    coord_sets = argument_names(h, k)
    v = _vars(params + sum(coord_sets, ()))
    return MultilinearMap.from_forms(build(v), params, coord_sets)


# -- bilinear laws -------------------------------------------------------------


def _quad_map(v):
    p, q = v["p"], v["q"]
    x1, x2, y1, y2 = v["x1"], v["x2"], v["y1"], v["y2"]
    return [
        x1 * y1 - q * x2 * y2,
        x1 * y2 + x2 * y1 + p * x2 * y2,
    ]


def _cubic_map(v):
    l1, l2, l3, l4, l5 = v["l1"], v["l2"], v["l3"], v["l4"], v["l5"]
    x1, x2, x3 = v["x1"], v["x2"], v["x3"]
    y1, y2, y3 = v["y1"], v["y2"], v["y3"]
    return [
        (x1 * y1 - l3 * (l1 - l2 - l3 + l5) * x2 * y2
         - l3 * (l2 - l4) * x2 * y3 - l3 * (l2 - l4) * x3 * y2
         + (-l1 * l4 + l2 * l2 - l2 * l5 + l3 * l4) * x3 * y3),
        (x1 * y2 + x2 * y1 + l1 * x2 * y2 + l2 * x2 * y3
         + l2 * x3 * y2 + l4 * x3 * y3),
        (x1 * y3 + l3 * x2 * y2 + l3 * x2 * y3 + x3 * y1
         + l3 * x3 * y2 + l5 * x3 * y3),
    ]


def _quartic_map(v):
    m, n, p, q = v["m"], v["n"], v["p"], v["q"]
    x1, x2, x3, x4 = v["x1"], v["x2"], v["x3"], v["x4"]
    y1, y2, y3, y4 = v["y1"], v["y2"], v["y3"], v["y4"]
    return [
        x1*y1 - n*x2*y2 - q*x3*y3 + q*n*x4*y4,
        x1*y2 + x2*y1 + m*x2*y2 - q*x3*y4 - q*x4*y3 - m*q*x4*y4,
        x1*y3 - n*x2*y4 + x3*y1 + p*x3*y3 - n*x4*y2 - n*p*x4*y4,
        (x1*y4 + x2*y3 + m*x2*y4 + x3*y2 + p*x3*y4
         + x4*y1 + m*x4*y2 + p*x4*y3 + m*p*x4*y4),
    ]


def _sextic_map(v):
    l1, l2, l3, l4, l5 = v["l1"], v["l2"], v["l3"], v["l4"], v["l5"]
    p, q = v["p"], v["q"]
    x1, x2, x3, x4, x5, x6 = (v["x1"], v["x2"], v["x3"],
                              v["x4"], v["x5"], v["x6"])
    y1, y2, y3, y4, y5, y6 = (v["y1"], v["y2"], v["y3"],
                              v["y4"], v["y5"], v["y6"])
    # The two recurring cubic-family coefficient combinations.
    cA = l3 * (l1 - l2 - l3 + l5)
    cB = l3 * (l2 - l4)
    cC = -l1 * l4 + l2 * l2 - l2 * l5 + l3 * l4
    z1 = (x1*y1 - cA*x2*y2 - cB*x2*y3 - cB*x3*y2 + cC*x3*y3
          - q*x4*y4 + q*cA*x5*y5 + q*cB*x5*y6
          + q*cB*x6*y5 - q*cC*x6*y6)
    z2 = (x1*y2 + x2*y1 + l1*x2*y2 + l2*x2*y3 + l2*x3*y2 + l4*x3*y3
          - q*x4*y5 - q*x5*y4 - l1*q*x5*y5 - l2*q*x5*y6
          - l2*q*x6*y5 - l4*q*x6*y6)
    z3 = (x1*y3 + l3*x2*y2 + l3*x2*y3 + x3*y1 + l3*x3*y2 + l5*x3*y3
          - q*x4*y6 - q*l3*x5*y5 - q*l3*x5*y6 - q*x6*y4
          - q*l3*x6*y5 - l5*q*x6*y6)
    z4 = (x1*y4 - cA*x2*y5 - cB*x2*y6 - cB*x3*y5 + cC*x3*y6
          + x4*y1 + p*x4*y4 - cA*x5*y2 - cB*x5*y3 - cA*p*x5*y5
          - cB*p*x5*y6 - cB*x6*y2 + cC*x6*y3 - cB*p*x6*y5
          + p*cC*x6*y6)
    z5 = (x1*y5 + x2*y4 + l1*x2*y5 + l2*x2*y6 + l2*x3*y5 + l4*x3*y6
          + x4*y2 + p*x4*y5 + x5*y1 + l1*x5*y2 + l2*x5*y3 + p*x5*y4
          + l1*p*x5*y5 + l2*p*x5*y6 + l2*x6*y2 + l4*x6*y3
          + l2*p*x6*y5 + l4*p*x6*y6)
    z6 = (x1*y6 + l3*x2*y5 + l3*x2*y6 + x3*y4 + l3*x3*y5 + l5*x3*y6
          + x4*y3 + p*x4*y6 + l3*x5*y2 + l3*x5*y3 + l3*p*x5*y5
          + l3*p*x5*y6 + x6*y1 + l3*x6*y2 + l5*x6*y3 + p*x6*y4
          + l3*p*x6*y5 + l5*p*x6*y6)
    return [z1, z2, z3, z4, z5, z6]


def _circulant_map(v):
    q = v["q"]
    x1, x2, x3, x4, x5, x6 = (v[f"x{i}"] for i in range(1, 7))
    y1, y2, y3, y4, y5, y6 = (v[f"y{i}"] for i in range(1, 7))
    return [
        x1*y1 + x2*y3 + x3*y2 + q*x4*y4 + q*x5*y6 + q*x6*y5,
        x1*y2 + x2*y1 + x3*y3 + q*x4*y5 + q*x5*y4 + q*x6*y6,
        x1*y3 + x2*y2 + x3*y1 + q*x4*y6 + q*x5*y5 + q*x6*y4,
        x1*y4 + x2*y6 + x3*y5 + x4*y1 + x5*y3 + x6*y2,
        x1*y5 + x2*y4 + x3*y6 + x4*y2 + x5*y1 + x6*y3,
        x1*y6 + x2*y5 + x3*y4 + x4*y3 + x5*y2 + x6*y1,
    ]


def _octic_map(v):
    m, n, p, q, r, s = v["m"], v["n"], v["p"], v["q"], v["r"], v["s"]
    x1, x2, x3, x4, x5, x6, x7, x8 = (v[f"x{i}"] for i in range(1, 9))
    y1, y2, y3, y4, y5, y6, y7, y8 = (v[f"y{i}"] for i in range(1, 9))
    z1 = (x1*y1 - n*x2*y2 - q*x3*y3 + q*n*x4*y4
          - s*x5*y5 + s*n*x6*y6 + s*q*x7*y7 - s*q*n*x8*y8)
    z2 = (x1*y2 + x2*y1 + m*x2*y2 - q*x3*y4 - q*x4*y3 - q*m*x4*y4
          - s*x5*y6 - s*x6*y5 - s*m*x6*y6 + s*q*x7*y8 + s*q*x8*y7
          + s*q*m*x8*y8)
    z3 = (x1*y3 - n*x2*y4 + x3*y1 + p*x3*y3 - n*x4*y2 - n*p*x4*y4
          - s*x5*y7 + s*n*x6*y8 - s*x7*y5 - s*p*x7*y7 + s*n*x8*y6
          + s*n*p*x8*y8)
    z4 = (x1*y4 + x2*y3 + m*x2*y4 + x3*y2 + p*x3*y4 + x4*y1
          + m*x4*y2 + p*x4*y3 + p*m*x4*y4 - s*x5*y8 - s*x6*y7
          - s*m*x6*y8 - s*x7*y6 - s*p*x7*y8 - s*x8*y5 - s*m*x8*y6
          - s*p*x8*y7 - s*p*m*x8*y8)
    z5 = (x1*y5 - n*x2*y6 - q*x3*y7 + q*n*x4*y8 + x5*y1 + r*x5*y5
          - n*x6*y2 - n*r*x6*y6 - q*x7*y3 - q*r*x7*y7 + q*n*x8*y4
          + n*q*r*x8*y8)
    z6 = (x1*y6 + x2*y5 + m*x2*y6 - q*x3*y8 - q*x4*y7 - q*m*x4*y8
          + x5*y2 + r*x5*y6 + x6*y1 + m*x6*y2 + r*x6*y5 + r*m*x6*y6
          - q*x7*y4 - q*r*x7*y8 - q*x8*y3 - q*m*x8*y4 - q*r*x8*y7
          - q*r*m*x8*y8)
    z7 = (x1*y7 - n*x2*y8 + x3*y5 + p*x3*y7 - n*x4*y6 - n*p*x4*y8
          + x5*y3 + r*x5*y7 - n*x6*y4 - n*r*x6*y8 + x7*y1 + p*x7*y3
          + r*x7*y5 + r*p*x7*y7 - n*x8*y2 - n*p*x8*y4 - n*r*x8*y6
          - r*n*p*x8*y8)
    z8 = (x1*y8 + x2*y7 + m*x2*y8 + x3*y6 + p*x3*y8 + x4*y5
          + m*x4*y6 + p*x4*y7 + p*m*x4*y8 + x5*y4 + r*x5*y8 + x6*y3
          + m*x6*y4 + r*x6*y7 + r*m*x6*y8 + x7*y2 + p*x7*y4 + r*x7*y6
          + r*p*x7*y8 + x8*y1 + m*x8*y2 + p*x8*y3 + p*m*x8*y4
          + r*x8*y5 + r*m*x8*y6 + r*p*x8*y7 + r*p*m*x8*y8)
    return [z1, z2, z3, z4, z5, z6, z7, z8]


def _uv_map(v):
    # the paper writes this law in u (first argument) and v (second)
    q = v["q"]
    u1, u2, u3, u4, u5, u6 = (v[f"x{i}"] for i in range(1, 7))
    v1, v2, v3, v4, v5, v6 = (v[f"y{i}"] for i in range(1, 7))
    return [
        u1*v1 + q*u2*v2,
        u1*v2 + u2*v1,
        (u1*v3 + q*u2*v4 + u3*v1 - 2*u3*v3 - u3*v6 + q*u4*v2
         - 2*q*u4*v4 - q*u4*v5 - q*u5*v4 + q*u5*v5 - u6*v3 + u6*v6),
        (u1*v4 + u2*v6 - u3*v4 + u3*v5 + u4*v1 - u4*v3 - 2*u4*v6
         + u5*v3 - u5*v6 + u6*v2 - 2*u6*v4 - u6*v5),
        (u1*v5 + u2*v3 + u3*v2 - u3*v4 - 2*u3*v5 - u4*v3
         + u4*v6 + u5*v1 - 2*u5*v3 - u5*v6 + u6*v4 - u6*v5),
        (u1*v6 + q*u2*v2 - q*u2*v4 - q*u2*v5 + u3*v3 - u3*v6
         - q*u4*v2 + q*u4*v4 + 2*q*u4*v5 - q*u5*v2 + 2*q*u5*v4
         + q*u5*v5 + u6*v1 - u6*v3 - 2*u6*v6),
    ]


# -- trilinear laws ------------------------------------------------------------


def _threefold4x4_map(v):
    m, n, p, q, s, t = v["m"], v["n"], v["p"], v["q"], v["s"], v["t"]
    x1, x2, x3, x4 = v["x1"], v["x2"], v["x3"], v["x4"]
    y1, y2, y3, y4 = v["y1"], v["y2"], v["y3"], v["y4"]
    z1, z2, z3, z4 = v["z1"], v["z2"], v["z3"], v["z4"]
    s2, t2 = s * s, t * t
    w1 = (s2*t2*x1*y1*z1 + m*t2*x1*y2*z1 + n*t2*x1*y2*z2
          - n*t2*x2*y1*z2 + n*t2*x2*y2*z1 + p*s2*x1*y3*z1
          + q*s2*x1*y3*z3 - q*s2*x3*y1*z3 + q*s2*x3*y3*z1
          + m*p*x1*y4*z1 + m*q*x1*y4*z3 - m*q*x3*y2*z3
          + m*q*x3*y4*z1 + n*p*x1*y4*z2 - n*p*x2*y3*z2
          + n*p*x2*y4*z1 + n*q*x1*y4*z4 - n*q*x2*y3*z4
          + n*q*x2*y4*z3 - n*q*x3*y2*z4 + n*q*x3*y4*z2
          + n*q*x4*y1*z4 - n*q*x4*y2*z3 - n*q*x4*y3*z2
          + n*q*x4*y4*z1)
    w2 = (s2*t2*x1*y1*z2 - s2*t2*x1*y2*z1 + s2*t2*x2*y1*z1
          + m*t2*x2*y1*z2 + n*t2*x2*y2*z2 + p*s2*x1*y3*z2
          - p*s2*x1*y4*z1 + p*s2*x2*y3*z1 + q*s2*x1*y3*z4
          - q*s2*x1*y4*z3 + q*s2*x2*y3*z3 - q*s2*x3*y1*z4
          + q*s2*x3*y2*z3 + q*s2*x3*y3*z2 - q*s2*x3*y4*z1
          - q*s2*x4*y1*z3 + q*s2*x4*y3*z1 + m*p*x2*y3*z2
          + m*q*x2*y3*z4 - m*q*x4*y1*z4 + m*q*x4*y3*z2
          + n*p*x2*y4*z2 + n*q*x2*y4*z4 - n*q*x4*y2*z4
          + n*q*x4*y4*z2)
    w3 = (s2*t2*x1*y1*z3 - s2*t2*x1*y3*z1 + s2*t2*x3*y1*z1
          + m*t2*x1*y2*z3 - m*t2*x1*y4*z1 + m*t2*x3*y2*z1
          + n*t2*x1*y2*z4 - n*t2*x1*y4*z2 - n*t2*x2*y1*z4
          + n*t2*x2*y2*z3 + n*t2*x2*y3*z2 - n*t2*x2*y4*z1
          + n*t2*x3*y2*z2 - n*t2*x4*y1*z2 + n*t2*x4*y2*z1
          + p*s2*x3*y1*z3 + q*s2*x3*y3*z3 + m*p*x3*y2*z3
          + m*q*x3*y4*z3 + n*p*x3*y2*z4 - n*p*x4*y1*z4
          + n*p*x4*y2*z3 + n*q*x3*y4*z4 - n*q*x4*y3*z4
          + n*q*x4*y4*z3)
    w4 = (s2*t2*x1*y1*z4 - s2*t2*x1*y2*z3 - s2*t2*x1*y3*z2
          + s2*t2*x1*y4*z1 + s2*t2*x2*y1*z3 - s2*t2*x2*y3*z1
          + s2*t2*x3*y1*z2 - s2*t2*x3*y2*z1 + s2*t2*x4*y1*z1
          + m*t2*x2*y1*z4 - m*t2*x2*y3*z2 + m*t2*x4*y1*z2
          + n*t2*x2*y2*z4 - n*t2*x2*y4*z2 + n*t2*x4*y2*z2
          + p*s2*x3*y1*z4 - p*s2*x3*y2*z3 + p*s2*x4*y1*z3
          + q*s2*x3*y3*z4 - q*s2*x3*y4*z3 + q*s2*x4*y3*z3
          + m*p*x4*y1*z4 + m*q*x4*y3*z4 + n*p*x4*y2*z4
          + n*q*x4*y4*z4)
    return [w1, w2, w3, w4]


def _threefold_quadratic_map(v):
    a, b, c, x1, x2, y1, y2, z1, z2 = (v[name] for name in (
        "a", "b", "c", "x1", "x2", "y1", "y2", "z1", "z2"))
    return [a*x1*y1*z1 + b*x1*y2*z1 + c*x1*y2*z2 - c*x2*y1*z2 + c*x2*y2*z1,
            a*x1*y1*z2 - a*x1*y2*z1 + a*x2*y1*z1 + b*x2*y1*z2 + c*x2*y2*z2]


# name: (parameters, h, arity, outputs written in x.., y.. [, z..])
_LAWS = {
    "quad2x2": (("p", "q"), 2, 2, _quad_map),
    "cubic3x3": (("l1", "l2", "l3", "l4", "l5"), 3, 2, _cubic_map),
    "quartic4x4": (("m", "n", "p", "q"), 4, 2, _quartic_map),
    "sextic6x6": (("l1", "l2", "l3", "l4", "l5", "p", "q"), 6, 2,
                  _sextic_map),
    "sextic_circulant": (("q",), 6, 2, _circulant_map),
    "sextic_uv": (("q",), 6, 2, _uv_map),
    "octic8x8": (("m", "n", "p", "q", "r", "s"), 8, 2, _octic_map),
    "threefold_quadratic": (("a", "b", "c"), 2, 3, _threefold_quadratic_map),
    "threefold4x4": (("m", "n", "p", "q", "s", "t"), 4, 3, _threefold4x4_map),
}
LAW_FAMILIES = tuple(_LAWS)


@lru_cache(maxsize=None)
def law(name: str) -> MultilinearMap:
    """The paper's printed law of a family, symbolic."""
    return _map_from(*_LAWS[name])


# -- printed expansions ----------------------------------------------------------


def _cubic_printed_form() -> Polynomial:
    v = _vars(("l1", "l2", "l3", "l4", "l5", "x1", "x2", "x3"))
    l1, l2, l3, l4, l5 = v["l1"], v["l2"], v["l3"], v["l4"], v["l5"]
    x1, x2, x3 = v["x1"], v["x2"], v["x3"]
    return (x1**3 + (l1 + l3)*x1**2*x2 + (l2 + l5)*x1**2*x3
            + l3*(2*l1 - 2*l2 - l3 + l5)*x1*x2**2
            + (l1*l5 + 2*l2*l3 - 3*l3*l4)*x1*x2*x3
            + (l1*l4 - l2**2 + 2*l2*l5 - 2*l3*l4)*x1*x3**2
            + l3**2*(l1 - 2*l2 - l3 + l4 + l5)*x2**3
            - l3*(2*l1*l4 - l1*l5 - 2*l2**2 - l2*l3 + 3*l2*l5
                  - l3*l4 + l3*l5 - l5**2)*x2**2*x3
            + (l1**2*l4 - l1*l2**2 + l1*l2*l5 - 3*l1*l3*l4 + l2**2*l3
               + l2*l3*l4 + 2*l3**2*l4 - 2*l3*l4*l5)*x2*x3**2
            + (l1*l2*l4 - l2**3 + l2**2*l5 - 2*l2*l3*l4 + l3*l4**2)*x3**3)


def _threefold4x4_printed_form() -> Polynomial:
    v = _vars(("m", "n", "p", "q", "s", "t", "x1", "x2", "x3", "x4"))
    m, n, p, q, s, tt = v["m"], v["n"], v["p"], v["q"], v["s"], v["t"]
    x1, x2, x3, x4 = v["x1"], v["x2"], v["x3"], v["x4"]
    s2, t2 = s**2, tt**2
    s4, t4 = s**4, tt**4
    return (s4*t4*x1**4 + 2*s2*t4*m*x1**3*x2 + 2*s4*t2*p*x1**3*x3
            + s2*t2*m*p*x1**3*x4 + (m**2 + 2*s2*n)*t4*x1**2*x2**2
            + 3*s2*t2*m*p*x1**2*x2*x3
            + (m**2 + 2*s2*n)*t2*p*x1**2*x2*x4
            + (p**2 + 2*t2*q)*s4*x1**2*x3**2
            + (p**2 + 2*t2*q)*s2*m*x1**2*x3*x4
            + (s2*n*p**2 + t2*m**2*q - 2*s2*t2*n*q)*x1**2*x4**2
            + 2*t4*m*n*x1*x2**3 + (m**2 + 2*s2*n)*t2*p*x1*x2**2*x3
            + 3*t2*m*n*p*x1*x2**2*x4
            + (p**2 + 2*t2*q)*s2*m*x1*x2*x3**2
            + (m**2*p**2 + 8*s2*t2*n*q)*x1*x2*x3*x4
            + (p**2 + 2*t2*q)*m*n*x1*x2*x4**2 + 2*s4*p*q*x1*x3**3
            + 3*s2*m*p*q*x1*x3**2*x4
            + (m**2 + 2*s2*n)*p*q*x1*x3*x4**2 + m*n*p*q*x1*x4**3
            + t4*n**2*x2**4 + t2*m*n*p*x2**3*x3
            + 2*t2*n**2*p*x2**3*x4
            + (s2*n*p**2 + t2*m**2*q - 2*s2*t2*n*q)*x2**2*x3**2
            + (p**2 + 2*t2*q)*m*n*x2**2*x3*x4
            + (p**2 + 2*t2*q)*n**2*x2**2*x4**2 + s2*m*p*q*x2*x3**3
            + (m**2 + 2*s2*n)*p*q*x2*x3**2*x4
            + 3*m*n*p*q*x2*x3*x4**2 + 2*n**2*p*q*x2*x4**3
            + s4*q**2*x3**4 + 2*s2*m*q**2*x3**3*x4
            + (m**2 + 2*s2*n)*q**2*x3**2*x4**2 + 2*m*n*q**2*x3*x4**3
            + n**2*q**2*x4**4)


_PRINTED_FORMS = {
    "cubic3x3": _cubic_printed_form,
    "quartic4x4": lambda: catalog.family("quartic4x4").printed_form,
    "threefold4x4": _threefold4x4_printed_form,
}
PRINTED_FAMILIES = tuple(_PRINTED_FORMS)


@lru_cache(maxsize=None)
def printed_form(name: str) -> Polynomial:
    """The paper's printed expansion of a family's form, symbolic."""
    return _PRINTED_FORMS[name]()


def threefold_quadratic_form() -> Polynomial:
    """Q = a*x1^2 + b*x1*x2 + c*x2^2, the form psi composes."""
    v = _vars(("a", "b", "c", "x1", "x2"))
    a, b, c, x1, x2 = v["a"], v["b"], v["c"], v["x1"], v["x2"]
    return a*x1**2 + b*x1*x2 + c*x2**2


# -- factorizations and degenerate values ----------------------------------------


@lru_cache(maxsize=None)
def circulant_factors() -> Tuple[Polynomial, Polynomial]:
    """f1 * f2 = sextic_circulant's form: a quadratic and a quartic factor,
    symbolic in q."""
    v = _vars(("q", "x1", "x2", "x3", "x4", "x5", "x6"))
    q = v["q"]
    x1, x2, x3, x4, x5, x6 = (v["x1"], v["x2"], v["x3"],
                              v["x4"], v["x5"], v["x6"])
    f1 = (x1 + x2 + x3)**2 - q*(x4 + x5 + x6)**2
    f2 = (x1**4 - (2*x2 + 2*x3)*x1**3
          + (3*x2**2 + 3*x3**2 - 2*q*x4**2 + 2*q*x4*x5 + 2*q*x4*x6
             + q*x5**2 - 4*q*x5*x6 + q*x6**2)*x1**2
          + (-2*x2**3 + 2*q*x2*x4**2 - 8*q*x2*x4*x5 + 4*q*x2*x4*x6
             + 2*q*x2*x5**2 + 4*q*x2*x5*x6 - 4*q*x2*x6**2 - 2*x3**3
             + 2*q*x3*x4**2 + 4*q*x3*x4*x5 - 8*q*x3*x4*x6 - 4*q*x3*x5**2
             + 4*q*x3*x5*x6 + 2*q*x3*x6**2)*x1
          + x2**4 - 2*x2**3*x3 + 3*x2**2*x3**2 + q*x2**2*x4**2
          + 2*q*x2**2*x4*x5 - 4*q*x2**2*x4*x6 - 2*q*x2**2*x5**2
          + 2*q*x2**2*x5*x6 + q*x2**2*x6**2 - 2*x2*x3**3
          - 4*q*x2*x3*x4**2 + 4*q*x2*x3*x4*x5 + 4*q*x2*x3*x4*x6
          + 2*q*x2*x3*x5**2 - 8*q*x2*x3*x5*x6 + 2*q*x2*x3*x6**2
          + x3**4 + q*x3**2*x4**2 - 4*q*x3**2*x4*x5 + 2*q*x3**2*x4*x6
          + q*x3**2*x5**2 + 2*q*x3**2*x5*x6 - 2*q*x3**2*x6**2
          + q**2*x4**4 - 2*q**2*x4**3*x5 - 2*q**2*x4**3*x6
          + 3*q**2*x4**2*x5**2 + 3*q**2*x4**2*x6**2 - 2*q**2*x4*x5**3
          - 2*q**2*x4*x6**3 + q**2*x5**4 - 2*q**2*x5**3*x6
          + 3*q**2*x5**2*x6**2 - 2*q**2*x5*x6**3 + q**2*x6**4)
    return f1, f2


@lru_cache(maxsize=None)
def uv_factors() -> Tuple[Polynomial, Polynomial]:
    """f1 = u1^2 - q*u2^2 and the quartic f2, each composed by sextic_uv's
    law; symbolic in q."""
    v = _vars(("q", "u1", "u2", "u3", "u4", "u5", "u6"))
    q = v["q"]
    u1, u2, u3, u4, u5, u6 = (v["u1"], v["u2"], v["u3"],
                              v["u4"], v["u5"], v["u6"])
    f1 = u1**2 - q*u2**2
    f2 = (u1**4 - (6*u3 + 6*u6)*u1**3
          + (q*u2**2 - 6*q*u2*u5 + 15*u3**2 + 24*u3*u6
             - 3*q*u4**2 + 6*q*u4*u5 + 6*q*u5**2 + 15*u6**2)*u1**2
          + (-6*q*u2**2*u6 - 12*q*u2*u3*u4 + 12*q*u2*u3*u5
             + 12*q*u2*u4*u6 + 24*q*u2*u5*u6 - 18*u3**3 - 36*u3**2*u6
             + 18*q*u3*u4**2 - 18*q*u3*u5**2 - 36*u3*u6**2
             - 36*q*u4*u5*u6 - 18*q*u5**2*u6 - 18*u6**3)*u1
          + q**2*u2**4 - 6*q**2*u2**3*u4 - 6*q**2*u2**3*u5
          + 15*q**2*u2**2*u4**2 + 24*q**2*u2**2*u4*u5
          + 15*q**2*u2**2*u5**2 - 18*q**2*u2*u4**3
          - 36*q**2*u2*u4**2*u5 - 36*q**2*u2*u4*u5**2
          - 18*q**2*u2*u5**3 + 9*q**2*u4**4 + 18*q**2*u4**3*u5
          + 27*q**2*u4**2*u5**2 + 18*q**2*u4*u5**3 + 9*q**2*u5**4
          - 3*q*u2**2*u3**2 + 6*q*u2**2*u3*u6 + 6*q*u2**2*u6**2
          + 18*q*u2*u3**2*u4 - 36*q*u2*u3*u5*u6 - 18*q*u2*u4*u6**2
          - 18*q*u2*u5*u6**2 - 18*q*u3**2*u4**2 - 18*q*u3**2*u4*u5
          + 9*q*u3**2*u5**2 - 18*q*u3*u4**2*u6 + 36*q*u3*u4*u5*u6
          + 36*q*u3*u5**2*u6 + 9*q*u4**2*u6**2 + 36*q*u4*u5*u6**2
          + 9*q*u5**2*u6**2 + 9*u3**4 + 18*u3**3*u6 + 27*u3**2*u6**2
          + 18*u3*u6**3 + 9*u6**4)
    return f1, f2


# -- irreducibility at the golden values ------------------------------------


def golden_params() -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    """Each (family, values) a golden CLI argv passes as numeric --params,
    one value per parameter, in file order without repeats."""
    golden = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())
    arity = {e["name"]: len(e["params"]) for e in catalog.list_families()}
    found = {}
    for argv in golden:
        words = argv.split(" ")
        params = [w[len("--params="):] for w in words if w.startswith("--params=")]
        if "--family" not in words or not params:
            continue
        name = words[words.index("--family") + 1]
        try:
            values = tuple(map(int, params[0].split(",")))
        except ValueError:  # a usage error's argv: --params=symbolic
            continue
        if arity.get(name) == len(values):
            found[name, values] = None
    return tuple(found)


# Whether each family's form is irreducible over Q at each of the
# `golden_params`.  Each True is certified by the line `irreducibility_line`:
# if f = g * h, every restriction of f to a line factors too, so one
# restriction of full degree that is irreducible proves f irreducible.
# Each False is certified by the factors `golden_value_factors` gives.
IRREDUCIBLE = {
    ("quad2x2", (0, -2)): True,
    ("cubic3x3", (1, -1, 2, 1, -2)): False,
    ("cubic3x3", (0, 1, -3, 8, -3)): True,
    ("quartic4x4", (5, -23, 2, -7)): True,
    ("sextic6x6", (1, -1, 2, 1, -2, 1, -3)): False,
    ("sextic6x6", (1, -5, 3, -8, -7, 8, -6)): True,
    ("sextic_circulant", (3,)): False,
    ("sextic_uv", (3,)): False,
    ("octic8x8", (0, -5, 0, -3, 0, -14)): True,
    ("threefold_quadratic", (1, 0, -2)): True,
    ("threefold4x4", (-1, -4, 1, -1, 1, 1)): True,
    ("threefold4x4", (0, 1, 0, 2, 0, 0)): False,
    ("threefold8x8", (3, -1, 0, -3, 0, -14, 1)): True,
}


def irreducibility_line(h: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(a, b) of the line x = a*T + b through h coordinates, a = (1, 2,
    ..., h) and b = (1, 0, ..., 0), fixed: the restriction of every
    irreducible form above to it is irreducible, of full degree."""
    return tuple(range(1, h + 1)), (1,) + (0,) * (h - 1)


@lru_cache(maxsize=None)
def golden_value_factors(name: str, values: Tuple[int, ...]
                         ) -> Tuple[Tuple[Polynomial, int], ...]:
    """The factors, each with its multiplicity, whose product is the
    family's form at `values`, where IRREDUCIBLE says it is reducible.
    There cubic3x3's form is (x1 + 3x2 + x3)(x1 - 2x3)^2 and sextic6x6's
    is Q1 * Q2^2, so neither is the irreducible form of the paper's
    statements.  Transcribed from sympy's factor_list; Q1 = a^2 +
    ab - 3b^2 with a = x1 + 3x2 + x3 and b = x4 + 3x5 + x6, and Q2 = c^2 +
    cd - 3d^2 with c = x1 - 2x3 and d = x4 - 2x6.  sextic_circulant's and
    sextic_uv's forms are their two factors at every q, and threefold4x4's
    at its DEGENERATE_WITNESSES value is 4 * x4^4."""
    if IRREDUCIBLE.get((name, values)) is not False:
        raise KeyError((name, values))
    if name in ("sextic_circulant", "sextic_uv"):
        factors = circulant_factors() if name == "sextic_circulant" \
            else uv_factors()
        return tuple((f.specialize({"q": values[0]}), 1) for f in factors)
    if name == "threefold4x4":
        table = VarTable(("x1", "x2", "x3", "x4"))
        return (table.const(4), 1), (table.var("x4"), 4)
    if name == "cubic3x3":
        v = _vars(("x1", "x2", "x3"))
        x1, x2, x3 = v["x1"], v["x2"], v["x3"]
        return (x1 + 3*x2 + x3, 1), (x1 - 2*x3, 2)
    v = _vars(("x1", "x2", "x3", "x4", "x5", "x6"))
    x1, x2, x3, x4, x5, x6 = (v["x1"], v["x2"], v["x3"],
                              v["x4"], v["x5"], v["x6"])
    q1 = (x1**2 + 6*x1*x2 + 2*x1*x3 + x1*x4 + 3*x1*x5 + x1*x6 + 9*x2**2
          + 6*x2*x3 + 3*x2*x4 + 9*x2*x5 + 3*x2*x6 + x3**2 + x3*x4
          + 3*x3*x5 + x3*x6 - 3*x4**2 - 18*x4*x5 - 6*x4*x6 - 27*x5**2
          - 18*x5*x6 - 3*x6**2)
    q2 = (x1**2 - 4*x1*x3 + x1*x4 - 2*x1*x6 + 4*x3**2 - 2*x3*x4
          + 4*x3*x6 - 3*x4**2 + 12*x4*x6 - 12*x6**2)
    return (q1, 1), (q2, 2)


# parameter values at which the form degenerates: -(x1^2 + x2^2), 4*x4^4
# and 16*x2^8
DEGENERATE_WITNESSES = {
    "threefold_quadratic": (-1, 0, -1),
    "threefold4x4": (0, 1, 0, 2, 0, 0),
    "threefold8x8": (0, 2, 0, 0, 0, 0, 0),
}


# -- the quartic's inverse -----------------------------------------------------


def quartic_inverse_forms() -> List[Polynomial]:
    """Closed-form inverse of the quartic family's group law: the y with
    map(x, y) = (1,0,0,0), as cubic polynomials in x (valid when f(x)=1).
    Symbolic in m, n, p, q and x1..x4."""
    v = _vars(("m", "n", "p", "q", "x1", "x2", "x3", "x4"))
    m, n, p, q = v["m"], v["n"], v["p"], v["q"]
    x1, x2, x3, x4 = v["x1"], v["x2"], v["x3"], v["x4"]
    y1 = (x1**3 + 2*m*x1**2*x2 + 2*p*x1**2*x3 + m*p*x1**2*x4
          + (m**2 + n)*x1*x2**2
          + 3*m*p*x1*x2*x3 + p*(m**2 + 2*n)*x1*x2*x4 + (p**2 + q)*x1*x3**2
          + m*(p**2 + 2*q)*x1*x3*x4 + (m**2*q + n*p**2 - n*q)*x1*x4**2
          + m*n*x2**3
          + m**2*p*x2**2*x3 + 2*m*n*p*x2**2*x4 + m*p**2*x2*x3**2
          + (m**2*p**2 + 2*n*q)*x2*x3*x4 + m*n*(p**2 + q)*x2*x4**2
          + p*q*x3**3
          + 2*m*p*q*x3**2*x4 + p*q*(m**2 + n)*x3*x4**2 + m*n*p*q*x4**3)
    y2 = (-x1**2*x2 - m*x1*x2**2 - 2*p*x1*x2*x3 - m*p*x1*x2*x4
          - 2*q*x1*x3*x4
          - m*q*x1*x4**2 - n*x2**3 - m*p*x2**2*x3 - 2*n*p*x2**2*x4
          + (-p**2 + q)*x2*x3**2 - m*p**2*x2*x3*x4 - n*(p**2 + q)*x2*x4**2
          - p*q*x3**2*x4 - m*p*q*x3*x4**2 - n*p*q*x4**3)
    y3 = (-x1**2*x3 - 2*m*x1*x2*x3 - 2*n*x1*x2*x4 - p*x1*x3**2
          - m*p*x1*x3*x4
          - n*p*x1*x4**2 + (-m**2 + n)*x2**2*x3 - m*n*x2**2*x4
          - m*p*x2*x3**2
          - m**2*p*x2*x3*x4 - m*n*p*x2*x4**2 - q*x3**3 - 2*m*q*x3**2*x4
          - q*(m**2 + n)*x3*x4**2 - m*n*q*x4**3)
    y4 = (-x1**2*x4 + 2*x1*x2*x3 + m*x2**2*x3 + n*x2**2*x4 + p*x2*x3**2
          + m*p*x2*x3*x4 + n*p*x2*x4**2 + q*x3**2*x4 + m*q*x3*x4**2
          + n*q*x4**3)
    return [y1, y2, y3, y4]
