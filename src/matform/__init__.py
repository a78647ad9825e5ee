"""Exact-arithmetic toolkit for matrix-composed forms of degree 2-8 and the
integer-solution sequences of the associated equations f(x1,...,xn) = 1.

Modules:
    polyring  -- sparse multivariate integer polynomials and determinants
    linstruct -- matrices linear in coordinates; closure, which returns the
                 bilinear/trilinear composition law (MultilinearMap) the
                 matrices induce; block lifting
    compose   -- identity verification; the group law on solutions
    catalog   -- the built-in form families
    dioph     -- solution sequences and the f = target box search
    cli       -- command-line interface
"""

from .polyring import Polynomial, PolyMatrix, VarTable
from .linstruct import ExtractionRecipe, LinearStructure, MultilinearMap
from .compose import identity_element, invert, verify_identity
from .catalog import FormFamily, family, list_families

__version__ = "0.1.0"

__all__ = [
    "Polynomial", "PolyMatrix", "VarTable",
    "ExtractionRecipe", "LinearStructure",
    "MultilinearMap", "identity_element", "invert", "verify_identity",
    "FormFamily", "family", "list_families",
    "__version__",
]
