"""Exact vertex-adjacency oracles and complementary-pair search for
polytopes in standard form {x : Ax = b, x >= 0}."""

from . import adjacency, core, fileio, generators, joinmap, pairgraph
from .adjacency import *
from .core import *
from .fileio import *
from .generators import *
from .joinmap import *
from .pairgraph import *

__version__ = "0.1.0"

__all__ = sorted(adjacency.__all__ + core.__all__ + fileio.__all__ + generators.__all__
                 + joinmap.__all__ + pairgraph.__all__)
