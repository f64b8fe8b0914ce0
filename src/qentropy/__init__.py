"""Deformed logarithms, generalized entropies, divergences, and checked bounds.

The package is organized around one parameter, the entropic index q:

* ``qmath``       -- q-deformed log/exp pair
* ``dist``        -- validated probability vectors; a refinement is ProbDist + Partition
* ``quasilinear`` -- generator means and the entropies they induce
* ``entropy``     -- power-sum entropy family on one distribution
* ``divergence``  -- relative entropies and convex-generator divergences
* ``bounds``      -- two-sided inequality chains as BoundReport values
* ``joint``       -- multi-axis distributions, chain rules, subset bounds
* ``verify``      -- seeded randomized checking of every registered claim

Each module's ``__all__`` declares its public names; the package re-exports
those of the modules above and of ``errors``.
"""

from .bounds import *
from .dist import *
from .divergence import *
from .entropy import *
from .errors import *
from .joint import *
from .qmath import *
from .quasilinear import *
from .verify import *

__version__ = "0.1.0"
