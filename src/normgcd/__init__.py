"""Extended gcd with a normalized Bezout coordinate.

The solvers return the solution of u*a + v*b = gcd(a, b) whose v lies in
[0, a-1], descending by subtractions and halvings instead of Euclidean
divisions.

``import normgcd`` loads only the solver (``core``) and republishes its
names.  The harness lives in its own modules and is imported from there:
the three classic gcd algorithms in ``normgcd.baselines``, the seeded
benchmark with CSV/JSON reporting in ``normgcd.bench``, and the
brute-force verification sweeps in ``normgcd.oracle``.
"""

from .core import *
from .core import __all__

__version__ = "0.1.0"
