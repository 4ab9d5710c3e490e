"""Sequential sharing of genuine tripartite nonlocality.

Exact density-matrix simulation of an Alice/Bob/many-Charlies protocol on
generalized GHZ states, evaluation of the five-correlator inequality per
round, and independent certification of genuine nonsignaling nonlocality by
linear-programming membership in the hybrid local-nonlocal polytope.
"""

# perfbench/run.py times and reads nsshare.hybrid_vertices(); other names come from their modules
from .certifier import hybrid_vertices  # noqa: F401
