"""Desk-scale machinery for homotopy direct limits of ascending unions.

Modules:

- ``geometry``        exact rational points, affine simplices
- ``simplicial``      finite geometric complexes, barycentric subdivision,
                      prism triangulations
- ``convexity``       bounded-term convex-combination membership oracles
- ``filling``         the cone-based boundary-filling operator
- ``regions``         predicate algebra for open subsets of R^D
- ``filtered_spaces`` nested coordinate filtrations, well-filled charts,
                      chart surgery, compact absorption
- ``direct_limits``   finite direct systems, witness-based colimits,
                      universal maps
- ``plmaps``          piecewise-affine maps and homotopy evaluators
- ``approximation``   the simultaneous/individual approximation engine
- ``invariants``      winding/component oracles and the end-to-end
                      experiments
- ``cli``             reproducible command-line front end

The three hot integer loops (exact matrix-vector products, pairwise squared
distances, winding crossings) live in the pure-Python ``ascolim._kernels``;
``KERNEL_BACKEND`` names that backend in version strings and benchmark
records.
"""

KERNEL_BACKEND = "pure"

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]
