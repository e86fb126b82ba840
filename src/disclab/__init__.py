"""Numerical laboratory for Calabi invariants of Hamiltonian paths on the disc.

Modules
-------
grids       grid-sampled fields, disc quadrature, the sphere model
chart       the flat diagonal chart on the product plane
fields      time-dependent Hamiltonians and the built-in bump families
flows       RK4 Hamiltonian flows, grid maps, Hofer/C0 metrics
calabi      the Calabi invariant by both definitions, path algebra
alexander   rescaling isotopies, s-Hamiltonians, the shrinking sequence
graphical   midpoint-map graphicality, one-form recovery, star-shape bound
phase       lifted actions, generating and phase functions, HJ residuals
experiments catalog E1-E9 and report emission
cli         the `disclab` command
"""

from .kernels import BACKEND as kernel_backend

__all__ = ["kernel_backend"]
__version__ = "0.1.0"
