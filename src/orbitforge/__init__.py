"""orbitforge: exact and certified computations for monic polynomial
dynamics over Q.

Subpackages map to the computational layers: exact arithmetic (exact),
complex balls (ball), dynamical systems (dynamics), Boettcher series
(boettcher), Green functions (green), p-adic analysis (padic), heights and
orbit enumeration (orbits), plane curves against orbits (curves), and
lattice-coset combinatorics (combinat).
"""

__version__ = "0.1.0"
