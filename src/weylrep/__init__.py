"""Exact combinatorics of finite and extended-affine Weyl groups.

Subpackages cover: root systems (``rootsys``), Weyl group elements and
sign-flip sets (``weyl``), the two-torsion extension carrying canonical
torus-normalizer representatives (``tits``), alcove-stabilizer data
(``affine``), Chevalley structure constants and conjugation scalars
(``chevalley``), and residue-field solvability of the character-fixing
system (``fixer``).  ``cli`` orchestrates verification sweeps.
"""

from .rootsys import CartanDatum, RootSystem, cartan_datum, root_system

__all__ = [
    "CartanDatum",
    "RootSystem",
    "cartan_datum",
    "root_system",
]
