"""distsym: exact character arithmetic on hyperoctahedral groups, Lusztig
symbol combinatorics, and the distinguished unipotent symbols of the
symplectic symmetric space, all over exact integer and rational numbers.

The package is its modules: import each name from the module that defines
it (``from distsym.cells import distinguished``, ``from distsym.xi import
xi_all``); nothing is re-exported here."""

__version__ = "0.1.0"
