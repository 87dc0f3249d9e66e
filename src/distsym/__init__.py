"""distsym: exact character arithmetic on hyperoctahedral groups, Lusztig
symbol combinatorics, and the distinguished unipotent symbols of the
symplectic symmetric space, all over exact integer and rational numbers."""

from .partitions import (
    Partition,
    SkewShape,
    Tableau,
    hv_split,
    lr_tab_counts,
    strip_sign_sum,
    tab_sign_sum,
)
from .symbols import (
    SpecialSymbol,
    Symbol,
    cuspidal_symbol,
    from_bipartition,
    is_cuspidal,
    is_special,
    reduce_symbol,
    to_bipartition,
)
from .wchar import (
    Bipartition,
    ClassFunction,
    bipartitions,
    centralizer_order,
    character_table,
    decompose,
    induction_product,
    inner_product,
    sym_character,
    w_irreducible,
)
from .xi import kappa, nu, xi, xi_all
from .cells import (
    Arrangement,
    Cell,
    distinguished,
    even_strip_specials,
    family,
    fourier_constituents,
    is_admissible,
    make_cell,
    standard_arrangement,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "Bipartition",
    "Cell",
    "ClassFunction",
    "Partition",
    "SkewShape",
    "SpecialSymbol",
    "Symbol",
    "Tableau",
    "bipartitions",
    "centralizer_order",
    "character_table",
    "cuspidal_symbol",
    "decompose",
    "distinguished",
    "even_strip_specials",
    "family",
    "fourier_constituents",
    "from_bipartition",
    "hv_split",
    "induction_product",
    "inner_product",
    "is_admissible",
    "is_cuspidal",
    "is_special",
    "kappa",
    "lr_tab_counts",
    "make_cell",
    "nu",
    "reduce_symbol",
    "standard_arrangement",
    "strip_sign_sum",
    "sym_character",
    "tab_sign_sum",
    "to_bipartition",
    "w_irreducible",
    "xi",
    "xi_all",
]
