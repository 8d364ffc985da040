"""Small shared utilities: RNG normalisation, validation, tables.

These helpers are deliberately dependency-free (numpy only) and are used
across every subsystem, so they live at the bottom of the import graph.
"""

from .rng import as_rng, spawn_rng
from .validate import (
    check_index_array,
    check_positive,
    require,
)
from .tables import format_table, format_boxplot_rows

__all__ = [
    "as_rng",
    "spawn_rng",
    "check_index_array",
    "check_positive",
    "require",
    "format_table",
    "format_boxplot_rows",
]
