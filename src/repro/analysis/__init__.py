"""Analysis helpers: table rendering and the max-cancel upper bound."""

from .tables import format_cell, format_table, improvement
from .upper_bound import max_cancel_upper_bound

__all__ = [
    "format_cell",
    "format_table",
    "improvement",
    "max_cancel_upper_bound",
]
