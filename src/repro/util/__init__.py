"""Shared utilities: array validation, number formatting, ASCII rendering."""

from repro._lazy import lazy_exports

__all__ = [
    "as_float_vector",
    "is_nonincreasing",
    "is_nondecreasing",
    "validate_positive_vector",
    "format_quantity",
    "format_ratio",
    "format_seconds",
    "significant",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.util.arrays": ("as_float_vector", "is_nonincreasing",
                          "is_nondecreasing", "validate_positive_vector"),
    "repro.util.format": ("format_quantity", "format_ratio",
                          "format_seconds", "significant"),
})
