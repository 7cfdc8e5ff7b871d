"""Hardware resource and overhead models (Tables 3-4, Figure 15b)."""

from repro.resources.model import (
    FpgaResourceModel,
    TofinoResourceModel,
    probing_overhead,
    probing_overhead_curve,
)

__all__ = [
    "FpgaResourceModel",
    "TofinoResourceModel",
    "probing_overhead",
    "probing_overhead_curve",
]
