"""Worksharing protocols for the CEP (the substrate from reference [1]).

* :class:`~repro.protocols.fifo.FifoProtocol` — the optimal family
  (closed form);
* :class:`~repro.protocols.lifo.LifoProtocol` — the classic suboptimal
  baseline (closed form);
* :class:`~repro.protocols.general.GeneralProtocol` — any (Σ, Φ) pair,
  solved as a linear program;
* :mod:`~repro.protocols.timeline` — explicit action/time diagrams
  (Figs. 1–2);
* :mod:`~repro.protocols.feasibility` — invariant checking.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Protocol",
    "WorkAllocation",
    "validate_order",
    "FifoProtocol",
    "fifo_allocation",
    "fifo_saturation_index",
    "fifo_work_fractions",
    "LifoProtocol",
    "lifo_allocation",
    "GeneralProtocol",
    "lp_allocation",
    "lp_allocation_many",
    "Interval",
    "Timeline",
    "build_timeline",
    "FeasibilityReport",
    "Violation",
    "check_allocation",
    "check_timeline",
    "check_protocol_conformance",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.protocols.base": ("Protocol", "WorkAllocation", "validate_order"),
    "repro.protocols.conformance": ("check_protocol_conformance",),
    "repro.protocols.feasibility": ("FeasibilityReport", "Violation",
                                    "check_allocation", "check_timeline"),
    "repro.protocols.fifo": ("FifoProtocol", "fifo_allocation",
                             "fifo_saturation_index", "fifo_work_fractions"),
    "repro.protocols.general": ("GeneralProtocol", "lp_allocation",
                                "lp_allocation_many"),
    "repro.protocols.lifo": ("LifoProtocol", "lifo_allocation"),
    "repro.protocols.timeline": ("Interval", "Timeline", "build_timeline"),
})
