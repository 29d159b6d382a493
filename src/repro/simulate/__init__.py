"""Simulation substrate: virtual time, hardware profiles, and cost ledgers.

The channel stack that once lived here is :mod:`repro.transport`.
"""

from .. import _lazy

__all__ = [
    "ACCOUNTS",
    "ClockWindow",
    "CostLedger",
    "GaussianNoise",
    "HardwareProfile",
    "HypervisorNoise",
    "LOADING",
    "PLATFORMS",
    "PREFILTERING",
    "QUERY",
    "VirtualClock",
    "synthesize_observations",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".clock": ("ClockWindow", "VirtualClock"),
    ".hardware": (
        "GaussianNoise", "HardwareProfile", "HypervisorNoise", "PLATFORMS",
        "synthesize_observations"),
    ".runtime": ("ACCOUNTS", "LOADING", "PREFILTERING", "QUERY", "CostLedger"),
})
