"""Simulation substrate: virtual time, hardware profiles, and cost ledgers.

The channel stack that once lived here is :mod:`repro.transport`.
"""

from .clock import ClockWindow, VirtualClock
from .hardware import (
    GaussianNoise,
    HardwareProfile,
    HypervisorNoise,
    PLATFORMS,
    synthesize_observations,
)
from .runtime import ACCOUNTS, LOADING, PREFILTERING, QUERY, CostLedger

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
