"""Shared utilities: deterministic RNG handling.

``Timer`` / ``time_call`` live in :mod:`repro.obs.timing`; they are
re-exported here for compatibility.
"""

from repro.obs.timing import Timer, time_call
from repro.utils.rng import RngMixin, new_rng, spawn_rngs

__all__ = ["RngMixin", "new_rng", "spawn_rngs", "Timer", "time_call"]
