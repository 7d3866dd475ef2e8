"""LRU caches for the rigorous solver's propagator operators.

Building a :class:`~repro.litho.dct.LateralDiffusionPropagator` costs
two dense per-axis operators ``C^T diag(exp(dt D lam)) C``; building a
``_ZPropagator`` costs an ``expm`` and a linear solve.  Every
:class:`~repro.litho.peb.RigorousPEBSolver` with the same (grid,
physics, dt) builds the *same* operators, and benches,
convergence sweeps and pool workers construct solvers in a loop — so
the operators are memoized here on their full physical key.

Both propagator classes are immutable after construction (``apply`` is
pure), so sharing instances across solvers is safe.  The keys are
hashable because :class:`~repro.config.GridConfig` is a frozen
dataclass.

Imports of the litho modules happen inside the builders to keep
``repro.runtime`` import-light and cycle-free (:mod:`repro.litho.peb`
itself imports this module).
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "cached_lateral_propagator", "cached_z_propagator",
    "clear_propagator_caches", "propagator_cache_info",
]

#: distinct (grid, physics, dt) operator keys kept alive; a full
#: Table II run touches ~8 (2 species x {lateral, z} x a couple of dt's)
PROPAGATOR_CACHE_SIZE = 64


@lru_cache(maxsize=PROPAGATOR_CACHE_SIZE)
def cached_lateral_propagator(grid, diffusivity: float, dt: float):
    """Shared :class:`LateralDiffusionPropagator` for (grid, D, dt)."""
    from repro.litho.dct import LateralDiffusionPropagator

    return LateralDiffusionPropagator(grid, diffusivity, dt)


@lru_cache(maxsize=PROPAGATOR_CACHE_SIZE)
def cached_z_propagator(grid, diffusivity: float, transfer: float,
                        saturation: float, dt: float):
    """Shared ``_ZPropagator`` for (grid, D, h, u_sat, dt)."""
    from repro.litho.peb import _ZPropagator

    return _ZPropagator(grid, diffusivity, transfer, saturation, dt)


def clear_propagator_caches() -> None:
    """Drop all cached operators (tests, memory pressure)."""
    cached_lateral_propagator.cache_clear()
    cached_z_propagator.cache_clear()


def propagator_cache_info() -> dict:
    """Hit/miss counters for both operator caches."""
    return {
        "lateral": cached_lateral_propagator.cache_info()._asdict(),
        "z": cached_z_propagator.cache_info()._asdict(),
    }
