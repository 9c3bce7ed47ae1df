"""Exact machinery for the small-amplitude limit.

The flow is irrotational and unidirectional, as the paper assumes: the
surface displacement obeys eta_tt - eta_xx = 0 as a right-mover,
eta(x, t) = f(x - t).  The flow follows from the surface alone: u = eta + c0
at every depth, v = -z * eta_x and p = eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, spectral_shift
from .scaling import VariableBundle

__all__ = ["SurfaceProfile", "evolve_dalembert", "reconstruct_irrotational"]


@dataclass(frozen=True)
class SurfaceProfile:
    """Right-moving surface displacement f; c0 is the constant part of u."""

    f: Field
    c0: float = 0.0


def evolve_dalembert(prof: SurfaceProfile, t: float) -> Field:
    """Surface displacement at time t: f(x - t).

    The shift is spectral, hence exact for band-limited profiles, with
    periodic wrap-around.
    """
    return spectral_shift(prof.f, t)


def reconstruct_irrotational(
    prof: SurfaceProfile, t: float, dt: float, z
) -> VariableBundle:
    """The irrotational limit flow over the snapshot triple (t-dt, t, t+dt),
    at the depths ``z`` in [0, 1]: the delta-removed bundle that
    :func:`~wavelab.scaling.audit_limit_system` reads.

    eta has shape (3, n) and u = eta + c0 shape (3, nz, n); v = -z * eta_x
    and p = eta, at time t, have shape (nz, n).  v is linear in z, so the
    bottom condition v(z=0) = 0 and the surface condition v(z=1) = eta_t
    hold by construction.  The audit checks the snapshot triple.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or not np.all((0.0 <= z) & (z <= 1.0)):
        raise ValueError("depths z must be a 1-D sampling of [0, 1]")
    grid = prof.f.grid
    times = np.array([t - dt, t, t + dt])
    # the three surface levels: an extreme amplitude or time overflows here
    eta = np.array([evolve_dalembert(prof, tk).values for tk in times])
    # the flow at every depth: an nz too large to allocate fails here
    return VariableBundle(
        frame="delta_removed",
        x=grid.x,
        z=z,
        t=times,
        u=np.broadcast_to(eta[:, None, :] + prof.c0, (3, z.size, grid.n)).copy(),
        v=-z[:, None] * grid.deriv_values(eta[1])[None, :],
        p=np.broadcast_to(eta[1], (z.size, grid.n)).copy(),
        eta=eta,
    )
