"""Change-of-variables pipeline for the shallow-water problem.

Three invertible stages, each acting on a tagged bundle of sampled variables:

    physical --to_nondim--> nondim --scale_small_amplitude--> scaled
            --remove_delta--> delta_removed

``audit_limit_system`` then measures how well fields in the final frame solve
the small-amplitude limit system (hydrostatic column, linearized surface
conditions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid1D, _require_positive

__all__ = [
    "FRAMES",
    "FrameError",
    "ScalingParams",
    "VariableBundle",
    "to_nondim",
    "from_nondim",
    "scale_small_amplitude",
    "unscale_small_amplitude",
    "remove_delta",
    "restore_delta",
    "audit_limit_system",
]

FRAMES = ("physical", "nondim", "scaled", "delta_removed")


class FrameError(ValueError):
    """A transform was applied to a bundle in the wrong frame."""


@dataclass(frozen=True)
class ScalingParams:
    """Dimensional constants of the water-wave problem.

    h0: undisturbed depth [m], lam: wavelength scale [m], a: amplitude scale
    [m], g: gravity [m/s^2], rho: density [kg/m^3], p0: atmospheric pressure
    [Pa].  The amplitude parameter eps = a/h0 and shallowness parameter
    delta = h0/lam are derived on demand.
    """

    h0: float
    lam: float
    a: float
    g: float = 9.81
    rho: float = 1000.0
    p0: float = 101325.0

    def __post_init__(self) -> None:
        _require_positive(**vars(self))

    @property
    def eps(self) -> float:
        return self.a / self.h0

    @property
    def delta(self) -> float:
        return self.h0 / self.lam

    @property
    def c_horizontal(self) -> float:
        """Horizontal velocity scale sqrt(g*h0)."""
        return math.sqrt(self.g * self.h0)


@dataclass(frozen=True, eq=False)
class VariableBundle:
    """Sampled flow variables tagged with their current frame.

    Members may be scalars or arrays of mutually broadcastable shapes; the
    transforms are diagonal rescalings and preserve shapes.
    """

    frame: str
    x: np.ndarray
    z: np.ndarray
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    eta: np.ndarray

    def __post_init__(self) -> None:
        if self.frame not in FRAMES:
            raise FrameError(f"unknown frame {self.frame!r}, expected one of {FRAMES}")
        for name in ("x", "z", "t", "u", "v", "p", "eta"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"bundle member {name!r} has non-finite entries")
            object.__setattr__(self, name, value)


def _require_frame(bundle: VariableBundle, expected: str) -> None:
    if bundle.frame != expected:
        raise FrameError(
            f"transform expects a bundle in frame {expected!r}, got {bundle.frame!r}"
        )


def _align_column(z_vals: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a 1-D z sampling to broadcast against fields laid out
    (..., z, x).  Leaves already-compatible shapes alone."""
    z_vals = np.asarray(z_vals, dtype=float)
    if z_vals.ndim == 1 and ndim >= 2:
        return z_vals.reshape((1,) * (ndim - 2) + (z_vals.size, 1))
    return z_vals


def to_nondim(bundle: VariableBundle, params: ScalingParams) -> VariableBundle:
    """Strip physical units using the scales (h0, lam, a, sqrt(g*h0)).

    The non-dimensional pressure is measured relative to the hydrostatic
    column: p_nd = (p - p0 - rho*g*h0*(1 - z_nd)) / (rho*g*h0), so still water
    has p_nd = 0 at every depth.
    """
    _require_frame(bundle, "physical")
    c = params.c_horizontal
    z_nd = bundle.z / params.h0
    z_col = _align_column(z_nd, np.ndim(bundle.p))
    p_ref = params.rho * params.g * params.h0
    return VariableBundle(
        frame="nondim",
        x=bundle.x / params.lam,
        z=z_nd,
        t=bundle.t * c / params.lam,
        u=bundle.u / c,
        v=bundle.v * params.lam / (params.h0 * c),
        p=(bundle.p - params.p0 - p_ref * (1.0 - z_col)) / p_ref,
        eta=bundle.eta / params.a,
    )


def from_nondim(bundle: VariableBundle, params: ScalingParams) -> VariableBundle:
    """Exact inverse of :func:`to_nondim`."""
    _require_frame(bundle, "nondim")
    c = params.c_horizontal
    p_ref = params.rho * params.g * params.h0
    z_col = _align_column(bundle.z, np.ndim(bundle.p))
    return VariableBundle(
        frame="physical",
        x=bundle.x * params.lam,
        z=bundle.z * params.h0,
        t=bundle.t * params.lam / c,
        u=bundle.u * c,
        v=bundle.v * params.h0 * c / params.lam,
        p=params.p0 + p_ref * (1.0 - z_col) + p_ref * bundle.p,
        eta=bundle.eta * params.a,
    )


def scale_small_amplitude(bundle: VariableBundle, eps: float) -> VariableBundle:
    """Pull the amplitude parameter out of (u, v, p), which are O(eps)."""
    _require_frame(bundle, "nondim")
    _require_positive(eps=eps)
    return replace(
        bundle, frame="scaled", u=bundle.u / eps, v=bundle.v / eps, p=bundle.p / eps
    )


def unscale_small_amplitude(bundle: VariableBundle, eps: float) -> VariableBundle:
    """Exact inverse of :func:`scale_small_amplitude`."""
    _require_frame(bundle, "scaled")
    _require_positive(eps=eps)
    return replace(
        bundle, frame="nondim", u=bundle.u * eps, v=bundle.v * eps, p=bundle.p * eps
    )


def _delta_factor(eps: float, delta: float) -> float:
    _require_positive(eps=eps, delta=delta)
    # single ratio so that eps == delta**2 gives exactly 1.0
    return math.sqrt(eps / (delta * delta))


def remove_delta(bundle: VariableBundle, eps: float, delta: float) -> VariableBundle:
    """Eliminate the shallowness parameter: x, t shrink by delta/sqrt(eps),
    v grows by sqrt(eps)/delta.  When eps = delta^2 the map is the identity."""
    _require_frame(bundle, "scaled")
    r = _delta_factor(eps, delta)
    return replace(
        bundle, frame="delta_removed", x=bundle.x / r, t=bundle.t / r, v=bundle.v * r
    )


def restore_delta(bundle: VariableBundle, eps: float, delta: float) -> VariableBundle:
    """Exact inverse of :func:`remove_delta`."""
    _require_frame(bundle, "delta_removed")
    r = _delta_factor(eps, delta)
    return replace(
        bundle, frame="scaled", x=bundle.x * r, t=bundle.t * r, v=bundle.v / r
    )


def audit_limit_system(bundle: VariableBundle) -> dict:
    """Residuals of the small-amplitude limit system on a sampled column.

    Expects a delta-removed bundle holding:

    - ``x``: shape (n,), a uniform periodic grid (n even, >= 16);
    - ``z``: shape (nz,), increasing from 0 (bottom) to 1 (surface);
    - ``t``: shape (3,), a uniform snapshot triple (t-dt, t, t+dt);
    - ``u``: shape (3, nz, n) at the three times;
    - ``v``, ``p``: shape (nz, n) at the middle time t;
    - ``eta``: shape (3, n) at the three times.

    :func:`wavelab.linear_sw.reconstruct_irrotational` builds such a bundle
    for the one-way limit flow.

    Spatial derivatives are spectral in x and second-order finite differences
    in z; time derivatives are centered over the snapshot triple.  Returns a
    dict mapping equation names to max-abs residuals.
    """
    _require_frame(bundle, "delta_removed")

    x = np.atleast_1d(bundle.x)
    z = np.atleast_1d(bundle.z)
    t = np.atleast_1d(bundle.t)
    if x.ndim != 1 or z.ndim != 1:
        raise ValueError("x and z must be one-dimensional samplings")
    if t.shape != (3,):
        raise ValueError(f"t must be a snapshot triple (t-dt, t, t+dt), got shape {t.shape}")
    n, nz = len(x), len(z)
    if nz < 3:
        raise ValueError("z column needs at least 3 samples")
    if not (abs(z[0]) < 1e-12 and abs(z[-1] - 1.0) < 1e-12):
        raise ValueError("z column must span [0, 1] (bottom to surface)")

    h = x[1] - x[0]
    if not np.allclose(np.diff(x), h, rtol=1e-10, atol=1e-10 * abs(h)):
        raise ValueError("x must be uniformly spaced")
    grid = Grid1D(n=n, length=n * h)

    dt = t[1] - t[0]
    if not dt > 0:
        raise ValueError(f"snapshot times must not decrease or repeat, got {t.tolist()}")
    if not np.isclose(t[2] - t[1], dt, rtol=1e-10, atol=1e-10 * abs(dt)):
        raise ValueError("snapshot triple must be uniform in time")

    shapes = {"u": (3, nz, n), "v": (nz, n), "p": (nz, n), "eta": (3, n)}
    u, v, p, eta = (np.asarray(getattr(bundle, name)) for name in shapes)
    for (name, shape), arr in zip(shapes.items(), (u, v, p, eta)):
        if arr.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")

    u_t = (u[2] - u[0]) / (2.0 * dt)
    eta_t = (eta[2] - eta[0]) / (2.0 * dt)
    p_x = grid.deriv_values(p)
    u_x = grid.deriv_values(u[1])
    p_z = np.gradient(p, z, axis=0, edge_order=2)
    v_z = np.gradient(v, z, axis=0, edge_order=2)

    return {
        "x_momentum": float(np.max(np.abs(u_t + p_x))),
        "z_momentum": float(np.max(np.abs(p_z))),
        "continuity": float(np.max(np.abs(u_x + v_z))),
        "surface_kinematic": float(np.max(np.abs(v[-1] - eta_t))),
        "surface_dynamic": float(np.max(np.abs(p[-1] - eta[1]))),
        "bottom_kinematic": float(np.max(np.abs(v[0]))),
    }

