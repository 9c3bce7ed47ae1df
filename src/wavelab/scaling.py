"""Change-of-variables pipeline for the shallow-water problem.

Three invertible stages carry a tagged bundle of sampled variables through
the paper's scalings.  Each stage divides some members by a scale on the
way down and multiplies them by it on the way back; c = sqrt(g*h0),
eps = a/h0, delta = h0/lam and r = sqrt(eps/delta^2):

    physical --to_nondim--> nondim
        x/lam, z/h0, t*c/lam, u/c, v*lam/(h0*c), eta/a and
        (p - p0 - rho*g*(h0 - z))/(rho*g*h0), from the hydrostatic column
    nondim --scale_small_amplitude--> scaled
        u/eps, v/eps, p/eps
    scaled --remove_delta--> delta_removed
        x/r, t/r, v*r, the identity when eps = delta^2

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
# the sampled variables a bundle carries, in its field order
_MEMBERS = ("x", "z", "t", "u", "v", "p", "eta")


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
        for name in _MEMBERS:
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"bundle member {name!r} has non-finite entries")
            object.__setattr__(self, name, value)


def _require_frame(bundle: VariableBundle, expected: str) -> None:
    if bundle.frame != expected:
        raise FrameError(f"transform expects a bundle in frame {expected!r}, got {bundle.frame!r}")


def _hydrostatic(params: ScalingParams, z, ndim: int) -> np.ndarray:
    """The still-water pressure at physical depths z, a 1-D z laid out as
    the column of a field with ``ndim`` axes (..., z, x)."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 1 and ndim >= 2:
        z = z.reshape((1,) * (ndim - 2) + (z.size, 1))
    return params.p0 + params.rho * params.g * (params.h0 - z)


# one map of member -> scale per stage; _rescale derives both directions
def _nondim_scales(params: ScalingParams) -> dict:
    c = params.c_horizontal
    return {
        "x": params.lam,
        "z": params.h0,
        "t": params.lam / c,
        "u": c,
        "v": params.h0 * c / params.lam,
        "p": params.rho * params.g * params.h0,
        "eta": params.a,
    }


def _amplitude_scales(eps: float) -> dict:
    _require_positive(eps=eps)
    return {"u": eps, "v": eps, "p": eps}


def _delta_scales(eps: float, delta: float) -> dict:
    _require_positive(eps=eps, delta=delta)
    # single ratio so that eps == delta**2 gives exactly 1.0
    r = math.sqrt(eps / (delta * delta))
    return {"x": r, "t": r, "v": 1.0 / r}


def _rescale(
    bundle: VariableBundle, source: str, target: str, scales: dict, hydrostatic=None
) -> VariableBundle:
    """``bundle`` moved from frame ``source`` to ``target``: down the
    pipeline each member in ``scales`` is divided by its scale, back up it
    is multiplied by it.  Given ``hydrostatic`` params, p is measured from
    their still-water column, taken off before the division and put back
    after the multiplication."""
    _require_frame(bundle, source)
    values = {name: getattr(bundle, name) for name in scales}
    if FRAMES.index(target) > FRAMES.index(source):
        if hydrostatic is not None:
            values["p"] = values["p"] - _hydrostatic(hydrostatic, values["z"], values["p"].ndim)
        values = {name: value / scales[name] for name, value in values.items()}
    else:
        values = {name: value * scales[name] for name, value in values.items()}
        if hydrostatic is not None:
            values["p"] = values["p"] + _hydrostatic(hydrostatic, values["z"], values["p"].ndim)
    return replace(bundle, frame=target, **values)


def to_nondim(bundle: VariableBundle, params: ScalingParams) -> VariableBundle:
    """Strip physical units using the scales (h0, lam, a, sqrt(g*h0)).  p is
    measured from the hydrostatic column, so still water has p = 0."""
    return _rescale(bundle, "physical", "nondim", _nondim_scales(params), hydrostatic=params)


def from_nondim(bundle: VariableBundle, params: ScalingParams) -> VariableBundle:
    """Exact inverse of :func:`to_nondim`."""
    return _rescale(bundle, "nondim", "physical", _nondim_scales(params), hydrostatic=params)


def scale_small_amplitude(bundle: VariableBundle, eps: float) -> VariableBundle:
    """Pull the amplitude parameter out of (u, v, p), which are O(eps)."""
    return _rescale(bundle, "nondim", "scaled", _amplitude_scales(eps))


def unscale_small_amplitude(bundle: VariableBundle, eps: float) -> VariableBundle:
    """Exact inverse of :func:`scale_small_amplitude`."""
    return _rescale(bundle, "scaled", "nondim", _amplitude_scales(eps))


def remove_delta(bundle: VariableBundle, eps: float, delta: float) -> VariableBundle:
    """Eliminate the shallowness parameter: the identity when eps = delta^2."""
    return _rescale(bundle, "scaled", "delta_removed", _delta_scales(eps, delta))


def restore_delta(bundle: VariableBundle, eps: float, delta: float) -> VariableBundle:
    """Exact inverse of :func:`remove_delta`."""
    return _rescale(bundle, "delta_removed", "scaled", _delta_scales(eps, delta))


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

