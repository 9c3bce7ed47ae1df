"""Batch scenario runner: JSON config in, CSV/JSON artifacts out.

Each scenario kind wires together one corner of the package.  Configs are
validated before any computation; identical config + seed gives bit-identical
numeric outputs.  Every run writes a manifest recording the config hash,
package versions, the seed, and headline metrics.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .ch import CHParams, _rhs_form, evolve, invariants_to_csv
from .grid import Field, Grid1D, deriv, field_to_csv, spectral_shift
from .linear_sw import SurfaceProfile, evolve_dalembert
from .peakons import (
    PeakonEnsemble,
    _evolve_steps,
    evolve_peakons,
    mollified_field,
    sample_field,
    trajectory_to_csv,
)
from .scaling import (
    ScalingParams,
    VariableBundle,
    audit_limit_system,
    from_nondim,
    remove_delta,
    residual_report_json,
    restore_delta,
    scale_small_amplitude,
    to_nondim,
    unscale_small_amplitude,
)
from .variational import (
    BumpPerturbationSpec,
    SinusoidalPathSpec,
    uniform_times,
    verify_variational_identity,
)

__all__ = [
    "KINDS",
    "ConfigError",
    "ScenarioConfig",
    "SummaryReport",
    "config_digest",
    "load_config",
    "run",
]

KINDS = (
    "ch_evolution",
    "peakon",
    "linear_sw",
    "variational_check",
    "scaling_demo",
    "cross_validation",
)

# kind -> (required param keys, optional param keys)
_SCHEMAS = {
    "ch_evolution": (
        {"initial", "kappa", "dt", "t_end"},
        {"dealias", "record_every", "snapshot_every", "slope_ceiling",
         "filter_alpha", "filter_order", "form"},
    ),
    "peakon": ({"q", "p", "dt", "t_end"}, {"record_every", "collision_sep"}),
    "linear_sw": ({"profile", "t", "dt"}, {"nz", "c0"}),
    "variational_check": (
        {"n_intervals", "t_total", "eps"},
        {"c0", "n_modes", "path_amplitude", "pert_amplitude"},
    ),
    "scaling_demo": ({"h0", "lam", "a"}, {"g", "rho", "p0", "nz"}),
    "cross_validation": ({"q", "p", "dt", "t_end"}, {"record_every"}),
}

_INITIAL_SCHEMAS = {
    "sine": ({"amplitude"}, {"mode", "phase"}),
    "sech2": ({"amplitude", "width"}, {"center"}),
    "random": ({"amplitude", "max_mode"}, set()),
}


class ConfigError(ValueError):
    """Scenario config is malformed; maps to CLI exit code 2."""


def _check_keys(where: str, given: dict, required: set, optional: set) -> None:
    missing = sorted(required - given.keys())
    unknown = sorted(given.keys() - required - optional)
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _number(where: str, d: dict, key: str, positive: bool = False) -> float:
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: {key} must be a number, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"{where}: {key} must be positive, got {value}")
    return float(value)


def _integer(where: str, d: dict, key: str, minimum: int = 1) -> int:
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{where}: {key} must be >= {minimum}, got {value}")
    return value


def _number_list(where: str, d: dict, key: str) -> list:
    value = d[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: {key} must be a non-empty list")
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ConfigError(f"{where}: {key} entries must be numbers")
    return value


@contextmanager
def _as_config_error(where: str):
    """Turn a bad value or type raised while building run objects into a
    ConfigError, so validation rejects whatever the run would."""
    try:
        yield
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _validate_params(kind: str, params: dict) -> None:
    required, optional = _SCHEMAS[kind]
    _check_keys(f"params[{kind}]", params, required, optional)
    where = f"params[{kind}]"

    if kind == "ch_evolution":
        initial = params["initial"]
        if not isinstance(initial, dict) or "type" not in initial:
            raise ConfigError(f"{where}: initial must be a dict with a 'type' key")
        itype = initial["type"]
        if itype not in _INITIAL_SCHEMAS:
            raise ConfigError(
                f"{where}: unknown initial type {itype!r}, "
                f"expected one of {sorted(_INITIAL_SCHEMAS)}"
            )
        req, opt = _INITIAL_SCHEMAS[itype]
        _check_keys(f"{where}.initial[{itype}]", initial, req | {"type"}, opt)
        _number(where, params, "kappa")
        _number(where, params, "dt", positive=True)
        _number(where, params, "t_end", positive=True)
        with _as_config_error(where):
            _ch_params(params).n_steps
            _rhs_form(params.get("form", "nonlocal"))
    elif kind in ("peakon", "cross_validation"):
        q = _number_list(where, params, "q")
        p = _number_list(where, params, "p")
        if len(q) != len(p):
            raise ConfigError(f"{where}: q and p must have equal length")
        _number(where, params, "dt", positive=True)
        _number(where, params, "t_end", positive=True)
        if "record_every" in params:
            _integer(where, params, "record_every")
        if "collision_sep" in params:
            _number(where, params, "collision_sep")
        with _as_config_error(where):
            _peakon_ensemble(params)
            _peakon_evolve_args(kind, params)
            if kind == "cross_validation":
                _cross_validation_ch_params(params).n_steps
    elif kind == "linear_sw":
        profile = params["profile"]
        if not isinstance(profile, dict):
            raise ConfigError(f"{where}: profile must be a dict")
        _check_keys(f"{where}.profile", profile, {"amplitude", "width"}, {"center"})
        _number(f"{where}.profile", profile, "width", positive=True)
        _number(where, params, "t")
        _number(where, params, "dt", positive=True)
        if "nz" in params:
            _integer(where, params, "nz", minimum=3)
        if "c0" in params:
            _number(where, params, "c0")
    elif kind == "variational_check":
        # the Euler-Lagrange route needs at least two interior summation levels
        _integer(where, params, "n_intervals", minimum=4)
        _number(where, params, "t_total", positive=True)
        _number(where, params, "eps", positive=True)
        for key in ("c0", "path_amplitude", "pert_amplitude"):
            if key in params:
                _number(where, params, key)
        if "n_modes" in params:
            _integer(where, params, "n_modes", minimum=0)
    elif kind == "scaling_demo":
        for key in ("h0", "lam", "a"):
            _number(where, params, key, positive=True)
        for key in ("g", "rho", "p0"):
            if key in params:
                _number(where, params, key)
        if "nz" in params:
            _integer(where, params, "nz", minimum=2)
        with _as_config_error(where):
            _scaling_params(params)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; see :data:`KINDS` for the kinds."""

    kind: str
    grid_n: int
    grid_length: float
    params: dict
    output_dir: str
    seed: int

    @classmethod
    def from_dict(cls, data: dict, output_dir: str | None = None) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        _check_keys("config", data, {"kind", "grid", "params", "output_dir", "seed"}, set())
        kind = data["kind"]
        if kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {kind!r}, expected one of {KINDS}")

        grid = data["grid"]
        if not isinstance(grid, dict):
            raise ConfigError("config: grid must be a dict with keys n, L")
        _check_keys("config.grid", grid, {"n", "L"}, set())
        n = _integer("config.grid", grid, "n")
        length = _number("config.grid", grid, "L", positive=True)
        try:
            Grid1D(n=n, length=length)
        except ValueError as exc:
            raise ConfigError(f"config.grid: {exc}") from exc

        seed = data["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(f"config: seed must be an integer, got {seed!r}")

        params = data["params"]
        if not isinstance(params, dict):
            raise ConfigError("config: params must be a dict")
        _validate_params(kind, params)

        out = output_dir if output_dir is not None else data["output_dir"]
        if not isinstance(out, (str, Path)) or not str(out):
            raise ConfigError(f"config: output_dir must be a non-empty path, got {out!r}")
        return cls(
            kind=kind,
            grid_n=n,
            grid_length=length,
            params=params,
            output_dir=str(out),
            seed=seed,
        )

    @property
    def grid(self) -> Grid1D:
        return Grid1D(n=self.grid_n, length=self.grid_length)


def load_config(path: str | Path, output_dir: str | None = None) -> ScenarioConfig:
    """Parse and validate a scenario config file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return ScenarioConfig.from_dict(data, output_dir=output_dir)


def config_digest(config: ScenarioConfig) -> str:
    """sha256 over the canonical config JSON.

    The output directory is excluded: moving artifacts elsewhere does not
    change what was computed.
    """
    canonical = json.dumps(
        {
            "grid": {"L": config.grid_length, "n": config.grid_n},
            "kind": config.kind,
            "params": config.params,
            "seed": config.seed,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class SummaryReport:
    kind: str
    output_dir: str
    metrics: dict
    artifacts: tuple


def _drift(first: float, last: float) -> float:
    """Invariant drift, relative when the starting value is meaningfully
    nonzero and absolute otherwise (e.g. H0 of a zero-mean profile)."""
    denom = abs(first) if abs(first) > 1e-8 else 1.0
    return float(abs(last - first) / denom)


def _initial_field(grid: Grid1D, spec: dict, rng: np.random.Generator) -> Field:
    itype = spec["type"]
    if itype == "sine":
        amplitude = float(spec["amplitude"])
        mode = int(spec.get("mode", 1))
        phase = float(spec.get("phase", 0.0))
        k = 2.0 * np.pi * mode / grid.length
        return Field(grid, amplitude * np.sin(k * grid.x + phase))
    if itype == "sech2":
        amplitude = float(spec["amplitude"])
        width = float(spec["width"])
        center = float(spec.get("center", 0.0))
        return Field(grid, amplitude / np.cosh((grid.x - center) / width) ** 2)
    # random: band-limited cosine sum with 1/m decay, normalized peak
    amplitude = float(spec["amplitude"])
    max_mode = int(spec["max_mode"])
    values = np.zeros(grid.n)
    for m in range(1, max_mode + 1):
        k = 2.0 * np.pi * m / grid.length
        values += rng.normal() / m * np.cos(k * grid.x + rng.uniform(0.0, 2.0 * np.pi))
    peak = np.max(np.abs(values))
    if peak > 0:
        values *= amplitude / peak
    return Field(grid, values)


def _ch_params(par: dict) -> CHParams:
    """Solver parameters of a ch_evolution scenario; ValueError if invalid."""
    dealias = par.get("dealias", True)
    if not isinstance(dealias, bool):
        raise ValueError(f"dealias must be true or false, got {dealias!r}")
    return CHParams(
        kappa=float(par["kappa"]),
        dt=float(par["dt"]),
        t_end=float(par["t_end"]),
        dealias=dealias,
        slope_ceiling=float(par.get("slope_ceiling", 1e3)),
        record_every=int(par.get("record_every", 10)),
        snapshot_every=int(par.get("snapshot_every", 0)),
        filter_alpha=float(par.get("filter_alpha", 0.0)),
        filter_order=int(par.get("filter_order", 8)),
    )


def _run_ch_evolution(config: ScenarioConfig, out: Path, rng) -> tuple[dict, list]:
    par = config.params
    grid = config.grid
    u0 = _initial_field(grid, par["initial"], rng)
    result = evolve(u0, _ch_params(par), form=par.get("form", "nonlocal"))
    field_to_csv(u0, out / "initial.csv")
    field_to_csv(result.final.u, out / "final.csv")
    invariants_to_csv(result, out / "invariants.csv")
    inv = result.invariants
    metrics = {
        "t_end": float(result.final.t),
        "H0_drift": _drift(inv[0, 0], inv[-1, 0]),
        "H1_drift": _drift(inv[0, 1], inv[-1, 1]),
        "H2_drift": _drift(inv[0, 2], inv[-1, 2]),
        "max_slope": float(np.max(np.abs(deriv(result.final.u).values))),
    }
    return metrics, ["initial.csv", "final.csv", "invariants.csv"]


# record_every when a config leaves it out
_PEAKON_RECORD_EVERY = {"peakon": 1, "cross_validation": 100}


def _peakon_ensemble(par: dict) -> PeakonEnsemble:
    return PeakonEnsemble(q=np.asarray(par["q"], float), p=np.asarray(par["p"], float))


def _peakon_evolve_args(kind: str, par: dict) -> dict:
    """evolve_peakons keyword arguments of a peakon or cross_validation
    scenario; ValueError if evolve_peakons would reject them."""
    args = {
        "dt": float(par["dt"]),
        "t_end": float(par["t_end"]),
        "record_every": int(par.get("record_every", _PEAKON_RECORD_EVERY[kind])),
        "collision_sep": float(par.get("collision_sep", 1e-6)),
    }
    _evolve_steps(**args)
    return args


def _run_peakon(config: ScenarioConfig, out: Path, rng) -> tuple[dict, list]:
    par = config.params
    traj = evolve_peakons(_peakon_ensemble(par), **_peakon_evolve_args("peakon", par))
    trajectory_to_csv(traj, out / "trajectory.csv")
    metrics = {
        "t_end": float(traj.times[-1]),
        "H_drift": _drift(traj.H[0], traj.H[-1]),
        "P_drift": _drift(traj.P[0], traj.P[-1]),
        "final_q": [float(v) for v in traj.q[-1]],
        "final_p": [float(v) for v in traj.p[-1]],
    }
    return metrics, ["trajectory.csv"]


def _run_linear_sw(config: ScenarioConfig, out: Path, rng) -> tuple[dict, list]:
    par = config.params
    grid = config.grid
    profile = par["profile"]
    amplitude = float(profile["amplitude"])
    width = float(profile["width"])
    center = float(profile.get("center", 0.0))
    t = float(par["t"])
    dt = float(par["dt"])
    nz = int(par.get("nz", 9))
    c0 = float(par.get("c0", 0.0))

    f = Field(grid, amplitude * np.exp(-(((grid.x - center) / width) ** 2)))
    prof = SurfaceProfile(f=f, c0=c0)
    eta = np.array([evolve_dalembert(prof, tk).values for tk in (t - dt, t, t + dt)])
    z = np.linspace(0.0, 1.0, nz)
    u = np.broadcast_to(eta[:, None, :] + c0, (3, nz, grid.n)).copy()
    v = -z[:, None] * grid.deriv_values(eta[1])[None, :]
    p = np.broadcast_to(eta[1], (nz, grid.n)).copy()
    bundle = VariableBundle(
        frame="delta_removed",
        x=grid.x,
        z=z,
        t=np.array([t - dt, t, t + dt]),
        u=u,
        v=v,
        p=p,
        eta=eta,
    )
    report = audit_limit_system(bundle)
    (out / "audit.json").write_text(residual_report_json(report) + "\n")

    # shifting by t in one hop or in two legs must agree to roundoff
    t1 = 0.4 * t + 0.1
    relayed = spectral_shift(spectral_shift(f, t1), t - t1)
    direct = spectral_shift(f, t)
    semigroup_gap = float(np.max(np.abs(relayed.values - direct.values)))

    field_to_csv(f, out / "surface_initial.csv")
    field_to_csv(Field(grid, eta[1]), out / "surface_final.csv")
    metrics = dict(report)
    metrics["max_residual"] = max(report.values())
    metrics["semigroup_gap"] = semigroup_gap
    return metrics, ["audit.json", "surface_initial.csv", "surface_final.csv"]


def _run_variational_check(config: ScenarioConfig, out: Path, rng) -> tuple[dict, list]:
    par = config.params
    grid = config.grid
    times = uniform_times(float(par["t_total"]), int(par["n_intervals"]))
    path = SinusoidalPathSpec.random(
        rng,
        n_modes=int(par.get("n_modes", 3)),
        amplitude=float(par.get("path_amplitude", 0.05)),
    ).build(grid, times)
    pert = BumpPerturbationSpec.random(
        rng, amplitude=float(par.get("pert_amplitude", 0.1))
    ).build(grid, times)
    report = verify_variational_identity(
        path, pert, eps=float(par["eps"]), c0=float(par.get("c0", 0.0))
    )
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return dict(report), ["report.json"]


def _scaling_params(par: dict) -> ScalingParams:
    """Dimensional constants of a scaling_demo scenario; ValueError if invalid."""
    return ScalingParams(
        h0=float(par["h0"]),
        lam=float(par["lam"]),
        a=float(par["a"]),
        g=float(par.get("g", 9.81)),
        rho=float(par.get("rho", 1000.0)),
        p0=float(par.get("p0", 101325.0)),
    )


def _run_scaling_demo(config: ScenarioConfig, out: Path, rng) -> tuple[dict, list]:
    par = config.params
    sp = _scaling_params(par)
    n = config.grid_n
    nz = int(par.get("nz", 5))
    c = sp.c_horizontal
    x = np.linspace(0.0, sp.lam, n, endpoint=False)
    z = np.linspace(0.0, sp.h0, nz)
    t = np.linspace(0.0, sp.lam / c, 4)
    physical = VariableBundle(
        frame="physical",
        x=x,
        z=z,
        t=t,
        u=sp.eps * c * rng.standard_normal((nz, n)),
        v=sp.eps * sp.delta * c * rng.standard_normal((nz, n)),
        p=sp.p0
        + sp.rho * sp.g * (sp.h0 - z)[:, None]
        + sp.eps * sp.rho * sp.g * sp.h0 * rng.standard_normal((nz, n)),
        eta=sp.a * rng.standard_normal(n),
    )

    nd = to_nondim(physical, sp)
    scaled = scale_small_amplitude(nd, sp.eps)
    removed = remove_delta(scaled, sp.eps, sp.delta)
    back = from_nondim(
        unscale_small_amplitude(restore_delta(removed, sp.eps, sp.delta), sp.eps), sp
    )
    residual = 0.0
    for name in ("x", "z", "t", "u", "v", "p", "eta"):
        a = getattr(physical, name)
        b = getattr(back, name)
        residual = max(residual, float(np.max(np.abs(a - b)) / np.max(np.abs(a))))

    # in the eps = delta^2 regime the delta-removal factor is exactly 1
    probe = remove_delta(scaled, sp.delta * sp.delta, sp.delta)
    exact = bool(
        np.array_equal(probe.x, scaled.x)
        and np.array_equal(probe.t, scaled.t)
        and np.array_equal(probe.v, scaled.v)
    )
    metrics = {
        "eps": sp.eps,
        "delta": sp.delta,
        "roundtrip_residual": residual,
        "delta_sq_exact": exact,
    }
    (out / "report.json").write_text(json.dumps(metrics, sort_keys=True, indent=2) + "\n")
    return metrics, ["report.json"]


def _cross_validation_ch_params(par: dict) -> CHParams:
    """PDE parameters of a cross_validation scenario; ValueError if invalid."""
    dt = float(par["dt"])
    t_end = float(par["t_end"])
    steps = max(1, round(t_end / dt))
    return CHParams(kappa=0.0, dt=dt, t_end=t_end, record_every=max(1, steps // 10))


def _run_cross_validation(config: ScenarioConfig, out: Path, rng) -> tuple[dict, list]:
    par = config.params
    grid = config.grid
    ens = _peakon_ensemble(par)
    traj = evolve_peakons(ens, **_peakon_evolve_args("cross_validation", par))
    trajectory_to_csv(traj, out / "trajectory.csv")

    u0 = mollified_field(ens, grid)
    result = evolve(u0, _cross_validation_ch_params(par), form="nonlocal")

    ode_u = sample_field(traj.final, grid)
    pde_u = result.final.u
    field_to_csv(ode_u, out / "ode_profile.csv")
    field_to_csv(pde_u, out / "pde_profile.csv")
    metrics = {
        "t_end": float(result.final.t),
        "linf_gap": float(np.max(np.abs(pde_u.values - ode_u.values))),
        "H_drift": _drift(traj.H[0], traj.H[-1]),
        "P_drift": _drift(traj.P[0], traj.P[-1]),
    }
    return metrics, ["trajectory.csv", "ode_profile.csv", "pde_profile.csv"]


_RUNNERS = {
    "ch_evolution": _run_ch_evolution,
    "peakon": _run_peakon,
    "linear_sw": _run_linear_sw,
    "variational_check": _run_variational_check,
    "scaling_demo": _run_scaling_demo,
    "cross_validation": _run_cross_validation,
}


def run(config: ScenarioConfig) -> SummaryReport:
    """Execute a scenario, write its artifacts and manifest.

    Numerical halts (wave breaking, peakon collision) propagate to the
    caller; the CLI turns them into exit code 3.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    metrics, artifacts = _RUNNERS[config.kind](config, out, rng)

    manifest = {
        "kind": config.kind,
        "config_sha256": config_digest(config),
        "seed": config.seed,
        "grid": {"n": config.grid_n, "L": config.grid_length},
        "versions": {
            "wavelab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "metrics": metrics,
        "artifacts": sorted(artifacts),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return SummaryReport(
        kind=config.kind,
        output_dir=str(out),
        metrics=metrics,
        artifacts=tuple(sorted(artifacts)) + ("manifest.json",),
    )
