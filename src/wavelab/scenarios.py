"""Batch scenario runner: JSON config in, CSV/JSON artifacts out.

Each scenario kind wires together one corner of the package, as a parser
and a runner.  The parser reads the config's params key by key, each key's
type and default written once, at its read, and builds everything the run
consumes: the parameter objects, the initial data and every draw from the
seeded generator.  ``validate`` and ``run`` share it, so a config that
validates is one the runner accepts.  The parser also imports every
module its kind uses beyond ``grid``, the solvers ``ch`` and ``peakons``
and its runner's modules included, and builds the generator only if it
draws, so a process loads no code its scenario does not run and ``run``
loads none.  Identical config + seed gives bit-identical numeric
outputs.  Every run writes a manifest recording the config hash, package
versions, the seed, and headline metrics.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .grid import Field, Grid1D, NumericalHaltError, deriv, field_to_csv, spectral_shift
from .grid import _require_positive

if TYPE_CHECKING:
    from .ch import CHParams
    from .peakons import PeakonEnsemble
    from .scaling import ScalingParams, VariableBundle

__all__ = [
    "KINDS",
    "ConfigError",
    "ScenarioConfig",
    "SummaryReport",
    "config_digest",
    "load_config",
    "run",
]


def __getattr__(name: str):
    # ``scenarios.evolve`` is ``ch.evolve``, looked up at each access, so
    # importing this module does not load ch
    if name == "evolve":
        from .ch import evolve

        return evolve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    """Scenario config is malformed; maps to CLI exit code 2."""


@contextmanager
def _as_config_error(where: str):
    """Turn a bad value or type raised while building run objects, or an
    allocation that a config-sized array cannot get, into a ConfigError, so
    validation rejects whatever the run would."""
    try:
        yield
    except ConfigError:
        raise
    except (ArithmeticError, MemoryError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@functools.cache  # a default is fixed when its function is defined
def _default(fn, name: str):
    """The default that a function or class gives its parameter ``name``."""
    return inspect.signature(fn).parameters[name].default


_EXPECTED = {
    float: "a finite number",
    int: "an integer",
    bool: "true or false",
    str: "a string",
    list: "a non-empty list of numbers",
    dict: "a JSON object",
}


def _has_type(value, kind) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        # Python's json reads NaN and Infinity, which are not JSON numbers
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is list:
        return isinstance(value, list) and bool(value) and all(
            _has_type(entry, float) for entry in value
        )
    return isinstance(value, kind)


class _Keys:
    """Typed reads from one JSON object of a config.

    Each call reads one key with its type and its default; a key without a
    default is required.  :meth:`close` then rejects every key that no call
    read, here and in the objects read from here.
    """

    def __init__(self, where: str, data) -> None:
        if not isinstance(data, dict):
            raise ConfigError(f"{where} must be a JSON object, got {data!r}")
        self.where = where
        self._data = data
        self._read = set()
        self._nested = []

    def __call__(self, key, kind, default=MISSING, *, minimum=None, maximum=None, positive=False):
        self._read.add(key)
        if key not in self._data:
            if default is MISSING:
                raise ConfigError(f"{self.where}: missing required key {key!r}")
            return default
        value = self._data[key]
        if not _has_type(value, kind):
            raise ConfigError(f"{self.where}: {key} must be {_EXPECTED[kind]}, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.where}: {key} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{self.where}: {key} must be <= {maximum}, got {value}")
        if positive:
            with _as_config_error(self.where):
                _require_positive(**{key: float(value)})
        if kind is dict:
            value = _Keys(f"{self.where}.{key}", value)
            self._nested.append(value)
        return float(value) if kind is float else value

    def close(self) -> None:
        unknown = sorted(self._data.keys() - self._read)
        if unknown:
            raise ConfigError(f"{self.where}: unknown keys {unknown}")
        for nested in self._nested:
            nested.close()


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; see :data:`KINDS` for the kinds.

    Build it with :meth:`from_dict` or :func:`load_config`: they parse the
    grid into ``grid`` and ``params`` into the ``inputs`` that :func:`run`
    hands to the runner.  ``dataclasses.replace`` keeps both.
    """

    kind: str
    grid: Grid1D
    params: dict
    output_dir: str
    seed: int
    inputs: dict = field(repr=False, compare=False)

    @classmethod
    def from_dict(cls, data: dict, output_dir: str | None = None) -> "ScenarioConfig":
        top = _Keys("config", data)
        kind = top("kind", str)
        if kind not in _SCENARIOS:
            raise ConfigError(f"unknown scenario kind {kind!r}, expected one of {KINDS}")
        grid_keys = top("grid", dict)
        with _as_config_error("config.grid"):
            grid = Grid1D(n=grid_keys("n", int), length=grid_keys("L", float, positive=True))
        seed = top("seed", int, minimum=0)
        configured = top("output_dir", str)
        out = str(configured if output_dir is None else output_dir)
        if not out:
            raise ConfigError("config: output_dir must be a non-empty path")

        parse, _ = _SCENARIOS[kind]
        params = top("params", dict)
        with _as_config_error(params.where):
            inputs = parse(params, grid, seed)
        top.close()

        return cls(
            kind=kind,
            grid=grid,
            params=data["params"],
            output_dir=out,
            seed=seed,
            inputs=inputs,
        )


def load_config(path: str | Path, output_dir: str | None = None) -> ScenarioConfig:
    """Parse and validate a scenario config file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply to parse") from exc
    return ScenarioConfig.from_dict(data, output_dir=output_dir)


def config_digest(config: ScenarioConfig) -> str:
    """sha256 over the canonical config JSON.

    The output directory is excluded: moving artifacts elsewhere does not
    change what was computed.
    """
    canonical = json.dumps(
        {
            "grid": {"L": config.grid.length, "n": config.grid.n},
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


def _nonfinite(obj, where: str = ""):
    """(key path, value) of the first NaN or infinity in the JSON-bound
    ``obj``, in sorted key order, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (where, obj)
    if isinstance(obj, dict):
        items = ((f"{where}.{key}" if where else key, obj[key]) for key in sorted(obj))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{where}[{i}]", value) for i, value in enumerate(obj))
    else:
        return None
    for key, value in items:
        found = _nonfinite(value, key)
        if found:
            return found
    return None


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` as sorted, indented JSON with a final newline.

    JSON has no NaN or infinity: a metric that turned non-finite halts the
    run with a :class:`~wavelab.grid.NumericalHaltError` whose stage is
    ``<file name>:<key path>``, and nothing is written."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        found = _nonfinite(obj)
        if not found:
            raise
        key, value = found
        raise NumericalHaltError(
            f"{path.name}:{key}", f"{key} is {value}, which is not finite"
        ) from None
    path.write_text(text + "\n")


def _drift(first: float, last: float) -> float:
    """Invariant drift, relative when the starting value is meaningfully
    nonzero and absolute otherwise (e.g. H0 of a zero-mean profile)."""
    denom = abs(first) if abs(first) > 1e-8 else 1.0
    return float(abs(last - first) / denom)


_INITIAL_TYPES = ("random", "sech2", "sine")


def _initial_field(spec: _Keys, grid: Grid1D, seed: int) -> Field:
    itype = spec("type", str)
    if itype not in _INITIAL_TYPES:
        raise ConfigError(
            f"{spec.where}: unknown initial type {itype!r}, expected one of {list(_INITIAL_TYPES)}"
        )
    amplitude = spec("amplitude", float)
    if itype == "sine":
        mode = spec("mode", int, 1, minimum=-(grid.n // 2), maximum=grid.n // 2)
        phase = spec("phase", float, 0.0)
        k = 2.0 * np.pi * mode / grid.length
        return Field(grid, amplitude * np.sin(k * grid.x + phase))
    if itype == "sech2":
        width = spec("width", float, positive=True)
        center = spec("center", float, 0.0)
        return Field(grid, amplitude / np.cosh((grid.x - center) / width) ** 2)
    # random: band-limited cosine sum with 1/m decay, normalized peak
    # modes above n/2 alias on the grid, and each costs a pass over it
    max_mode = spec("max_mode", int, minimum=1, maximum=grid.n // 2)
    rng = np.random.default_rng(seed)
    values = np.zeros(grid.n)
    for m in range(1, max_mode + 1):
        k = 2.0 * np.pi * m / grid.length
        values += rng.normal() / m * np.cos(k * grid.x + rng.uniform(0.0, 2.0 * np.pi))
    peak = np.max(np.abs(values))
    if peak > 0:
        values *= amplitude / peak
    return Field(grid, values)


def _parse_ch_evolution(p: _Keys, grid: Grid1D, seed: int) -> dict:
    from .ch import CHParams, _rhs_form, evolve

    u0 = _initial_field(p("initial", dict), grid, seed)
    params = CHParams(
        kappa=p("kappa", float),
        dt=p("dt", float),
        t_end=p("t_end", float),
        dealias=p("dealias", bool, _default(CHParams, "dealias")),
        slope_ceiling=p("slope_ceiling", float, _default(CHParams, "slope_ceiling")),
        record_every=p("record_every", int, _default(CHParams, "record_every")),
    )
    form = p("form", str, _default(evolve, "form"))
    _rhs_form(form)
    return {"u0": u0, "params": params, "form": form}


def _run_ch_evolution(out: Path, u0: Field, params: CHParams, form: str) -> tuple[dict, list]:
    from .ch import evolve, invariants_to_csv

    result = evolve(u0, params, form=form)
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


def _peakon_inputs(p: _Keys, record_every: int, collision_sep: float):
    """Ensemble, evolve_peakons keyword arguments and step count of a
    peakon or cross_validation scenario."""
    from .peakons import PeakonEnsemble, _evolve_steps

    ens = PeakonEnsemble(q=p("q", list), p=p("p", list))
    args = {
        "dt": p("dt", float),
        "t_end": p("t_end", float),
        "record_every": p("record_every", int, record_every),
        "collision_sep": collision_sep,
    }
    return ens, args, _evolve_steps(**args)


def _parse_peakon(p: _Keys, grid: Grid1D, seed: int) -> dict:
    from .peakons import evolve_peakons

    collision_sep = p("collision_sep", float, _default(evolve_peakons, "collision_sep"))
    ens, args, _ = _peakon_inputs(
        p, record_every=_default(evolve_peakons, "record_every"), collision_sep=collision_sep
    )
    return {"ens": ens, "evolve_args": args}


def _run_peakon(out: Path, ens: PeakonEnsemble, evolve_args: dict) -> tuple[dict, list]:
    from .peakons import evolve_peakons, trajectory_to_csv

    traj = evolve_peakons(ens, **evolve_args)
    trajectory_to_csv(traj, out / "trajectory.csv")
    metrics = {
        "t_end": float(traj.times[-1]),
        "H_drift": _drift(traj.H[0], traj.H[-1]),
        "P_drift": _drift(traj.P[0], traj.P[-1]),
        "final_q": [float(v) for v in traj.q[-1]],
        "final_p": [float(v) for v in traj.p[-1]],
    }
    return metrics, ["trajectory.csv"]


def _parse_linear_sw(p: _Keys, grid: Grid1D, seed: int) -> dict:
    from .linear_sw import SurfaceProfile, reconstruct_irrotational
    from .scaling import audit_limit_system

    profile = p("profile", dict)
    amplitude = profile("amplitude", float)
    width = profile("width", float, positive=True)
    center = profile("center", float, 0.0)
    f = Field(grid, amplitude * np.exp(-(((grid.x - center) / width) ** 2)))
    prof = SurfaceProfile(f=f, c0=p("c0", float, _default(SurfaceProfile, "c0")))
    t = p("t", float)
    dt = p("dt", float, positive=True)
    z = np.linspace(0.0, 1.0, p("nz", int, 9, minimum=3))
    # built and audited here so that an extreme value, an nz too large to
    # allocate or a snapshot triple the audit rejects fails while parsing
    bundle = reconstruct_irrotational(prof, t, dt, z)
    return {"f": f, "t": t, "bundle": bundle, "report": audit_limit_system(bundle)}


def _run_linear_sw(
    out: Path, f: Field, t: float, bundle: VariableBundle, report: dict
) -> tuple[dict, list]:
    _write_json(out / "audit.json", report)

    # shifting by t in one hop or in two legs must agree to roundoff
    t1 = 0.4 * t + 0.1
    relayed = spectral_shift(spectral_shift(f, t1), t - t1)
    semigroup_gap = float(np.max(np.abs(relayed.values - bundle.eta[1])))

    field_to_csv(f, out / "surface_initial.csv")
    field_to_csv(Field(f.grid, bundle.eta[1]), out / "surface_final.csv")
    metrics = dict(report)
    metrics["max_residual"] = max(report.values())
    metrics["semigroup_gap"] = semigroup_gap
    return metrics, ["audit.json", "surface_initial.csv", "surface_final.csv"]


def _parse_variational_check(p: _Keys, grid: Grid1D, seed: int) -> dict:
    from .variational import (
        _MIN_INTERVALS,
        BumpPerturbationSpec,
        SinusoidalPathSpec,
        uniform_times,
        verify_variational_identity,
    )

    times = uniform_times(p("t_total", float), p("n_intervals", int, minimum=_MIN_INTERVALS))
    # modes above n/2 alias on the grid, and each costs a pass over it
    n_modes = p("n_modes", int, _default(SinusoidalPathSpec.random, "n_modes"),
                minimum=0, maximum=grid.n // 2)
    rng = np.random.default_rng(seed)
    path = SinusoidalPathSpec.random(
        rng,
        n_modes=n_modes,
        amplitude=p("path_amplitude", float, _default(SinusoidalPathSpec.random, "amplitude")),
    ).build(grid, times)
    pert = BumpPerturbationSpec.random(
        rng,
        amplitude=p("pert_amplitude", float, _default(BumpPerturbationSpec.random, "amplitude")),
    ).build(grid, times)
    eps = p("eps", float, positive=True)
    # the finite-difference route needs both varied paths to stay diffeomorphisms
    path.perturbed(pert, eps)
    path.perturbed(pert, -eps)
    c0 = p("c0", float, _default(verify_variational_identity, "c0"))
    return {"path": path, "pert": pert, "eps": eps, "c0": c0}


def _run_variational_check(out: Path, path, pert, eps: float, c0: float) -> tuple[dict, list]:
    from .variational import verify_variational_identity

    report = verify_variational_identity(path, pert, eps=eps, c0=c0)
    _write_json(out / "report.json", report)
    return dict(report), ["report.json"]


def _parse_scaling_demo(p: _Keys, grid: Grid1D, seed: int) -> dict:
    from .scaling import (
        ScalingParams,
        VariableBundle,
        _hydrostatic,
        _nondim_scales,
        remove_delta,
        scale_small_amplitude,
        to_nondim,
    )

    sp = ScalingParams(
        h0=p("h0", float),
        lam=p("lam", float),
        a=p("a", float),
        g=p("g", float, _default(ScalingParams, "g")),
        rho=p("rho", float, _default(ScalingParams, "rho")),
        p0=p("p0", float, _default(ScalingParams, "p0")),
    )
    n = grid.n
    nz = p("nz", int, 5, minimum=2)
    # one unit of each scale: x, z and t span theirs, u, v and p are
    # O(eps) of theirs and eta is O(1) of its own
    scale = _nondim_scales(sp)
    z = np.linspace(0.0, scale["z"], nz)
    rng = np.random.default_rng(seed)
    physical = VariableBundle(
        frame="physical",
        x=np.linspace(0.0, scale["x"], n, endpoint=False),
        z=z,
        t=np.linspace(0.0, scale["t"], 4),
        u=sp.eps * scale["u"] * rng.standard_normal((nz, n)),
        v=sp.eps * scale["v"] * rng.standard_normal((nz, n)),
        p=_hydrostatic(sp, z, 2) + sp.eps * scale["p"] * rng.standard_normal((nz, n)),
        eta=scale["eta"] * rng.standard_normal(n),
    )
    # the run's forward chain: extreme scales overflow or divide by zero here
    scaled = scale_small_amplitude(to_nondim(physical, sp), sp.eps)
    removed = remove_delta(scaled, sp.eps, sp.delta)
    return {"sp": sp, "physical": physical, "scaled": scaled, "removed": removed}


def _run_scaling_demo(
    out: Path,
    sp: ScalingParams,
    physical: VariableBundle,
    scaled: VariableBundle,
    removed: VariableBundle,
) -> tuple[dict, list]:
    from .scaling import _MEMBERS
    from .scaling import from_nondim, remove_delta, restore_delta, unscale_small_amplitude

    back = from_nondim(
        unscale_small_amplitude(restore_delta(removed, sp.eps, sp.delta), sp.eps), sp
    )
    residual = 0.0
    for name in _MEMBERS:
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
    _write_json(out / "report.json", metrics)
    return metrics, ["report.json"]


def _parse_cross_validation(p: _Keys, grid: Grid1D, seed: int) -> dict:
    from .ch import CHParams
    from .peakons import evolve_peakons, mollified_field

    ens, args, steps = _peakon_inputs(
        p, record_every=100, collision_sep=_default(evolve_peakons, "collision_sep")
    )
    # the runner reads only the PDE leg's final state: record its two ends
    ch_params = CHParams(kappa=0.0, dt=args["dt"], t_end=args["t_end"], record_every=steps)
    u0 = mollified_field(ens, grid)
    return {"u0": u0, "ens": ens, "evolve_args": args, "ch_params": ch_params}


def _run_cross_validation(
    out: Path, u0: Field, ens: PeakonEnsemble, evolve_args: dict, ch_params: CHParams
) -> tuple[dict, list]:
    from .ch import evolve
    from .peakons import evolve_peakons, sample_field, trajectory_to_csv

    traj = evolve_peakons(ens, **evolve_args)
    trajectory_to_csv(traj, out / "trajectory.csv")

    result = evolve(u0, ch_params, form="nonlocal")

    ode_u = sample_field(traj.final, u0.grid)
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


# kind -> (parser, runner); the parser's dict is the runner's keyword arguments
_SCENARIOS = {
    "ch_evolution": (_parse_ch_evolution, _run_ch_evolution),
    "peakon": (_parse_peakon, _run_peakon),
    "linear_sw": (_parse_linear_sw, _run_linear_sw),
    "variational_check": (_parse_variational_check, _run_variational_check),
    "scaling_demo": (_parse_scaling_demo, _run_scaling_demo),
    "cross_validation": (_parse_cross_validation, _run_cross_validation),
}

KINDS = tuple(_SCENARIOS)


def run(config: ScenarioConfig) -> SummaryReport:
    """Execute a scenario, write its artifacts and manifest.

    Numerical halts (each a :class:`~wavelab.grid.NumericalHaltError`:
    wave breaking, peakon collision, a non-finite metric) propagate to the
    caller; the CLI turns them into exit code 3.  Every JSON artifact is
    strict, so a run whose metrics are not finite writes no manifest.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, runner = _SCENARIOS[config.kind]
    metrics, artifacts = runner(out, **config.inputs)

    manifest = {
        "kind": config.kind,
        "config_sha256": config_digest(config),
        "seed": config.seed,
        "grid": {"n": config.grid.n, "L": config.grid.length},
        "versions": {
            "wavelab": __version__,
            "numpy": np.__version__,
        },
        "metrics": metrics,
        "artifacts": sorted(artifacts),
    }
    _write_json(out / "manifest.json", manifest)
    return SummaryReport(
        kind=config.kind,
        output_dir=str(out),
        metrics=metrics,
        artifacts=tuple(sorted(artifacts)) + ("manifest.json",),
    )
