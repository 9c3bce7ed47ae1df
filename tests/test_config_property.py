"""Property test: ``validate`` accepts exactly the configs that ``run`` accepts.

Each example takes a small valid config of one kind and changes one key: it
deletes the key, adds an unknown key beside it, or sets it to a value from a
fixed pool.  Whatever the change, ``validate`` must exit 0 or 2, ``run`` must
exit 0, 2 or 3 (never a traceback), and a config that validates must not be
rejected by ``run``.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest

from wavelab.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TWO_PI = 6.283185307179586
PEAKS = {"q": [-1.0, 1.0], "p": [1.0, 0.5], "dt": 0.01, "t_end": 0.02}
CH = {"kappa": 0.3, "dt": 0.01, "t_end": 0.02}

# (kind, params, optional params keys, optional keys of the nested object)
BASES = [
    ("ch_evolution", dict(CH, initial={"type": "sine", "amplitude": 0.2}),
     ["dealias", "record_every", "slope_ceiling", "form"],
     ["mode", "phase"]),
    ("ch_evolution", dict(CH, initial={"type": "sech2", "amplitude": 0.2, "width": 1.0}),
     [], ["center"]),
    ("ch_evolution", dict(CH, initial={"type": "random", "amplitude": 0.2, "max_mode": 3}),
     [], []),
    ("peakon", PEAKS, ["record_every", "collision_sep"], []),
    ("cross_validation", PEAKS, ["record_every"], []),
    ("linear_sw", {"profile": {"amplitude": 0.5, "width": 1.0}, "t": 0.5, "dt": 0.01},
     ["nz", "c0"], ["center"]),
    ("variational_check", {"n_intervals": 4, "t_total": 1.0, "eps": 0.001},
     ["c0", "n_modes", "path_amplitude", "pert_amplitude"], []),
    ("scaling_demo", {"h0": 1.0, "lam": 10.0, "a": 0.1}, ["g", "rho", "p0", "nz"], []),
]

# extreme finite magnitudes, where overflow, underflow and non-convergence
# must still end in exit 2 or 3
EXTREMES = [1e308, -1e308, 1e-300, 5e-324]
POOL = ["x", True, False, None, [], {}, -1, 0, 1, 0.5, 2.5, -2.5, 7, *EXTREMES]
DELETE, UNKNOWN = object(), object()


def key_paths(kind, params, optional, nested_optional):
    """Paths of every key a change may touch: top level, grid, params,
    the nested initial/profile object and every optional key."""
    paths = [(k,) for k in ("kind", "grid", "params", "output_dir", "seed")]
    paths += [("grid", "n"), ("grid", "L")]
    for key, value in params.items():
        paths.append(("params", key))
        if isinstance(value, dict):
            paths += [("params", key, k) for k in [*value, *nested_optional]]
    paths += [("params", key) for key in optional]
    return paths


CASES = [
    (kind, params, path)
    for kind, params, optional, nested_optional in BASES
    for path in key_paths(kind, params, optional, nested_optional)
]


def mutated(kind, params, path, change):
    config = {
        "kind": kind,
        "grid": {"n": 16, "L": TWO_PI},
        "params": copy.deepcopy(params),
        "output_dir": "out",
        "seed": 0,
    }
    holder = config
    for key in path[:-1]:
        holder = holder[key]
    if change is DELETE:
        holder.pop(path[-1], None)
    elif change is UNKNOWN:
        holder["bogus_key"] = 1
    else:
        holder[path[-1]] = change
    return config


def exit_code(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=150)
@hypothesis.given(
    case=st.sampled_from(CASES),
    change=st.sampled_from([DELETE, UNKNOWN, *POOL]),
)
def test_validate_accepts_only_what_run_accepts(case, change):
    config = mutated(*case, change)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = str(Path(tmp) / "out")
        validated = exit_code("validate", str(path), "--output-dir", out)
        ran = exit_code("run", str(path), "--output-dir", out)
    assert validated in (0, 2)
    assert ran in (0, 2, 3)
    assert (validated == 0) == (ran in (0, 3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [*EXTREMES, 10**15, -10**15])
def test_extreme_value_in_every_key(value):
    # every case, not a sample: the few that overflow, underflow or fail to
    # converge are too rare for the examples above to reach.  An integer of
    # 10**15 sizes arrays beyond any address space and loops that would not
    # end, so the parser must reject it before it allocates or loops
    check = test_validate_accepts_only_what_run_accepts.hypothesis.inner_test
    for case in CASES:
        check(case, value)
