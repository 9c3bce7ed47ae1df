"""tools/ci_checks.py: the sizer, the exit gate and the config sets that CI runs.

The script is loaded by path and compiled from its source, so loading it
writes no bytecode and leaves ``sys.path`` and ``sys.dont_write_bytecode``
as they were.
"""

import json
import sys
import types
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "ci_checks.py"


@pytest.fixture(scope="module")
def ci():
    path, flag = list(sys.path), sys.dont_write_bytecode
    module = types.ModuleType("ci_checks")
    module.__file__ = str(SCRIPT)
    exec(compile(SCRIPT.read_text(encoding="utf-8"), str(SCRIPT), "exec"), module.__dict__)
    assert (sys.path, sys.dont_write_bytecode) == (path, flag)
    return module


def write_pair(tmp_path, name, old, new):
    (tmp_path / "base").mkdir(exist_ok=True)
    (tmp_path / "head").mkdir(exist_ok=True)
    (tmp_path / "base" / name).write_text(old)
    (tmp_path / "head" / name).write_text(new)
    return tmp_path / "base" / name, tmp_path / "head" / name


class TestSizer:
    def test_csv_cell_change_is_its_largest_relative_change(self, ci, tmp_path):
        old, new = write_pair(tmp_path, "u.csv", "x,u\n0,1\n1,4\n", "x,u\n0,1\n1,5\n")
        assert ci.differing(tmp_path / "base", tmp_path / "head") == [Path("u.csv")]
        line = ci.size_difference("u.csv", old, new)
        assert line == "u.csv: largest relative cell difference 0.2"

    def test_csv_shape_change_is_named(self, ci, tmp_path):
        old, new = write_pair(tmp_path, "u.csv", "x,u\n0,1\n1,4\n", "x,u\n0,1\n1,4\n2,9\n")
        assert ci.size_difference("u.csv", old, new) == "u.csv: shape (2, 2) -> (3, 2)"

    def test_manifest_is_sized_by_its_metrics_only(self, ci, tmp_path):
        base = {"config_sha256": "a", "metrics": {"D_fd": 2.0, "K": 64, "rel": [1.0, 3.0]}}
        head = {"config_sha256": "b", "metrics": {"D_fd": 2.0, "K": 64, "rel": [1.0, 4.0]}}
        old, new = write_pair(tmp_path, "manifest.json", json.dumps(base), json.dumps(head))
        assert ci.size_difference("manifest.json", old, new) == (
            "manifest.json: metrics that differ, each with its largest relative change: rel 0.25"
        )
        base["metrics"] = head["metrics"]
        old, new = write_pair(tmp_path, "manifest.json", json.dumps(base), json.dumps(head))
        assert ci.size_difference("manifest.json", old, new).endswith("change: none")

    def test_a_key_on_one_side_only_is_named(self, ci, tmp_path):
        old, new = write_pair(tmp_path, "report.json", '{"a": 1, "b": 2}', '{"a": 1, "c": 2}')
        assert ci.size_difference("report.json", old, new) == (
            "report.json: keys that differ, each with its largest relative change: "
            "b only at the base, c only at the head"
        )

    def test_a_file_on_one_side_only_or_unreadable_fails_nothing(self, ci, tmp_path):
        old, new = write_pair(tmp_path, "report.json", "{", "{}")
        assert ci.size_difference("report.json", old, new).startswith(
            "report.json: differs, and could not be sized"
        )
        (tmp_path / "head" / "extra.csv").write_text("x\n1\n")
        differing = ci.differing(tmp_path / "base", tmp_path / "head")
        assert differing == [Path("extra.csv"), Path("report.json")]
        assert ci.size_difference("extra.csv", tmp_path / "base" / "extra.csv",
                                  tmp_path / "head" / "extra.csv") == "extra.csv: only at the head"


class TestExitGate:
    def test_only_a_config_that_runs_at_the_base_and_fails_at_the_head_is_flagged(self, ci):
        base = {"broken": 0, "same": 0, "halts": 3, "mended": 3}
        head = {"broken": 3, "same": 0, "halts": 3, "mended": 0}
        assert ci.regressions(base, head) == [("broken", 0, 3)]


class TestConfigSets:
    def test_bad_configs_are_twelve_edits_of_sample_configs(self, ci):
        samples = {path.stem for path in ci.SAMPLES.glob("*.json")}
        names = [f"{sample}-{tag}" for sample, tag, _, _ in ci.BAD_CONFIGS]
        assert len(names) == len(set(names)) == 12
        for sample, _, edit, expected in ci.BAD_CONFIGS:
            assert sample in samples and expected
            config = json.loads((ci.SAMPLES / f"{sample}.json").read_text())
            assert all(section in config for section in edit)

    def test_compare_runs_seventy_four_configs(self, ci, tmp_path):
        path, flag, modules = list(sys.path), sys.dont_write_bytecode, set(sys.modules)
        configs = ci.write_configs(tmp_path / "configs", ci.SEEDS)
        assert (sys.path, sys.dont_write_bytecode) == (path, flag)
        assert "workloads" not in set(sys.modules) - modules
        assert len({config.stem for config in configs}) == len(configs) == 74
        samples = {path.name for path in ci.SAMPLES.glob("*.json")}
        assert samples <= {config.name for config in configs}
        for config in configs:
            assert json.loads(config.read_text())["kind"]
