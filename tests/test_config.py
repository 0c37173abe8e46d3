import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from cvloc.config import ConfigError, ScenarioConfig, load_config


def write_config(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(ScenarioConfig):
            fh.write(f"{f.name} = {getattr(cfg, f.name)}\n")


class TestDefaults:
    def test_defaults_validate(self):
        ScenarioConfig().validate()

    def test_default_scenario_shape(self):
        cfg = ScenarioConfig()
        assert cfg.cell_interval == 5.0
        assert cfg.particles == 1000
        assert cfg.traj_steps == 200
        assert cfg.measurement_mode == "corner-sum"


class TestFileParsing:
    def test_round_trip(self, tmp_path):
        cfg = ScenarioConfig(particles=250, world_seed=42, world_kind="flat")
        path = tmp_path / "scenario.cfg"
        write_config(cfg, str(path))
        back = load_config(str(path))
        assert back == cfg

    def test_comments_blank_lines_and_inline_comments(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("\n# header\nparticles = 123  # inline\n\nworld_seed = 9\n")
        cfg = load_config(str(path))
        assert cfg.particles == 123
        assert cfg.world_seed == 9

    def test_unknown_key_reports_path_and_line(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("particles = 10\nworld_sead = 1\n")
        with pytest.raises(ConfigError) as e:
            load_config(str(path))
        assert "world_sead" in str(e.value)
        assert ":2" in str(e.value)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("particles 10\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_type_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("# header\nworld_seed = 3\nparticles = plenty\n")
        with pytest.raises(ConfigError) as e:
            load_config(str(path))
        assert str(e.value).startswith(f"{path}:3: bad value for particles: ")

    def test_bool_spellings(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("corridor = yes\nnormalize_descriptors = off\n")
        cfg = load_config(str(path))
        assert cfg.corridor is True
        assert cfg.normalize_descriptors is False

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("particles = 10\n")
        cfg = load_config(str(path), ["particles=5", " out_dir = a=b ", "particles = 99"])
        assert cfg.particles == 99  # the later override wins
        assert cfg.out_dir == "a=b"  # split on the first '=', both sides stripped


class TestValidation:
    @pytest.mark.parametrize("key,value,choices", [
        ("world_kind", "bumpy", "smooth, flat"),
        ("pipeline_variant", "triple", "dual, shared"),
        ("traj_kind", "zigzag", "loop, line"),
        ("measurement_mode", "cubic", "corner-sum, bilinear"),
        ("log_format", "xml", "csv, jsonl"),
        ("heatmap_contrast", "gamma", "linear, exponential"),
    ])
    def test_enum_keys_reject_unknown_values(self, key, value, choices):
        for choice in choices.split(", "):  # read as strings from an entry
            load_config(None, [f"{key}={choice}"]).validate()
        cfg = ScenarioConfig()
        setattr(cfg, key, value)
        with pytest.raises(ConfigError, match=f"^{key} must be one of {choices}, got '{value}'$"):
            cfg.validate()

    @pytest.mark.parametrize("key,value", [
        ("particles", 0),
        ("traj_steps", 0),
        ("cell_interval", 0.0),
        ("probability_floor", 0.0),
        ("sigma_trans", -0.1),
        ("eval_percent", 0.0),
        ("eval_percent", 101.0),
    ])
    def test_range_checks(self, key, value):
        cfg = ScenarioConfig()
        setattr(cfg, key, value)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("key", ["clusters", "reduced_dim", "hidden_dim", "world_features",
                                     "world_feature_dim"])
    def test_descriptor_widths_below_one_rejected_by_name(self, key, value):
        cfg = ScenarioConfig()
        setattr(cfg, key, value)
        with pytest.raises(ConfigError, match=f"^{key} must be >= 1"):
            cfg.validate()

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("key", ["eval_queries", "eval_top_k"])
    def test_eval_counts_below_one_rejected_by_name(self, key, value):
        cfg = ScenarioConfig()
        setattr(cfg, key, value)
        with pytest.raises(ConfigError, match=f"^{key} must be >= 1$"):
            cfg.validate()

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["traj_length", "world_length_scale", "corridor_width", "loss_alpha"])
    def test_finite_positive_keys_rejected_by_name(self, key, value):
        cfg = ScenarioConfig()
        setattr(cfg, key, value)
        with pytest.raises(ConfigError, match=f"^{key} must be finite and positive$"):
            cfg.validate()

    def test_missing_referenced_files_rejected(self):
        cfg = ScenarioConfig(trajectory_file="/nonexistent/t.csv")
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = ScenarioConfig(params_file="/nonexistent/p.bin")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["nope=1"])


class TestReadme:
    def test_scenario_configuration_section_names_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Scenario configuration", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"`([a-z_0-9]+)`", section))
        assert [f.name for f in fields(ScenarioConfig) if f.name not in named] == []


class TestParsedFields:
    def test_alias_regions(self):
        cfg = ScenarioConfig(alias_regions="50,50,150,150,8; 10,10,30,30,5")
        assert cfg.parsed_aliases() == [(50, 50, 150, 150, 8), (10, 10, 30, 30, 5)]

    def test_empty_alias_regions(self):
        assert ScenarioConfig().parsed_aliases() == []

    def test_malformed_alias_rejected(self):
        cfg = ScenarioConfig(alias_regions="1,2,3")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_thresholds(self):
        cfg = ScenarioConfig(eval_thresholds="5, 10,25")
        assert cfg.parsed_thresholds() == [5.0, 10.0, 25.0]

    def test_empty_thresholds_rejected(self):
        cfg = ScenarioConfig(eval_thresholds=" ")
        with pytest.raises(ConfigError):
            cfg.validate()
