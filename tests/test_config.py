"""Tests for repro.config."""

from __future__ import annotations

import pytest

from repro.config import (
    CrypTextConfig,
    DEFAULT_CONFIG,
    DEFAULT_EDIT_DISTANCE,
    DEFAULT_PHONETIC_LEVEL,
    SUPPORTED_PHONETIC_LEVELS,
)
from repro.errors import ConfigurationError


class TestDefaults:
    def test_paper_defaults(self):
        assert DEFAULT_CONFIG.phonetic_level == DEFAULT_PHONETIC_LEVEL == 1
        assert DEFAULT_CONFIG.edit_distance == DEFAULT_EDIT_DISTANCE == 3

    def test_max_phonetic_level_covers_paper_hashmaps(self):
        assert DEFAULT_CONFIG.max_phonetic_level == 2
        assert set(SUPPORTED_PHONETIC_LEVELS) == {0, 1, 2}

    def test_default_ratio_in_paper_demo_range(self):
        assert DEFAULT_CONFIG.perturbation_ratio in (0.15, 0.25, 0.5)


class TestValidation:
    def test_invalid_phonetic_level_rejected(self):
        with pytest.raises(ConfigurationError):
            CrypTextConfig(phonetic_level=5)

    def test_negative_edit_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            CrypTextConfig(edit_distance=-1)

    def test_non_integer_edit_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            CrypTextConfig(edit_distance=1.5)  # type: ignore[arg-type]

    def test_phonetic_level_above_max_rejected(self):
        with pytest.raises(ConfigurationError):
            CrypTextConfig(phonetic_level=2, max_phonetic_level=1)

    def test_ratio_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            CrypTextConfig(perturbation_ratio=1.5)
        with pytest.raises(ConfigurationError):
            CrypTextConfig(perturbation_ratio=-0.1)

    def test_cache_settings_validated(self):
        with pytest.raises(ConfigurationError):
            CrypTextConfig(cache_ttl_seconds=0)
        with pytest.raises(ConfigurationError):
            CrypTextConfig(cache_max_entries=0)

    def test_crawler_and_lm_settings_validated(self):
        with pytest.raises(ConfigurationError):
            CrypTextConfig(crawler_batch_size=0)
        with pytest.raises(ConfigurationError):
            CrypTextConfig(lm_order=0)
        with pytest.raises(ConfigurationError):
            CrypTextConfig(normalizer_max_candidates=0)


class TestOverridesAndSerialization:
    def test_with_overrides_returns_new_validated_config(self):
        config = CrypTextConfig()
        updated = config.with_overrides(edit_distance=2, perturbation_ratio=0.5)
        assert updated.edit_distance == 2
        assert updated.perturbation_ratio == 0.5
        # the original is untouched (frozen dataclass semantics)
        assert config.edit_distance == 3

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigurationError):
            CrypTextConfig().with_overrides(edit_distance=-2)

    def test_round_trip_to_from_dict(self):
        config = CrypTextConfig(edit_distance=2, seed=99, extra={"note": "x"})
        restored = CrypTextConfig.from_dict(config.to_dict())
        assert restored == config

    def test_from_dict_collects_unknown_keys_into_extra(self):
        # reader_processes was a field once; configs saved then still load.
        config = CrypTextConfig.from_dict(
            {"edit_distance": 1, "future_knob": True, "reader_processes": 4}
        )
        assert config.edit_distance == 1
        assert config.extra["future_knob"] is True
        assert config.extra["reader_processes"] == 4

    def test_config_is_hashable_and_frozen(self):
        config = CrypTextConfig()
        with pytest.raises(AttributeError):
            config.edit_distance = 5  # type: ignore[misc]
