"""Unit tests for PG-HIVE configuration validation."""

import pytest

from repro.core.config import AdaptiveOverrides, ClusteringMethod, PGHiveConfig
from repro.errors import ConfigurationError


class TestPGHiveConfig:
    def test_defaults_match_paper(self):
        config = PGHiveConfig()
        assert config.theta == 0.9  # Algorithm 1 default
        assert config.method is ClusteringMethod.ELSH
        assert config.post_processing is True

    @pytest.mark.parametrize("theta", [-0.1, 1.1])
    def test_invalid_theta(self, theta):
        with pytest.raises(ConfigurationError):
            PGHiveConfig(theta=theta)

    def test_invalid_embedding_dim(self):
        with pytest.raises(ConfigurationError):
            PGHiveConfig(embedding_dim=0)

    def test_invalid_label_weight(self):
        with pytest.raises(ConfigurationError):
            PGHiveConfig(label_weight=0)

    def test_invalid_band_size(self):
        with pytest.raises(ConfigurationError):
            PGHiveConfig(minhash_band_size=0)


class TestAdaptiveOverrides:
    def test_all_none_by_default(self):
        overrides = AdaptiveOverrides()
        assert overrides.bucket_length is None
        assert overrides.num_tables is None
        assert overrides.alpha is None

    def test_invalid_bucket_length(self):
        with pytest.raises(ConfigurationError):
            AdaptiveOverrides(bucket_length=-1.0)

    def test_invalid_num_tables(self):
        with pytest.raises(ConfigurationError):
            AdaptiveOverrides(num_tables=0)

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            AdaptiveOverrides(alpha=0)
