"""Batch policy validation and Figure-6-driven tuning."""

import json

import pytest

from repro.serve import BatchPolicy, policy_from_fig6

pytestmark = pytest.mark.fast


class TestBatchPolicy:
    def test_defaults(self):
        assert BatchPolicy().max_batch == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)


class TestPolicyFromFig6:
    def test_repo_artifact(self):
        """The checked-in fig6.json picks the paper's diminishing-gains
        knee (batch 16 for the recorded optimized column)."""
        policy = policy_from_fig6()
        assert policy.max_batch == 16

    def test_custom_artifact(self, tmp_path):
        artifact = tmp_path / "fig6.json"
        artifact.write_text(json.dumps({
            "rows": [[1, "400.0", "300.0", "1.3x"],
                     [2, "250.0", "200.0", "1.2x"],
                     [4, "240.0", "195.0", "1.2x"]],
        }))
        # 1 -> 2 improves 33%, 2 -> 4 improves 2.5% < 10%: knee is 2
        assert policy_from_fig6(artifact) == BatchPolicy(max_batch=2)

    def test_empty_rows_falls_back_with_warning(self, tmp_path):
        artifact = tmp_path / "fig6.json"
        artifact.write_text(json.dumps({"rows": []}))
        with pytest.warns(RuntimeWarning, match="falling back"):
            policy = policy_from_fig6(artifact)
        assert policy == BatchPolicy()

    def test_missing_artifact_falls_back_with_warning(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="falling back"):
            policy = policy_from_fig6(tmp_path / "nope.json")
        assert policy == BatchPolicy()

    def test_malformed_artifact_falls_back_with_warning(self, tmp_path):
        artifact = tmp_path / "fig6.json"
        artifact.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert policy_from_fig6(artifact) == BatchPolicy()
        artifact.write_text(json.dumps({"wrong_key": 1}))
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert policy_from_fig6(artifact) == BatchPolicy()
