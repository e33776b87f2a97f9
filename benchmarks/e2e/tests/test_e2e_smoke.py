"""A short trickle against a real server answers everything correctly."""

import workloads


def test_trickle_smoke(tmp_path):
    result = workloads.run_workload("trickle", seed=1, seconds=3.0,
                                    traced=False, workdir=tmp_path)
    assert result["sent"] > 100
    assert result["ok"] == result["sent"]
    assert result["end_to_end"]["error_pct"]["value"] == 0.0
    assert result["end_to_end"]["p50_ms"]["value"] > 0.0
