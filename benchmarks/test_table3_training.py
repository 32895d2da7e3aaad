"""Table 3 (single GPU) + Figure 5 bench: training-step prediction."""

import pytest

from repro.experiments.table3 import run_table3_single


@pytest.mark.experiment
def test_table3_single_gpu_training(benchmark):
    result = benchmark.pedantic(run_table3_single, rounds=1, iterations=1)
    print()
    print(result.render())

    # Paper: entire step R² = 0.88, MAPE = 0.18; per-model MAPE < 0.28.
    assert result.step.pooled.r2 > 0.85
    assert result.step.pooled.mape < 0.3
    for model, metrics in result.step.per_model.items():
        assert metrics.mape < 0.3, model
    # The forward and backward phases predict well; the gradient update is
    # the noisy one (Figure 5's scatter).
    assert result.phases["forward"].r2 > 0.9
    assert result.phases["backward"].r2 > 0.9
    assert result.phases["grad_update"].mape >= result.phases["forward"].mape
