"""Table 3 (multi-node) + Figure 7 bench: distributed training prediction."""

import pytest

from repro.experiments.table3 import (
    run_table3_distributed,
    run_table3_single,
)


@pytest.mark.experiment
def test_table3_distributed_training(benchmark):
    result = benchmark.pedantic(
        run_table3_distributed, rounds=1, iterations=1
    )
    print()
    print(result.render())

    # Paper: distributed step R² = 0.78, MAPE = 0.15.
    assert result.step.pooled.r2 > 0.75
    assert result.step.pooled.mape < 0.3
    # Network communication makes the distributed gradient update the
    # noisiest phase (Figure 7).
    assert result.phases["grad_update"].mape >= result.phases["forward"].mape
    assert result.phases["grad_update"].mape >= result.phases["backward"].mape
    # Distributed prediction is less certain than single-GPU (more variance
    # in the measured data, Section 4.2.1).
    single = run_table3_single()
    assert result.step.pooled.r2 <= single.step.pooled.r2 + 0.02
