"""End to end: private fit, synthetic rows out, error report.

Run: python demos/05_end_to_end.py
"""

import json

import numpy as np

from privsynth import (
    DiscreteDataset,
    FitConfig,
    RoundingConfig,
    fit,
    max_error,
    random_workload,
    randomized_round,
    replay,
    schema_from_cardinalities,
)

# Correlated private data: the third column often copies the first.
rng = np.random.default_rng(11)
n = 4000
schema = schema_from_cardinalities((4, 3, 4))
c0 = rng.choice(4, n, p=[0.5, 0.3, 0.15, 0.05])
c1 = rng.choice(3, n, p=[0.6, 0.3, 0.1])
c2 = np.where(rng.random(n) < 0.6, c0, rng.integers(0, 4, n))
data = DiscreteDataset(schema, np.column_stack([c0, c1, c2]))

workload = random_workload(schema, k=2, num_marginals=3, seed=0)
print(f"workload: {len(workload.marginals)} marginals, m = {workload.m} queries")

# The adaptive branch answers only rounds*queries_per_round of them, chosen
# where the current synthetic data is most wrong.
config = FitConfig(epsilon=0.5, rounds=3, queries_per_round=6, n_synth=300, seed=4)
result = fit(data, workload, config)

summary = result.budget.summary()
print(f"\nbudget: rho_total={summary['rho_total']:.5g} spent={summary['rho_spent']:.5g}")
print(f"answered {len(result.selected)} of {workload.m} queries")
# replay rebuilds each round's relaxed dataset from the released record alone:
# the release is post-processing of the noisy answers. The error is measured
# against the private data: a non-private diagnostic, which is why fit()
# leaves it out of its round records.
round_datasets = replay(json.loads(result.to_json()), workload)
same = np.array_equal(round_datasets[-1].data, result.relaxed.data)
print(f"replayed last round equals the fit: {same}")
print("per-round max error (non-private diagnostic):")
for r, relaxed in zip(result.rounds, round_datasets):
    print(f"  round {r['round']}: selected={r['selected_total']:2d} "
          f"loss={r['projection_loss']:.2e} "
          f"max_error={max_error(workload, data, relaxed).max_error:.4f}")

report = max_error(workload, data, result.relaxed)
print(f"\nrelaxed output: max_error={report.max_error:.4f} "
      f"(naive baseline {report.naive_baseline:.4f})")

synth = randomized_round(result.relaxed, RoundingConfig(oversample=5, seed=2))
rounded = max_error(workload, data, synth)
print(f"rounded output ({synth.n} rows): max_error={rounded.max_error:.4f}")

# The synthetic rows live in the original schema, so any downstream consumer
# can treat them like the real table.
print("\nfirst five synthetic rows (category indices):")
print(synth.rows[:5])
