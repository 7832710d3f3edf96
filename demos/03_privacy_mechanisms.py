"""Budget conversion, Gaussian answer noise, and Gumbel noisy-max selection.

Run: python demos/03_privacy_mechanisms.py
"""

import math

import numpy as np

from privsynth import (
    BudgetError,
    NoiseSource,
    PrivacyBudget,
    eps_from_rho_delta,
    gaussian_mechanism,
    report_noisy_max,
    rho_from_eps_delta,
)

# The engine budgets in rho and reports in (epsilon, delta). The conversion
# epsilon = rho + 2*sqrt(rho*ln(1/delta)) has a closed-form inverse.
n = 10_000
epsilon, delta = 1.0, 1.0 / n**2
rho = rho_from_eps_delta(epsilon, delta)
print(f"epsilon={epsilon}, delta={delta:g}  ->  rho={rho:.6g}")
print("round trip epsilon:", eps_from_rho_delta(rho, delta))

# Gaussian mechanism: a sensitivity-1/n answer gets noise of std
# sqrt(1/(2 n^2 rho)). Splitting rho over m queries scales the noise up.
m = 64
share = rho / m
sigma = math.sqrt(1.0 / (2 * n * n * share))
rng = NoiseSource(seed=0, label="gaussian")
noisy = gaussian_mechanism(np.full(5, 0.25), n, share, rng)
print(f"\nper-query rho share {share:.3g} -> sigma {sigma:.4f}")
print("five noisy copies of 0.25:", np.round(noisy, 4))

# Noisy-max selection: add Gumbel noise to error scores, take the argmax.
# Selection frequencies match softmax(scores / scale), which we can see
# empirically.
scores = np.array([0.30, 0.20, 0.10])
scale = 1.0 / (math.sqrt(2 * 0.5) * 1)  # rho=0.5 at n=1 -> scale 1
rng = NoiseSource(seed=1, label="gumbel")
counts = np.zeros(3)
for _ in range(20_000):
    counts[report_noisy_max(scores, np.zeros(3), 1, 0.5, rng)] += 1
soft = np.exp(scores / scale)
soft /= soft.sum()
print("\nselection frequencies:", np.round(counts / counts.sum(), 3))
print("softmax(scores):      ", np.round(soft, 3))

# Every mechanism call is recorded on an append-only ledger, summed exactly;
# share(k) is the largest equal spend of which k fit in rho, and a spend past
# rho raises instead of silently leaking.
budget = PrivacyBudget.from_eps_delta(epsilon, delta)
for i in range(3):
    budget.spend(f"demo[{i}]", budget.share(3))
print("\nledger:", budget.ledger_json())
print("summary:", budget.summary())
try:
    budget.spend("one more", budget.share(3))
except BudgetError as exc:
    print("refused:", exc)
