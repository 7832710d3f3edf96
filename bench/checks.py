"""Correctness checks on the outputs of one benchmark repetition.

Every check yields (name, ok, detail); each failure counts toward the run's
error rate. The checks read only released files or returned objects, never
the program's internal state.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

SIMPLEX_TOL = 1e-9


def relaxed_hash(relaxed: np.ndarray) -> str:
    """sha256 of the relaxed matrix as float64 bytes; identical fits hash alike."""
    return hashlib.sha256(np.ascontiguousarray(relaxed, dtype=np.float64).tobytes()).hexdigest()


def run_checks(out, spec, cap_slack: float, reference_hash: str | None) -> list[tuple[str, bool, str]]:
    """All checks for one repetition.

    `out` is a workloads.Outputs, `spec` the workloads.Spec that produced it,
    `cap_slack` the ledger's own relative cap slack. `reference_hash` is the
    first repetition's relaxed hash, or None on the first repetition.
    """
    checks = []

    def add(name, ok, detail):
        checks.append((name, bool(ok), detail))

    spent = math.fsum(out.ledger)
    add(
        "ledger_total",
        abs(spent - out.rho_total) <= out.rho_total * cap_slack + 1e-15,
        f"spent {spent!r} of rho {out.rho_total!r}",
    )
    want = out.m if spec.rounds == 1 else 2 * spec.rounds * spec.queries_per_round
    add("ledger_entries", len(out.ledger) == want, f"{len(out.ledger)} entries, expected {want}")

    relaxed = np.asarray(out.relaxed, dtype=np.float64)
    shape_ok = relaxed.ndim == 2 and relaxed.shape == (spec.n_synth, sum(spec.cards))
    worst = math.inf
    if shape_ok:
        worst = 0.0
        off = 0
        for t in spec.cards:
            block = relaxed[:, off : off + t]
            off += t
            worst = max(worst, float(-block.min()), float(np.abs(block.sum(axis=1) - 1.0).max()))
    add(
        "relaxed_on_simplex",
        shape_ok and worst <= SIMPLEX_TOL,
        f"shape {relaxed.shape}, worst block deviation {worst:.3g}",
    )

    rounded = np.asarray(out.rounded)
    cards = np.asarray(spec.cards)
    in_range = (
        rounded.ndim == 2
        and rounded.shape[1] == len(cards)
        and bool(((rounded >= 0) & (rounded < cards[None, :])).all())
    )
    add("rounded_in_range", in_range, f"shape {rounded.shape}")
    add(
        "rounded_rows",
        rounded.shape[0] == spec.released_rows,
        f"{rounded.shape[0]} rows, expected {spec.released_rows}",
    )

    if reference_hash is not None:
        digest = relaxed_hash(relaxed)
        add("relaxed_hash_stable", digest == reference_hash, f"{digest[:16]} vs {reference_hash[:16]}")

    if spec.via_cli:
        add(
            "cli_exit_codes",
            len(out.exit_codes) == 4 and all(c == 0 for c in out.exit_codes),
            f"exit codes {out.exit_codes}",
        )

    add(
        "max_error_vs_naive",
        out.max_error <= out.naive_baseline,
        f"max_error {out.max_error:.6g}, naive baseline {out.naive_baseline:.6g}",
    )
    return checks
