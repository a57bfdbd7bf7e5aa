"""One record through blochmle in this process, the way ``blochmle
estimate`` runs it.

The blochmle functions are looked up on their modules at call time, so the
wrappers the span recorder installs see every call.
"""

from __future__ import annotations

from blochmle import io as bio
from blochmle import simulator as bsim


def estimate(text: str) -> str:
    """What ``blochmle estimate`` does with one counts file."""
    counts = bio.parse_counts(text)
    return bio.report_to_json(bio.build_estimate_report(counts))


def simulate(sim):
    spec = bsim.SimulationSpec(
        xi_true=tuple(sim.xi_true), mode=sim.mode, n_shots=sim.n_shots, weights=sim.weights, seed=sim.sim_seed
    )
    return bsim.simulate(spec)


def crosscheck(sim):
    """``simulate | estimate --oracle`` in one process; returns the counts
    and the report."""
    counts = simulate(sim)
    parsed = bio.parse_counts(bio.counts_to_json(counts))
    return counts, bio.report_to_json(bio.build_estimate_report(parsed, with_oracle=True))
