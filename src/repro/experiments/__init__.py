"""Figure-by-figure reproduction runners for the paper's evaluation.

Each ``figXX`` module exposes a ``run(...) -> ExperimentResult`` that the
benchmark harness executes and whose report feeds EXPERIMENTS.md.  Run
them all from the command line with ``python -m repro.experiments``.
"""

from repro.experiments import (
    ablations,
    fig04_gfsk,
    fig06_profiles,
    fig08_micro,
    fig09_accuracy,
    fig10_bandwidth,
    fig11_interference,
    fig12_multipath,
    fig13_location,
)
from repro.experiments.common import (
    PAPER,
    ExperimentResult,
    ExperimentRow,
    default_dataset,
    default_testbed,
    run_scheme,
)

#: Registry of every experiment, in paper order.
EXPERIMENTS = {
    "fig4": fig04_gfsk.run,
    "fig6": fig06_profiles.run,
    "fig8": fig08_micro.run,
    "fig9": fig09_accuracy.run,
    "fig10": fig10_bandwidth.run,
    "fig11": fig11_interference.run,
    "fig12": fig12_multipath.run,
    "fig13": fig13_location.run,
    "ablations": ablations.run,
}

__all__ = [
    "EXPERIMENTS",
    "PAPER",
    "ExperimentResult",
    "ExperimentRow",
    "default_dataset",
    "default_testbed",
    "run_scheme",
]
