"""Population protocols with unordered data.

Exact pairwise semantics, output classification of finite populations under
fairness, bounded well-specification sweeps, and a compiler turning
two-counter machines into protocols with halting-linked behaviour.

The package namespace holds the README's library map and the model's core
names; everything else is imported from its submodule.
"""

from .core import Configuration, Protocol, Rule, UdppError, enabled_instances, fire
from .counter import cm_run
from .exploration import check_well_specification, classify_output, random_fair_run
from .reduction import build_witness, compile_machine, replay_halting_run, run_monitors

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "Protocol",
    "Rule",
    "UdppError",
    "build_witness",
    "check_well_specification",
    "classify_output",
    "cm_run",
    "compile_machine",
    "enabled_instances",
    "fire",
    "random_fair_run",
    "replay_halting_run",
    "run_monitors",
]
