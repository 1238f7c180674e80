"""Fig. 4: the effect of chip multiprocessing (§3.1).

Two cores versus one on the i7 (45) and i5 (32), with SMT and Turbo Boost
disabled so CMP is the only thread-level-parallelism mechanism.
Architecture Finding 1: enabling a core is not consistently energy
efficient — the i7 pays twice the i5's power overhead for the same
performance gain.
"""

from __future__ import annotations

from typing import Optional

from repro.core.study import Study
from repro.experiments import paper_data
from repro.experiments.base import ExperimentResult, resolve_study
from repro.experiments.features import compare, effect_row, group_energy_rows
from repro.hardware.catalog import CORE_I5_32, CORE_I7_45
from repro.hardware.config import Configuration


def effects(study: Study):
    """The two comparisons of the figure."""
    i7 = compare(
        study,
        Configuration(CORE_I7_45, 2, 1, 2.66),
        Configuration(CORE_I7_45, 1, 1, 2.66),
        label="i7 (45) 2C/1C",
    )
    i5 = compare(
        study,
        Configuration(CORE_I5_32, 2, 1, 3.46),
        Configuration(CORE_I5_32, 1, 1, 3.46),
        label="i5 (32) 2C/1C",
    )
    return i7, i5


def run(study: Optional[Study] = None) -> ExperimentResult:
    study = resolve_study(study)
    i7, i5 = effects(study)
    rows = [
        effect_row(i7, paper_data.FIG4_CMP["i7_45"]),
        effect_row(i5, paper_data.FIG4_CMP["i5_32"]),
        *group_energy_rows(i7, paper_data.FIG4_CMP_ENERGY_BY_GROUP["i7_45"]),
        *group_energy_rows(i5, paper_data.FIG4_CMP_ENERGY_BY_GROUP["i5_32"]),
    ]
    return ExperimentResult(
        experiment_id="fig4",
        title="Effect of CMP: two cores versus one (no SMT, no Turbo Boost)",
        paper_section="Fig. 4 / Architecture Finding 1",
        rows=tuple(rows),
    )
