"""Synthesize post-2011 processors: the ``ProjectedProcessor`` generator.

Two core templates anchor the projection to the measured era:

* the **big** core descends from the calibrated Nehalem/i7 power character
  (wider issue, better overlap — the incremental core gains "Trends in
  Processor Architecture" describes for the 2012-2018 generations);
* the **little** core descends from the calibrated Bonnell/Atom character,
  upgraded to a modest out-of-order design (the Silvermont turn).

A template's per-core area and power coefficients are expressed at the
45 nm reference node and scaled to a projected node by the node physics in
:mod:`repro.hardware.technology`:

* dynamic power scales with ``capacitance_scale`` x ``(V/V_45)^2`` x
  ``(f/f_45)`` (the classic CV^2 f term);
* idle/leakage power scales with ``capacitance_scale`` x
  ``leakage_scale`` x ``(V/V_45)^2`` (transistors shrink, but each leaks
  relatively more);
* per-core die area shrinks with the *density* trend (``AREA_SCALE_45``),
  which outruns the capacitance/power shrink once voltage stops falling —
  the divergence that creates dark silicon: transistors keep getting
  cheaper to place but not proportionally cheaper to power;
* the uncore floor shrinks far more slowly — I/O, PHYs, and fabric do not
  scale with logic — so only 60 % of it rides the dynamic scale.

Candidates are (big count, big clock, little count, little clock) tuples
drawn by a seeded :class:`random.Random` and kept when they fit the fixed
area and TDP budget; peak power is validated with the study's own
:func:`repro.hardware.power.package_power` at full utilisation.  Dark
silicon is *measured*, not assumed: a candidate's dark fraction is the
share of the area budget that cannot be populated with even the smallest,
slowest core without busting the power budget.

Determinism: the generator never consults wall clock, PID, or builtin
``hash``; draws come from :func:`repro.core.seeding.seed_from_key` and the
candidate list is returned sorted by key, so the same (node, samples,
budget, seed) produce the identical tuple in any process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Mapping, Optional

from repro.core.quantities import Hertz
from repro.core.seeding import seed_from_key
from repro.hardware.config import Configuration
from repro.hardware.microarch import Microarchitecture
from repro.hardware.power import package_power
from repro.hardware.processor import MemorySystem, PowerCharacter, ProcessorSpec
from repro.hardware.technology import NODE_45NM, PROJECTED_NODES, ProcessNode
from repro.hardware.turbo import TurboState

#: Projected big core: Nehalem's successor line — wider issue, better
#: memory-level parallelism, mature SMT; per-core energy about Nehalem's.
PROJECTED_BIG = Microarchitecture(
    name="ProjectedBig",
    issue_width=6,
    out_of_order=True,
    pipeline_depth=16,
    issue_efficiency=0.82,
    miss_overlap=0.75,
    smt_overlap=0.55,
    smt_contention=0.03,
    epi_factor=1.00,
    smt_power_overhead=0.20,
)

#: Projected little core: Bonnell's successor — narrow out-of-order,
#: single-threaded, austere energy per instruction.
PROJECTED_LITTLE = Microarchitecture(
    name="ProjectedLittle",
    issue_width=3,
    out_of_order=True,
    pipeline_depth=14,
    issue_efficiency=0.58,
    miss_overlap=0.30,
    smt_overlap=0.0,
    smt_contention=0.0,
    epi_factor=0.58,
)


@dataclass(frozen=True, slots=True)
class CoreTemplate:
    """One core design expressed at the 45 nm reference node."""

    kind: str
    family: Microarchitecture
    #: Per-core die area at 45 nm, mm^2.
    area_mm2_45: float
    #: Per-core active switching power at the reference clock, W.
    active_watts_45: float
    #: Per-core idle (leakage + clock-tree) power, W.
    idle_watts_45: float
    #: Package uncore floor this core class drags in, W.
    uncore_watts_45: float
    #: Clock the 45 nm power coefficients are calibrated at, GHz.
    base_clock_ghz_45: float
    threads_per_core: int
    llc_mb_per_core: float
    #: Core logic transistors, millions (metadata only).
    transistors_m_per_core: float


#: Anchored to the calibrated i7/Nehalem PowerCharacter (catalog.py):
#: 13.5 W active / 2.6 W idle per core, 4.0 W uncore, 2.66 GHz, ~263 mm^2
#: die over four cores and a large uncore.
BIG_TEMPLATE = CoreTemplate(
    kind="big",
    family=PROJECTED_BIG,
    area_mm2_45=22.0,
    active_watts_45=13.5,
    idle_watts_45=2.6,
    uncore_watts_45=4.0,
    base_clock_ghz_45=2.66,
    threads_per_core=2,
    llc_mb_per_core=2.0,
    transistors_m_per_core=150.0,
)

#: Anchored to the calibrated Atom PowerCharacter: ~1.2 W active / 0.22 W
#: idle per core at 1.66 GHz, with a small-package uncore floor.
LITTLE_TEMPLATE = CoreTemplate(
    kind="little",
    family=PROJECTED_LITTLE,
    area_mm2_45=6.0,
    active_watts_45=1.35,
    idle_watts_45=0.25,
    uncore_watts_45=1.2,
    base_clock_ghz_45=1.66,
    threads_per_core=1,
    llc_mb_per_core=0.5,
    transistors_m_per_core=35.0,
)

TEMPLATES = {"big": BIG_TEMPLATE, "little": LITTLE_TEMPLATE}

#: Stock-clock grids per node, GHz.  Frequency plateaus after 2011 — the
#: SPEC-Power record shows clocks crawling from ~3.2 to ~3.7 GHz over four
#: shrinks while core counts explode — so the grid tops out slowly.
BIG_CLOCKS = {
    22: (2.4, 2.8, 3.2),
    14: (2.6, 3.0, 3.4),
    10: (2.8, 3.2, 3.6),
    7: (2.9, 3.3, 3.7),
}
LITTLE_CLOCKS = {
    22: (1.2, 1.6, 2.0),
    14: (1.4, 1.8, 2.2),
    10: (1.5, 1.9, 2.3),
    7: (1.6, 2.0, 2.4),
}

#: Logic-density scale per node relative to 45 nm: per-core area shrinks
#: roughly 0.57-0.65x per step (density gains themselves slow down), while
#: dynamic power per core shrinks only ~0.62-0.65x (capacitance x V^2 with
#: voltage nearly stuck).  Power density therefore *rises* every shrink —
#: the dark-silicon driver.
AREA_SCALE_45 = {22: 0.30, 14: 0.17, 10: 0.105, 7: 0.068}

#: Memory system per node: each DRAM generation buys bandwidth quickly and
#: latency slowly, continuing the catalog's DDR2 -> DDR3 trajectory.
NODE_MEMORY = {
    22: MemorySystem(latency_ns=50.0, bandwidth_gbs=25.6, dram="DDR3-1600"),
    14: MemorySystem(latency_ns=47.0, bandwidth_gbs=38.4, dram="DDR4-2400"),
    10: MemorySystem(latency_ns=44.0, bandwidth_gbs=51.2, dram="DDR4-3200"),
    7: MemorySystem(latency_ns=41.0, bandwidth_gbs=76.8, dram="DDR5-4800"),
}

#: Nominal launch year per projected node (spec metadata).
NODE_RELEASE = {22: "'12", 14: "'14", 10: "'17", 7: "'19"}


class ProjectionQueryError(ValueError):
    """Projection parameters that name no search."""


@dataclass(frozen=True, slots=True)
class Budget:
    """The fixed die-area and package-power envelope candidates must fit.

    Defaults match the measured desktop class: the i7's ~263 mm^2 die and
    130 W TDP.  Holding the envelope constant across shrinks is what makes
    dark silicon visible: transistors keep getting cheaper to *place* but
    not to *power*.
    """

    area_mm2: float = 260.0
    tdp_w: float = 130.0

    def __post_init__(self) -> None:
        # ``0 < x < inf`` is false for NaN too.
        if not (0 < self.area_mm2 < math.inf and 0 < self.tdp_w < math.inf):
            raise ProjectionQueryError(
                f"budget axes must be positive and finite, got area "
                f"{self.area_mm2!r} mm^2 and tdp {self.tdp_w!r} W"
            )


#: Default projected node list, largest feature size first.
DEFAULT_NODES = (22, 14, 10, 7)


@dataclass(frozen=True, slots=True)
class ProjectionQuery:
    """The checked arguments of one frontier search."""

    nodes: tuple[int, ...]
    samples: int
    seed: int
    budget: Budget


def parse_query(
    params: Mapping[str, object],
    *,
    default_samples: int,
    max_samples: Optional[int] = None,
) -> ProjectionQuery:
    """The one parser of ``repro project`` and ``GET /project`` input:
    ``params`` maps ``nodes`` (comma-separated nanometres), ``samples``
    (per node), ``seed``, ``area`` (mm^2) and ``tdp`` (W) to text, absent
    or ``None`` meaning the default.  The doors differ only in
    ``default_samples`` and ``max_samples`` (``None``: no cap).  Every
    failure is a :class:`ProjectionQueryError`; a budget no machine fits
    is refused by :func:`synthesize_candidates`."""

    def number(name: str, kind: type, default: object):
        raw = params.get(name)
        try:
            return default if raw is None else kind(raw)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ProjectionQueryError(
                f"{name} must be {what}, got {raw!r}"
            ) from None

    raw_nodes = params.get("nodes")
    try:
        nodes = (
            DEFAULT_NODES
            if raw_nodes is None
            else tuple(int(part) for part in str(raw_nodes).split(",") if part)
        )
    except ValueError:
        nodes = ()
    distinct = set(nodes)
    if not nodes or len(distinct) < len(nodes) or not distinct <= set(PROJECTED_NODES):
        raise ProjectionQueryError(
            f"nodes must be distinct projected nodes, comma-separated, from "
            f"{sorted(PROJECTED_NODES, reverse=True)}; got {raw_nodes!r}"
        )
    samples = number("samples", int, default_samples)
    if samples < 1:
        raise ProjectionQueryError(f"samples must be positive, got {samples}")
    if max_samples is not None and samples > max_samples:
        raise ProjectionQueryError(
            f"samples must be at most {max_samples}, got {samples}"
        )
    return ProjectionQuery(
        nodes=nodes,
        samples=samples,
        seed=number("seed", int, 0),
        budget=Budget(
            area_mm2=number("area", float, Budget().area_mm2),
            tdp_w=number("tdp", float, Budget().tdp_w),
        ),
    )


def _projected_node(nanometers: int) -> ProcessNode:
    try:
        return PROJECTED_NODES[nanometers]
    except KeyError:
        raise KeyError(
            f"no projected operating point at {nanometers} nm; "
            f"projected nodes are {sorted(PROJECTED_NODES, reverse=True)}"
        ) from None


@lru_cache(maxsize=None)
def synthesize_spec(
    kind: str, nanometers: int, cores: int, clock_ghz: float
) -> ProcessorSpec:
    """Materialise one homogeneous projected cluster as a ProcessorSpec.

    The key embeds every degree of freedom (``proj22_big8c3.2g``) so study
    and meter caches, which key by ``spec.key``, can never collide across
    distinct synthesized designs.
    """
    if kind not in TEMPLATES:
        raise KeyError(f"unknown core kind {kind!r}; choose from {sorted(TEMPLATES)}")
    if cores < 1:
        raise ValueError("a cluster needs at least one core")
    template = TEMPLATES[kind]
    node = _projected_node(nanometers)
    clocks = (BIG_CLOCKS if kind == "big" else LITTLE_CLOCKS)[nanometers]
    if clock_ghz not in clocks:
        raise ValueError(
            f"{clock_ghz} GHz is not an operating point at {nanometers} nm "
            f"for {kind} cores; the grid is {clocks}"
        )
    cap = node.capacitance_scale / NODE_45NM.capacitance_scale
    leak = node.leakage_scale / NODE_45NM.leakage_scale
    volts = node.nominal_voltage.value / NODE_45NM.nominal_voltage.value
    freq = clock_ghz / template.base_clock_ghz_45
    dynamic = cap * volts * volts
    power = PowerCharacter(
        uncore_watts=round(template.uncore_watts_45 * (0.4 + 0.6 * dynamic), 4),
        core_idle_watts=round(template.idle_watts_45 * dynamic * leak, 4),
        core_active_watts=round(template.active_watts_45 * dynamic * freq, 4),
    )
    area = cores * template.area_mm2_45 * AREA_SCALE_45[nanometers]
    key = f"proj{nanometers}_{kind}{cores}c{clock_ghz:g}g"
    floor, nominal = node.vid_span
    return ProcessorSpec(
        key=key,
        label=f"P{nanometers} {kind} {cores}C@{clock_ghz:g}",
        model=f"Projected {kind.capitalize()}",
        family=template.family,
        codename=f"P{nanometers}{kind[0].upper()}",
        sspec="synthetic",
        release=NODE_RELEASE[nanometers],
        price_usd=None,
        cores=cores,
        threads_per_core=template.threads_per_core,
        llc_mb=round(cores * template.llc_mb_per_core, 3),
        stock_clock=Hertz.from_ghz(clock_ghz),
        node=node,
        transistors_m=int(
            cores * template.transistors_m_per_core / AREA_SCALE_45[nanometers]
        )
        + 100,
        die_mm2=int(math.ceil(area)) + 20,
        vid_range=(floor.value, nominal.value),
        tdp_w=int(math.ceil(_peak_watts_for(power, cores))),
        memory=NODE_MEMORY[nanometers],
        power=power,
        clock_points_ghz=(round(clock_ghz / 2, 2), clock_ghz),
    )


def _peak_watts_for(power: PowerCharacter, cores: int) -> float:
    """Closed-form worst case, used only to size the spec's own TDP field
    (and hence the meter's sensor range) before the spec exists."""
    return (
        power.uncore_watts
        + cores * (power.core_idle_watts + power.core_active_watts)
    )


@dataclass(frozen=True, slots=True)
class Cluster:
    """One homogeneous slice of a candidate: a spec at its stock config."""

    kind: str
    cores: int
    clock_ghz: float
    config: Configuration
    area_mm2: float
    peak_watts: float


@dataclass(frozen=True, slots=True)
class Candidate:
    """One projected machine: a big cluster, a little cluster, or both."""

    key: str
    node_nm: int
    big: Optional[Cluster]
    little: Optional[Cluster]
    area_mm2: float
    peak_watts: float
    #: Share of the area budget that cannot be powered (see module doc).
    dark_fraction: float

    @property
    def clusters(self) -> tuple[Cluster, ...]:
        return tuple(c for c in (self.big, self.little) if c is not None)

    @property
    def heterogeneous(self) -> bool:
        return self.big is not None and self.little is not None


#: Back-compat-friendly alias: the issue calls the synthesizer's product a
#: ProjectedProcessor; a candidate IS the projected processor.
ProjectedProcessor = Candidate


def _cluster(kind: str, nanometers: int, cores: int, clock_ghz: float) -> Cluster:
    spec = synthesize_spec(kind, nanometers, cores, clock_ghz)
    config = Configuration(
        spec=spec,
        active_cores=cores,
        threads_per_core=spec.threads_per_core,
        clock_ghz=clock_ghz,
    )
    template = TEMPLATES[kind]
    peak = package_power(
        config,
        busy_cores=float(cores),
        core_utilisation=1.0,
        activity=1.0,
        turbo=TurboState(steps=0, frequency=spec.stock_clock),
    ).total.value
    return Cluster(
        kind=kind,
        cores=cores,
        clock_ghz=clock_ghz,
        config=config,
        area_mm2=cores * template.area_mm2_45 * AREA_SCALE_45[nanometers],
        peak_watts=peak,
    )


def _min_little(nanometers: int) -> Cluster:
    """The smallest, slowest core the node offers — the dark-silicon probe."""
    return _cluster("little", nanometers, 1, LITTLE_CLOCKS[nanometers][0])


def _dark_fraction(
    nanometers: int, area_mm2: float, peak_watts: float, budget: Budget
) -> float:
    """Area-budget share that cannot be powered with any more silicon.

    Spare area that *could* hold more little cores but whose power the TDP
    cannot cover is dark by definition; spare area the power budget could
    still light is merely unused, not dark.
    """
    probe = _min_little(nanometers)
    spare_area = max(0.0, budget.area_mm2 - area_mm2)
    spare_power = max(0.0, budget.tdp_w - peak_watts)
    lightable = min(spare_area / probe.area_mm2, spare_power / probe.peak_watts)
    dark = (spare_area - lightable * probe.area_mm2) / budget.area_mm2
    return max(0.0, round(dark, 6))


def _assemble(
    nanometers: int,
    big_cores: int,
    big_clock: float,
    little_cores: int,
    little_clock: float,
    budget: Budget,
) -> Optional[Candidate]:
    """Build a candidate if it fits the budget, else None."""
    big = _cluster("big", nanometers, big_cores, big_clock) if big_cores else None
    little = (
        _cluster("little", nanometers, little_cores, little_clock)
        if little_cores
        else None
    )
    clusters = [c for c in (big, little) if c is not None]
    if not clusters:
        return None
    area = sum(c.area_mm2 for c in clusters)
    peak = sum(c.peak_watts for c in clusters)
    if area > budget.area_mm2 + 1e-9 or peak > budget.tdp_w + 1e-9:
        return None
    parts = [f"proj{nanometers}"]
    if big is not None:
        parts.append(f"b{big.cores}@{big.clock_ghz:g}")
    if little is not None:
        parts.append(f"l{little.cores}@{little.clock_ghz:g}")
    return Candidate(
        key="/".join(parts),
        node_nm=nanometers,
        big=big,
        little=little,
        area_mm2=round(area, 6),
        peak_watts=round(peak, 6),
        dark_fraction=_dark_fraction(nanometers, area, peak, budget),
    )


def node_capacity(nanometers: int, budget: Budget = Budget()) -> dict[str, float]:
    """How far the budget stretches at a node, and what must stay dark.

    Fills the die with top-clock big cores until area or power runs out,
    then backfills remaining power with minimum little cores — the
    best-case utilisation.  The residual unpowerable area fraction is the
    node's achieved dark-silicon share under this budget.
    """
    big_probe = _cluster("big", nanometers, 1, BIG_CLOCKS[nanometers][-1])
    uncore_w = big_probe.config.spec.power.uncore_watts
    per_big_w = big_probe.peak_watts - uncore_w
    by_area = int(budget.area_mm2 // big_probe.area_mm2)
    by_power = int((budget.tdp_w - uncore_w) // per_big_w) if per_big_w > 0 else by_area
    big_cores = max(1, min(by_area, by_power))
    area = big_cores * big_probe.area_mm2
    peak = uncore_w + big_cores * per_big_w
    return {
        "nanometers": float(nanometers),
        "big_cores_by_area": float(by_area),
        "big_cores_by_power": float(by_power),
        "big_cores": float(big_cores),
        "dark_fraction": _dark_fraction(nanometers, area, peak, budget),
    }


def synthesize_candidates(
    nanometers: int,
    samples: int,
    budget: Budget = Budget(),
    seed: int = 0,
) -> tuple[Candidate, ...]:
    """Draw up to ``samples`` distinct budget-valid candidates at a node.

    Uniform draws over (big count, big clock, little count, little clock)
    with rejection of over-budget or empty machines; duplicates collapse by
    key.  Returns candidates sorted by key.  Bounded attempts keep the
    generator total even if the valid space is smaller than ``samples``;
    when they find no candidate at all, each cluster's smallest machine
    (one core at its lowest clock) is tried, and only a budget neither
    fits is refused with a :class:`ProjectionQueryError`.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    node = _projected_node(nanometers)
    rng = Random(seed_from_key(f"projection/candidates/{node.nanometers}/{seed}"))
    big_probe = _cluster("big", nanometers, 1, BIG_CLOCKS[nanometers][0])
    little_probe = _min_little(nanometers)
    max_big = int(budget.area_mm2 // big_probe.area_mm2)
    max_little = int(budget.area_mm2 // little_probe.area_mm2)
    out: dict[str, Candidate] = {}
    attempts = 0
    limit = samples * 64
    while len(out) < samples and attempts < limit:
        attempts += 1
        big_cores = rng.randrange(0, max_big + 1)
        little_cores = rng.randrange(0, max_little + 1)
        # Keep both homogeneous extremes represented: uniform draws over
        # the joint space almost never zero out a whole cluster, yet the
        # big-only (serial performance) and little-only (efficiency) ends
        # anchor the frontier.
        shape = rng.random()
        if shape < 0.15:
            little_cores = 0
        elif shape < 0.30:
            big_cores = 0
        big_clock = rng.choice(BIG_CLOCKS[nanometers])
        little_clock = rng.choice(LITTLE_CLOCKS[nanometers])
        candidate = _assemble(
            nanometers, big_cores, big_clock, little_cores, little_clock, budget
        )
        if candidate is not None:
            out.setdefault(candidate.key, candidate)
    if not out:
        # Under a tight TDP the few machines that fit are small and the
        # draws, uniform over area-bounded core counts, can miss them
        # all: try each cluster's smallest machine before refusing.
        for smallest in (
            _assemble(nanometers, 0, 0.0, 1, LITTLE_CLOCKS[nanometers][0], budget),
            _assemble(nanometers, 1, BIG_CLOCKS[nanometers][0], 0, 0.0, budget),
        ):
            if smallest is not None and len(out) < samples:
                out[smallest.key] = smallest
    if not out:
        raise ProjectionQueryError(
            f"no candidate machine at {nanometers} nm fits the budget of "
            f"{budget.area_mm2:g} mm^2 and {budget.tdp_w:g} W"
        )
    return tuple(sorted(out.values(), key=lambda c: c.key))
