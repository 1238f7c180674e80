"""One measured process of the `campaign` workload.

Run by ``perfbench/run.py`` in a fresh interpreter, so each cold
campaign starts from process start.  The child pins itself to the CPU
named by ``--cpu``, announces ``ready`` once it holds a warm
``References`` (the set-up the parent times), runs the campaign, checks
every record it produced, and reports one JSON line.  Lines it writes
for the parent start with ``PERFBENCH``.

``pin`` regenerates ``expected.json`` from one canonical campaign.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import checks  # noqa: E402
import layers  # noqa: E402


def emit(payload: dict) -> None:
    print("PERFBENCH " + json.dumps(payload), flush=True)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def campaign_configurations(seed: int, index: int, count: int):
    """The campaign's configurations in a seeded order.  Results do not
    depend on the order (every measurement is seeded by its site), so
    the pinned digests hold for every seed."""
    from repro.hardware.configurations import all_configurations

    configurations = list(all_configurations())
    random.Random(f"campaign/{seed}/{index}").shuffle(configurations)
    return configurations[:count]


def warm_references():
    """Set-up: an engine and references for every benchmark (which also
    calibrates the engine's instruction counts)."""
    from repro.core.normalization import References
    from repro.execution.engine import ExecutionEngine
    from repro.workloads.catalog import BENCHMARKS

    references = References(ExecutionEngine())
    for benchmark in BENCHMARKS:
        references.energy_joules(benchmark)
    return references


def run_campaign(args, references) -> dict:
    from repro.core.study import Study
    from repro.hardware.configurations import stock_configurations

    study = Study(references=references, vectorize=True)
    configurations = campaign_configurations(args.seed, args.index, args.configs)
    started = time.perf_counter()
    results = study.run(configurations)
    sweep_s = time.perf_counter() - started
    records = [result.as_record() for result in results]
    expected = checks.load_expected()
    wrong = set(checks.wrong_records(records, expected["records"]))
    wrong.update(
        checks.golden_mismatches(
            records,
            (c.key for c in stock_configurations()),
            checks.load_golden(ROOT),
        )
    )
    if len(records) == len(expected["records"]):
        by_key = {
            checks.pair_key(r["configuration"], r["benchmark"]): r for r in records
        }
        digests = [
            checks.record_digest(checks.record_bytes(by_key[key]))
            if key in by_key
            else ""
            for key in expected["records"]
        ]
        if checks.campaign_digest(digests) != expected["campaign"]:
            wrong.add("campaign")
    quarantined = len(results.health.quarantined) if results.health else 0
    return {
        "sweep_s": sweep_s,
        "pairs": len(configurations) * len(study.benchmarks),
        "failed": quarantined + len(wrong),
        "peak_rss_mib": peak_rss_mib(),
    }


def pin() -> None:
    """Write ``expected.json`` from one canonical in-process campaign."""
    from repro.core.study import Study
    from repro.hardware.configurations import all_configurations, stock_configurations

    study = Study(references=warm_references(), vectorize=True)
    results = study.run(all_configurations())
    records = [result.as_record() for result in results]
    golden = checks.golden_mismatches(
        records, (c.key for c in stock_configurations()), checks.load_golden(ROOT)
    )
    if golden or (results.health and results.health.quarantined):
        raise SystemExit(f"refusing to pin: {len(golden)} golden mismatches")
    digests = {
        checks.pair_key(r["configuration"], r["benchmark"]): checks.record_digest(
            checks.record_bytes(r)
        )
        for r in records
    }
    expected = {
        "campaign": checks.campaign_digest(digests.values()),
        "records": digests,
    }
    checks.EXPECTED_PATH.write_text(json.dumps(expected, indent=0) + "\n")
    print(f"pinned {len(digests)} records, campaign {expected['campaign']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("campaign", "pin"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--configs", type=int, default=45)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--cpu", type=int, default=None, help="pin to this CPU")
    args = parser.parse_args(argv)
    if args.mode == "pin":
        pin()
        return 0
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    recorder = layers.Recorder().install() if args.trace_out else None
    references = warm_references()
    emit({"ready": time.monotonic()})
    report = run_campaign(args, references)
    if recorder is not None:
        recorder.dump(args.trace_out)
    emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
