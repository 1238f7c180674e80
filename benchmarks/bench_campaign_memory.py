"""Memory ceiling for a cold 61x45 campaign.

Runs one cold ``Study(vectorize=True).run(all_configurations())`` in a
fresh interpreter, in-process, and asserts two things:

* the child's peak RSS (``ru_maxrss``) stays at or under
  :data:`MAX_PEAK_RSS_MIB`.  Kernels keep only per-invocation replay
  state and rebuild their per-sample arrays on every replay, and the
  process reads the protocol's Student-t quantiles from a pinned table
  instead of importing scipy, so a cold campaign peaks at about 70 MiB;
  the rest is headroom.  Keeping every pair's per-sample draws peaked at
  559 MiB, a 96 MiB cache of them at about 230 MiB; the ``scipy.stats``
  import added about 45 MiB, and ``scipy.special`` alone about 18 MiB.
* every one of the 2745 records hashes to the digest pinned for its pair
  in ``perfbench/expected.json`` (read, never written here), so a memory
  saving that moved a byte fails too.

Run directly:
``PYTHONPATH=src python -m pytest -q -s benchmarks/bench_campaign_memory.py``
(kept out of the tier-1 ``testpaths``; it takes one cold campaign, about
10 s on a 2-vCPU host).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "perfbench" / "expected.json"

#: The ceiling: about 70 MiB measured, plus about 120 MiB of headroom
#: for allocator and interpreter differences.
MAX_PEAK_RSS_MIB = 190.0

#: The measured process.  It prints one JSON line: its peak RSS and the
#: digest of every record, keyed ``<configuration>::<benchmark>``, in the
#: byte form the server answers with (``json.dumps(as_record())``).
_CHILD = """
import hashlib, json, resource
from repro.core.study import Study
from repro.hardware.configurations import all_configurations

results = Study(vectorize=True).run(all_configurations())
digests = {}
for result in results:
    record = result.as_record()
    data = json.dumps(record).encode("utf-8")
    key = record["configuration"] + "::" + record["benchmark"]
    digests[key] = hashlib.sha256(data).hexdigest()[:16]
quarantined = len(results.health.quarantined) if results.health else 0
print(json.dumps({
    "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "quarantined": quarantined,
    "digests": digests,
}))
"""


def _cold_campaign() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_cold_campaign_peak_rss_and_bytes():
    report = _cold_campaign()
    expected = json.loads(EXPECTED.read_text())["records"]
    digests = report["digests"]
    wrong = sorted(key for key in expected if digests.get(key) != expected[key])
    print(
        f"\ncold campaign: {len(digests)} records, peak RSS "
        f"{report['peak_rss_mib']:.1f} MiB (ceiling {MAX_PEAK_RSS_MIB:.0f} MiB), "
        f"{len(wrong)} records differ from perfbench/expected.json"
    )
    assert report["quarantined"] == 0
    assert len(digests) == len(expected)
    assert not wrong, f"{len(wrong)} records changed bytes, e.g. {wrong[:3]}"
    assert report["peak_rss_mib"] <= MAX_PEAK_RSS_MIB, (
        f"cold campaign peaked at {report['peak_rss_mib']:.1f} MiB, over the "
        f"{MAX_PEAK_RSS_MIB:.0f} MiB ceiling"
    )
