"""Output checks: every record the benchmark sees must be the right bytes.

A record is right when ``json.dumps(result.as_record())`` hashes to the
digest pinned for its (configuration, benchmark) pair in
``expected.json`` — the records of one cold in-process campaign.  The
whole campaign must also hash to the pinned campaign digest, and its
stock subset must equal ``tests/integration/golden_stock.py`` to the
relative 1e-9 that ``tests/integration/test_golden.py`` allows (the
golden floats predate the compiled kernels' summation order).

Regenerate ``expected.json`` only with a deliberate model change:
``PYTHONPATH=src python perfbench/child.py pin``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
from pathlib import Path
from typing import Iterable, Mapping

EXPECTED_PATH = Path(__file__).with_name("expected.json")
GOLDEN_PATH = Path("tests") / "integration" / "golden_stock.py"
GOLDEN_REL_TOL = 1e-9


def record_bytes(record: Mapping) -> bytes:
    """The byte form the server answers with and checkpoints store."""
    return json.dumps(record).encode("utf-8")


def pair_key(config_key: str, benchmark: str) -> str:
    return f"{config_key}::{benchmark}"


def record_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def campaign_digest(digests: Iterable[str]) -> str:
    """Digest of a campaign's record digests in canonical sweep order."""
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def wrong_records(records: Iterable[Mapping], expected: Mapping[str, str]) -> list[str]:
    """Pair keys of the records whose bytes differ from the pinned ones."""
    wrong = []
    for record in records:
        key = pair_key(record["configuration"], record["benchmark"])
        if expected.get(key) != record_digest(record_bytes(record)):
            wrong.append(key)
    return wrong


def load_golden(root: Path) -> dict:
    spec = importlib.util.spec_from_file_location("golden_stock", root / GOLDEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GOLDEN


def golden_mismatches(
    records: Iterable[Mapping], stock_keys: Iterable[str], golden: Mapping
) -> list[str]:
    """Stock-configuration records whose four headline values differ
    from the golden dataset."""
    stock = set(stock_keys)
    wrong = []
    for record in records:
        if record["configuration"] not in stock:
            continue
        values = (
            record["seconds"],
            record["watts"],
            record["speedup"],
            record["normalized_energy"],
        )
        pinned = golden.get((record["processor"], record["benchmark"]))
        if pinned is None or not all(
            math.isclose(value, want, rel_tol=GOLDEN_REL_TOL)
            for value, want in zip(values, pinned)
        ):
            wrong.append(pair_key(record["configuration"], record["benchmark"]))
    return wrong
