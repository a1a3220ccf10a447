"""Golden pin for the content address of every served hot-set circuit.

``golden/fingerprint_golden.json`` maps ``name@scale`` to the
:meth:`~repro.mig.graph.Mig.fingerprint` of the registry circuit after a
round trip through binary AIGER — the exact bytes a ``POST /compile``
client sends for the 18 registry circuits at ci and default scale (34
distinct payloads; circuits with one size at both scales appear once).
These digests are the on-disk :class:`~repro.core.cache.SynthesisCache`
keys, so reader and fingerprint performance work must keep every one.
After an intended change to the fingerprint, regenerate the fixture and
bump ``ALGORITHM_REVISION``:

    PYTHONPATH=src python tests/test_fingerprint_golden.py --write
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

from repro.mig.io_aiger import read_aiger

from aiger_reference import hot_set

FIXTURE = Path(__file__).parent / "golden" / "fingerprint_golden.json"


def fingerprints() -> dict[str, str]:
    """The fingerprint of each hot-set circuit, read from binary AIGER."""
    return {
        key: read_aiger(io.BytesIO(aig)).fingerprint() for key, (aig, _) in hot_set().items()
    }


def test_fingerprints_are_pinned():
    golden = json.loads(FIXTURE.read_text())
    assert len(golden) == 34
    assert fingerprints() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_fingerprint_golden.py --write")
    table = fingerprints()
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(table)} fingerprints)")
