"""Record the golden report digests in bench/golden.json from the current code.

Usage, from the root of a checkout: python3 bench/record_golden.py

Runs every item of every workload once at the default seed (analyze,
then verify) and stores the sha256 of each canonical JSON report under
"<input> <stage> K=<k>".  Run it only when a change is meant to alter
report bytes; the benchmark treats any other digest as a failure.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from run import DEFAULT_SEED, GOLDEN, ROOT, VERIFIED, WORKLOADS, Run, analyze_job, golden_key, verify_job, workload_items


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        scratch = Path(tmp)
        run = Run(DEFAULT_SEED, scratch, {})
        for workload in WORKLOADS:
            for item in workload_items(workload, DEFAULT_SEED, scratch):
                key = golden_key(item)
                report = scratch / "report.json"
                if run.operation(key, analyze_job(item, report, "plain")) is None:
                    continue
                data = report.read_bytes()
                if run.operation(f"verify {key}", verify_job(item, report, "plain"), VERIFIED):
                    digests[key] = hashlib.sha256(data).hexdigest()
    for failure in run.failures:
        print(f"failed: {failure}", file=sys.stderr)
    if run.failures:
        return 1
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
