"""The runtime loads no OpenSSL.

``import hashlib`` (and ``hmac``, which imports it) loads libcrypto
through ``_hashlib``, about 3.6 MB resident in every process that
imports the runtime.  The replication layer's HMAC-SHA256 stamps and
SHA-256 digests come from CPython's built-in ``_sha2`` (3.12+) or
``_sha256`` (3.9-3.11) instead; ``tests/test_byzantine.py`` holds them
to ``hmac`` / ``hashlib``, and ``tests/test_one_of_each.py`` fails on a
``hashlib`` or ``hmac`` import under ``src/repro``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

IMPORT_THE_RUNTIME = """
import json, sys
import repro.stack, repro.apps, repro.bench, repro.shard, repro.faults
print(json.dumps(sorted(sys.modules)))
"""


def test_a_fresh_runtime_loads_no_openssl():
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_THE_RUNTIME], capture_output=True,
        text=True, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        cwd=ROOT)
    assert done.returncode == 0, done.stderr[-2000:]
    loaded = set(json.loads(done.stdout))
    assert "repro.replication.byzantine" in loaded
    assert not loaded & {"_hashlib", "hashlib", "hmac", "_ssl"}
    assert loaded & {"_sha2", "_sha256"}
