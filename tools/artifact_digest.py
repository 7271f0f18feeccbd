"""Digest the CLI artifacts of a checkout, so that two checkouts compare with one ``diff``.

Usage::

    python tools/artifact_digest.py CHECKOUT > digest.txt

Each invocation of a fixed list runs as ``python -m boskraus.cli`` with ``CHECKOUT/src``
on ``PYTHONPATH``, in a fresh temporary directory that it takes as its output
directory.  For each it prints its exit code and one ``sha256`` line for its stdout,
its stderr and every file it left, in sorted order.  The checkout's path and the temporary
directory's are replaced by ``CHECKOUT`` and ``WORKDIR`` in stdout and stderr before they
are hashed, so a warning that names a source file does not tell two checkouts apart.
Comparing two checkouts::

    diff <(python tools/artifact_digest.py A) <(python tools/artifact_digest.py B)
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

A0S = ["--a0", "1.5,4.0,9.0"]
INVOCATIONS = [
    ["experiment", "fixedpoint"],
    *(["experiment", "fixedpoint", "--ncut", ncut, *A0S] for ncut in ("96", "256", "512")),
    ["experiment", "fixedpoint", "--family", "C2", "--kappa", "1.3", "--ncut", "48", "--steps", "12"],
    ["experiment", "fixedpoint", "--family", "A1"],
    ["experiment", "fixedpoint", "--family", "C1", "--kappa", "1.0"],
    ["experiment", "fixedpoint", "--family", "C2", "--kappa", "1.0"],
    ["experiment", "fixedpoint", "--family", "C1", "--kappa", "0.0"],
    ["experiment", "verify-all", "--ncut", "48", "--seed", "3"],
    ["experiment", "scaling"],
    ["experiment", "extremal"],
    ["experiment", "zeno"],
    *(["kraus", channel] for channel in ("C1:0.7", "D:0.8", "C2:1.3", "A1", "I", "C1:1.0", "C2:1.0", "C1:0.0",
                                         "A2", "B1:0.5", "B1")),
    # past 150 nodes the Gauss-Hermite rule is scipy's asymptotic one, the one path that imports scipy.special
    *(["kraus", channel, "--nodes", "151", "--ncut", "16"] for channel in ("A2", "B1:0.5")),
    ["compose", "C2:1.5", "C1:0.4", "--verify"],
    ["compose", "A2", "D:0.9", "--verify"],
    ["compose", "C1:0.7", "A2"],
    ["compose", "I", "D:0.8"],
    ["compose", "C1:0.8", "C1:0.6", "--lambda", "2", "--verify"],
    ["compose", "A2", "A2", "--lambda", "2", "--theta", "0.4", "--verify"],
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(checkout: Path, argv: list[str]) -> list[str]:
    """The lines of one invocation: its exit code, then the digests of stdout, stderr and each file it wrote."""
    env = {key: value for key, value in os.environ.items() if key != "BK_OUTPUT_DIR"}
    env.update(PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    label = " ".join(argv)
    with tempfile.TemporaryDirectory(prefix="artifact-digest-") as work:
        run = subprocess.run([sys.executable, "-m", "boskraus.cli", *argv], cwd=work, env=env, capture_output=True)
        lines = [f"{label} | exit {run.returncode}"]
        for name, stream in (("stdout", run.stdout), ("stderr", run.stderr)):
            stream = stream.replace(bytes(checkout), b"CHECKOUT").replace(os.fsencode(work), b"WORKDIR")
            lines.append(f"{label} | {name} {_sha256(stream)}")
        for path in sorted(Path(work).rglob("*")):
            if path.is_file():
                lines.append(f"{label} | {path.relative_to(work)} {_sha256(path.read_bytes())}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "boskraus").is_dir():
        print("usage: artifact_digest.py CHECKOUT  (a directory holding src/boskraus)", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    for invocation in INVOCATIONS:
        print("\n".join(digest(checkout, invocation)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
