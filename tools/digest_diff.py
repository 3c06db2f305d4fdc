"""Bit-identity check of the working tree against a git revision.

    python tools/digest_diff.py REV

Exports ``REV`` with ``git archive`` into a temporary directory and runs
this working tree's ``tools/trace_digest.py`` and ``tools/em_digest.py``
on that copy and on the working tree.  It prints only the output lines
that differ, each as a pair: ``-`` from ``REV``, ``+`` from the working
tree.  Exits 1 if any line differs and 0 if none does.  The two sides run
one after the other, so the whole check takes about twice as long as the
two digest scripts on one checkout.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tarfile
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("trace_digest.py", "em_digest.py")


def _digest_lines(script: str, checkout: Path) -> list[str]:
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), str(checkout)], check=True, capture_output=True, text=True
    )
    return run.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    args = parser.parse_args(argv)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev], check=True, capture_output=True).stdout
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        for script in SCRIPTS:
            old, new = _digest_lines(script, Path(tmp)), _digest_lines(script, ROOT)
            for a, b in zip_longest(old, new, fillvalue="(no line)"):
                if a != b:
                    differ = True
                    print(f"{script} - {a}\n{script} + {b}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
