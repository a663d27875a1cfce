"""Golden behaviour corpus: each command in golden/commands.txt, run through
`cli.main` in-process, still gives the exit code and the sha256 digests of
stdout, stderr, the --out report and the .steps file in golden/digests.json.

A changed digest is a behaviour change. After one that is meant, rewrite the
digests with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from repart import cli

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "digests.json"


def commands():
    lines = (GOLDEN / "commands.txt").read_text().splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def replay(command: str, tmp: Path) -> dict:
    """The exit code and output digests of one corpus command, with its
    output directory and the corpus directory written as {tmp} and {dir}."""
    out = tmp / "out"
    argv = [tok.replace("{out}", str(out)).replace("{dir}", str(GOLDEN))
            for tok in shlex.split(command)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse's own usage errors
            code = exc.code

    def digest(text: str) -> str:
        text = text.replace(str(tmp), "{tmp}").replace(str(GOLDEN), "{dir}")
        return hashlib.sha256(text.encode()).hexdigest()

    record = {"exit": code, "stdout": digest(stdout.getvalue()),
              "stderr": digest(stderr.getvalue())}
    for key, path in (("out", out), ("steps", tmp / "out.steps")):
        record[key] = digest(path.read_text()) if path.exists() else None
    return record


@pytest.mark.parametrize("command", commands())
def test_command_output_matches_its_digests(command, tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert command in expected, "no digests recorded; regenerate them"
    assert replay(command, tmp_path) == expected[command]


if __name__ == "__main__":
    recorded = {}
    for command in commands():
        with tempfile.TemporaryDirectory() as tmp:
            recorded[command] = replay(command, Path(tmp))
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    print("%d commands recorded in %s" % (len(recorded), DIGESTS),
          file=sys.stderr)
