"""Print a sha256 of the stdout of each CLI command on each model.

Usage: python3 scripts/stdout_digest.py MODEL_OR_DIR...

For every model file (a directory stands for its *.model files, sorted) it
runs `invariants`, `invariants --emit machine --cross-check` and
`frame --cross-check` in a fresh interpreter on the `src/` beside this
script, and prints one line per command:

    <sha256 of stdout>  <command>  (exit <code>)

Run it from the root of two checkouts on the same model paths and diff the
two outputs: an empty diff means byte-identical stdout and equal exit codes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = (
    ("invariants",),
    ("invariants", "--emit", "machine", "--cross-check"),
    ("frame", "--cross-check"),
)


def model_paths(args):
    for arg in args:
        p = Path(arg)
        yield from sorted(p.glob("*.model")) if p.is_dir() else (p,)


def digest_lines(args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for model in model_paths(args):
        for cmd in COMMANDS:
            argv = [cmd[0], str(model), *cmd[1:]]
            proc = subprocess.run([sys.executable, "-m", "crcartan.cli", *argv],
                                  capture_output=True, env=env)
            digest = hashlib.sha256(proc.stdout).hexdigest()
            yield f"{digest}  {' '.join(argv)}  (exit {proc.returncode})"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python3 scripts/stdout_digest.py MODEL_OR_DIR...", file=sys.stderr)
        return 2
    for line in digest_lines(args):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
