"""Print a sha256 of the stdout of each CLI command on each input file.

Usage: python3 scripts/stdout_digest.py FILE_OR_DIR...

A directory stands for its *.model files, then its *.alg files, each sorted.
On every model file the script runs `invariants`, `invariants --emit machine
--cross-check` and `frame --cross-check`; on a model file with a `[rigid]`
block also `autcr --weight-bound 3`, `autcr --weight-bound 4` and `autcr`
at its default bound; on an *.alg file `tanaka`.  Each command runs in a
fresh interpreter on the `src/` beside this script, and prints one line:

    <sha256 of stdout>  <command>  (exit <code>)

Run it from the root of two checkouts on the same paths and diff the two
outputs: an empty diff means byte-identical stdout and equal exit codes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MODEL_COMMANDS = (
    ("invariants",),
    ("invariants", "--emit", "machine", "--cross-check"),
    ("frame", "--cross-check"),
)

RIGID_COMMANDS = (
    ("autcr", "--weight-bound", "3"),
    ("autcr", "--weight-bound", "4"),
    ("autcr",),
)

ALGEBRA_COMMANDS = (("tanaka",),)


def input_paths(args):
    for arg in args:
        p = Path(arg)
        if p.is_dir():
            yield from sorted(p.glob("*.model"))
            yield from sorted(p.glob("*.alg"))
        else:
            yield p


def has_rigid_block(path: Path) -> bool:
    """True when a line of the file reads `[rigid]`, as the model parser reads it."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return any(line.split("#", 1)[0].strip().lower() == "[rigid]" for line in lines)


def commands(path: Path):
    if path.suffix == ".alg":
        return ALGEBRA_COMMANDS
    return MODEL_COMMANDS + (RIGID_COMMANDS if has_rigid_block(path) else ())


def digest_lines(args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for path in input_paths(args):
        for cmd in commands(path):
            argv = [cmd[0], str(path), *cmd[1:]]
            proc = subprocess.run([sys.executable, "-m", "crcartan.cli", *argv],
                                  capture_output=True, env=env)
            digest = hashlib.sha256(proc.stdout).hexdigest()
            yield f"{digest}  {' '.join(argv)}  (exit {proc.returncode})"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python3 scripts/stdout_digest.py FILE_OR_DIR...", file=sys.stderr)
        return 2
    for line in digest_lines(args):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
