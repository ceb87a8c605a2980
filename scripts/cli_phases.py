"""Time where a fresh ``rulebounds`` process spends its wall clock, phase by phase.

Spawns N fresh Python processes, one after another, each running one
``bounds`` or ``compare`` command line (the arguments after ``--``), and
prints the median of each phase:

  start   process spawn -> first line of the child's own code (interpreter and site start)
  import  ``import rulebounds.cli``
  main    ``cli.main`` from call to return
  exit    ``cli.main`` returned -> the parent sees the process end

Every stamp is ``time.monotonic()`` (one system-wide clock on Linux), taken
by the parent or by a small driver the child runs in place of
``python -m rulebounds.cli``: it wraps ``cli.main`` and then calls
``cli.run``, the process entry, as that module would. A source tree without
``cli.run`` exits through ``sys.exit(cli.main())``. Nothing in the package
is changed for this. The stamps travel back over a pipe, not stdout or
stderr, and the command's own output is discarded.

    python scripts/cli_phases.py -n 31 -- bounds --config configs/example.json --output /tmp/r.json
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("start", "import", "main", "exit")

# Runs in the child: stamps after start-up, after the import and when main returns, written to the
# pipe whose descriptor is its first argument.
CHILD = """\
import time
t_start = time.monotonic()
import os, sys
import rulebounds.cli as cli
t_import = time.monotonic()
fd, sys.argv = int(sys.argv[1]), ["rulebounds"] + sys.argv[2:]
main = cli.main
def timed_main(argv=None):
    try:
        return main(argv)
    finally:
        os.write(fd, f"{t_start} {t_import} {time.monotonic()}".encode())
        os.close(fd)
cli.main = timed_main
if hasattr(cli, "run"):
    cli.run()
sys.exit(cli.main())
"""


def one_run(argv: list, env: dict) -> tuple:
    """The four phase durations in seconds of one fresh process, and its exit code."""
    read, write = os.pipe()
    t_spawn = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(write)] + argv,
        env=env, pass_fds=(write,), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    os.close(write)
    code = child.wait()
    t_end = time.monotonic()
    with os.fdopen(read, "rb") as fh:
        stamps = fh.read().split()
    if len(stamps) != 3:
        raise RuntimeError(f"the child exited with code {code} before main returned")
    t_start, t_import, t_main = map(float, stamps)
    return (t_start - t_spawn, t_import - t_start, t_main - t_import, t_end - t_main), code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s [-n N] [--src DIR] -- COMMAND [ARGS...]",
    )
    parser.add_argument("-n", "--runs", type=int, default=21, help="fresh processes to time (default 21)")
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to import rulebounds from")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="a bounds or compare command line")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or command[0] not in ("bounds", "compare"):
        parser.error("give a 'bounds' or 'compare' command line after '--'")
    if args.runs < 1:
        parser.error("--runs must be positive")

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (args.src, os.environ.get("PYTHONPATH")))))
    one_run(command, env)  # warm the page cache; not counted
    runs, codes = [], set()
    for _ in range(args.runs):
        phases, code = one_run(command, env)
        runs.append(phases)
        codes.add(code)
    print(f"{args.runs} fresh processes of: rulebounds {' '.join(command)}  (exit codes {sorted(codes)})")
    for name, values in zip(PHASES + ("total",), list(zip(*runs)) + [[sum(r) for r in runs]]):
        print(f"  {name:7s} median {statistics.median(values) * 1e3:7.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
