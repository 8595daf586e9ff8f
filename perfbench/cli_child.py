"""Child process of the traced cli-verify workload.

Runs ``quadberk.cli.run`` on its arguments exactly as the command line
does, and reports on stderr, as its last line, the perf_counter_ns
timestamps at which the script started, the import of ``quadberk.cli``
ended and ``run`` returned.  Needs ``src`` on PYTHONPATH.
"""

import sys
import time

BEGAN = time.perf_counter_ns()


def main() -> int:
    from quadberk import cli

    imported = time.perf_counter_ns()
    code = cli.run(sys.argv[1:])
    sys.stdout.flush()
    print(f"[{BEGAN}, {imported}, {time.perf_counter_ns()}]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
