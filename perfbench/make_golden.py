"""Regenerate golden.json: the digest of every pool op's answer at the
default seed, for every workload.

    python3 perfbench/make_golden.py

Run it only when a workload's inputs or answer format change, and never to
make a changed answer pass: the digests pin the program's answers.
"""

import json
import sys

from run import DEFAULT_SEED, DIGEST_HEX, GOLDEN, SRC, answer_text, digest


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    doc = {"seed": DEFAULT_SEED, "digest_hex": DIGEST_HEX, "workloads": {}}
    for name, wl in WORKLOADS.items():
        digests = []
        for index, item in enumerate(wl.setup(DEFAULT_SEED)):
            try:
                answer, ok = wl.op(item), True
            except Exception as exc:
                answer, ok = exc, False
            problem = wl.check(item, ok, answer)
            if problem is not None:
                print(f"{name} op {index}: {problem}", file=sys.stderr)
                return 1
            digests.append(digest(answer_text(wl, ok, answer)))
        doc["workloads"][name] = "".join(digests)
        print(f"{name}: {len(digests)} ops")
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
