"""quadberk benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 25 --trace 0

Run from the repository root.  The inputs come from ``--seed``; the next op
starts only after the previous one returned, for ``--seconds`` seconds.
Every answer is checked against seed-independent oracles and, at the
default seed, against the golden digests in ``golden.json``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
replays each op with every public call timed as a span, writes the spans to
``.perfbench/spans-<workload>.jsonl`` and reports the per-layer metrics.
Each metric is printed as ``name: value unit``; the last line of stdout is
one JSON object with keys correct, attempted, failed and metrics.  Exit
status: 0 when every answer checks, 1 on a wrong answer, 2 when the
package source is missing.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0xC0FFEE
#: set-up runs this many times, spread over the run, and the fastest is
#: reported: on a host whose speed switches between two levels, the median
#: of a few repetitions jumps between them (README.md)
SETUP_REPEATS = 7
#: the reference task runs, outside the measured time, after the first op
#: that ends this long after its last run
REFERENCE_EVERY_NS = 50_000_000
IMPORT_PROBE = "import time; t = time.perf_counter(); import quadberk; print(time.perf_counter() - t)"
#: hex digits of sha256 kept per op in golden.json
DIGEST_HEX = 8


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def load_golden(name: str):
    with open(GOLDEN) as src:
        doc = json.load(src)
    text = doc["workloads"][name]
    return [text[i:i + DIGEST_HEX] for i in range(0, len(text), DIGEST_HEX)]


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted((SRC / "quadberk").glob("*.py")))


def answer_text(wl, ok: bool, answer) -> str:
    return wl.canonical(answer) if ok else f"error:{type(answer).__name__}"


def import_seconds() -> float:
    """Seconds that ``import quadberk`` takes in a fresh interpreter,
    interpreter start excluded."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def set_up(wl, seed: int):
    """One set-up: the import of quadberk, the input pool, and a warm-up on
    the pool's first ops.  Returns the pool and the seconds taken."""
    import_s = import_seconds()
    start = time.perf_counter()
    pool = wl.setup(seed)
    for item in pool[:wl.warmup_ops]:
        try:
            wl.op(item)
        except Exception:  # failures are counted in the timed phase
            pass
    return pool, import_s + time.perf_counter() - start


def make_checker(wl, pool, seed: int):
    """check(index, ok, answer) -> (problem or None, whether xi is integral
    or None when the answer has no xi)."""
    golden = load_golden(wl.name) if seed == DEFAULT_SEED else None

    def check(index, ok, answer):
        item = pool[index]
        if golden is not None:
            if digest(answer_text(wl, ok, answer)) != golden[index]:
                return "answer differs from the golden digest", None
        try:
            problem = wl.check(item, ok, answer)
            xi = wl.xi(answer) if ok and problem is None else None
        except Exception as exc:  # an answer the checks cannot read is wrong
            return f"unreadable answer: {exc!r}", None
        return problem, None if xi is None else xi.is_integral

    return check


def reference_task() -> int:
    """Fixed work from the standard library alone, of the kind quadberk
    does (exact rationals with growing integers); its time in a run tells
    how fast the host ran then, whatever the program does."""
    x, digits = Fraction(1, 3), 0
    for k in range(1, 60):
        x = x * Fraction(k + 2, k + 1) + Fraction(1, k)
        digits += len(str(x.numerator))
    return digits


def timed_loop(op, check, pool, seconds: float, first: int):
    """Closed loop over the pool, from op number ``first`` on, until
    ``seconds`` of measured time have passed.  Each answer is checked as
    soon as its op returns and then dropped, so memory stays flat; checking
    time and the reference task are left out of the measured time.  Returns
    the measured seconds, per op (pool index, ok, latency ns, problem, xi
    integral), and the reference task's times in ns."""
    records, references = [], []
    clock = time.perf_counter_ns
    budget = int(seconds * 1e9)
    start = last_reference = clock()
    checking = 0
    i = first
    while True:
        index = i % len(pool)
        began = clock()
        try:
            answer, ok = op(pool[index], i), True
        except Exception as exc:  # any failure is counted, never retried
            answer, ok = exc, False
        ended = clock()
        records.append((index, ok, ended - began, *check(index, ok, answer)))
        measured = ended - start - checking
        if ended - last_reference >= REFERENCE_EVERY_NS:
            last_reference = clock()
            reference_task()
            references.append(clock() - last_reference)
        checking += clock() - ended
        i += 1
        if measured >= budget:
            return measured / 1e9, records, references


def coeff_bits(lift) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in lift.coeffs)


def input_properties(wl, pool, records) -> dict:
    from quadberk import identify_normal_form

    lifts = wl.lifts(pool)
    integral = [flag for _, ok, _, _, flag in records if ok and flag is not None]
    return {
        "input.inf_fixed_share": (sum(lift.b0 == 0 for lift in lifts) / len(lifts), "ratio"),
        "input.normal_form_share": (
            sum(identify_normal_form(lift) is not None for lift in lifts) / len(lifts), "ratio"),
        "input.half_integer_xi_share": (
            integral.count(False) / len(integral) if integral else 0.0, "ratio"),
        "input.coeff_bits_p50": (statistics.median(coeff_bits(lift) for lift in lifts), "bits"),
    }


def end_to_end(wl, measured: float, records, references, setup_s: float) -> tuple:
    """Gated metrics, and the ones printed for reading only.

    The gated timing is op_best_p50_ref.  Each pool input runs once per
    pass, several passes a run; op_latency_best_p50_ms is the median, over
    the inputs, of each input's fastest run, and op_best_p50_ref is that
    divided by the 10th percentile of the reference task's times in the
    same run.  The host this was built on switches between a fast and a
    slow speed, from under a second to half a minute at a time, and its
    fast speed drifts over minutes: the plain median latency follows the
    share of time spent at each speed, the per-input fastest run follows
    the drift, and the ratio follows neither (see README.md)."""
    latencies = sorted(ns / 1e6 for _, ok, ns, _, _ in records if ok)
    best = {}
    for index, ok, ns, _, _ in records:
        if ok:
            best[index] = min(best.get(index, ns), ns)
    best_p50 = statistics.median(best.values())
    reference = percentile(sorted(references), 0.10)
    usage = resource.RUSAGE_CHILDREN if wl.runs_in_children else resource.RUSAGE_SELF
    gated = {
        "op_best_p50_ref": (best_p50 / reference, "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MiB"),
    }
    extra = {
        "op_latency_best_p50_ms": (best_p50 / 1e6, "ms"),
        "reference_p10_ms": (reference / 1e6, "ms"),
        "op_latency_p50_ms": (statistics.median(latencies), "ms"),
        "ops_per_s": (len(latencies) / measured, "ops/s"),
        "op_latency_p90_ms": (percentile(latencies, 0.90), "ms"),
        "failed_frac": ((len(records) - len(latencies)) / len(records), "ratio"),
    }
    # p99 only where at least ten samples lie beyond it
    if len(latencies) >= 1000:
        extra["op_latency_p99_ms"] = (percentile(latencies, 0.99), "ms")
    return gated, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quadberk" / "__init__.py").is_file():
        print(f"error: no quadberk package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Tracer, layer_metrics
    from workloads import LAYERS, REPLAYS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    pool, took = set_up(wl, args.seed)
    setups = [took]
    problems, counts = wl.untimed_checks()

    tracer = Tracer(REPLAYS) if args.trace else None
    if tracer is None:
        op = lambda item, i: wl.op(item)  # noqa: E731
    else:
        op = lambda item, i: tracer.run_op(i, wl.traced, item)  # noqa: E731
    check = make_checker(wl, pool, args.seed)
    # the timed phase is cut into slices with a set-up repetition between
    # them, so that set-up meets the same host speeds as the ops; each
    # repetition builds the same pool again and throws it away
    measured, records, references = 0.0, [], []
    for repetition in range(SETUP_REPEATS):
        if repetition:
            setups.append(set_up(wl, args.seed)[1])
        took, part, refs = timed_loop(op, check, pool, args.seconds / SETUP_REPEATS, len(records))
        measured += took
        records += part
        references += refs
    setup_s = min(setups)

    errors = problems + [f"op {index}: {problem}" for index, _, _, problem, _ in records if problem]
    failed = sum(not ok for _, ok, _, _, _ in records)
    if tracer is None:
        metrics, extra = end_to_end(wl, measured, records, references, setup_s)
    else:
        tracer.write(ROOT / ".perfbench" / f"spans-{wl.name}.jsonl")
        metrics, extra = layer_metrics(tracer.spans, LAYERS), {}
        metrics.update(input_properties(wl, pool, records))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name}: {value:.6g} {unit}")
    context = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "attempted": len(records), "failed": failed, "pool": len(pool),
        "passes": len(records) / len(pool), "git_rev": git_rev(), "src_lines": src_lines(),
        "python": platform.python_version(), "nproc": os.cpu_count(), **counts,
    }
    print("context: " + json.dumps(context))
    for line in errors[:10]:
        print(f"mismatch: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
