"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. The generator reproduces the acceptance corpus of the test suite (hash of
   its 3,500 lifts at the default seed).
2. Every workload runs for one second at the default seed, untraced and
   traced; run.py checks each answer against its golden digest and oracles
   and exits 1 on a mismatch, and no op fails.  Every metric BENCHMARK.json
   names for that mode is printed, with its unit, both as a
   ``name: value unit`` line and in the final JSON object.
3. The span file of each traced run parses and nests: every parent id
   resolves, every direct child lies inside its parent and every replayed
   child after its parent, inside its op; each layer the workload calls
   has calls, and no other layer has.
4. Without the package source the benchmark exits non-zero and prints no
   result.
Exit status 0 when everything holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: layers each workload's traced run must call, and only these
CALLED = {
    "corpus-verify": {
        "quadmap.Lift", "quadmap.resultant", "quadmap.conjugate", "quadmap.normalize",
        "quadmap.ord_res_profile", "quadmap.minimize_profile", "invariants.sigma_invariants",
        "classifier.stratum", "crucial.predict_xi", "crucial.find_crucial_on_segment",
        "crucial.verify_consistency", "reduction.reduce_at", "reduction.classify_residue",
    },
    "ordres-grid": {
        "quadmap.ord_res_at", "quadmap.normalize", "quadmap.conjugate", "quadmap.Lift",
        "quadmap.resultant", "quadmap.ord_res_profile", "quadmap.minimize_profile",
    },
    "generic-classify": {
        "parsing.parse_map", "quadmap.Lift", "invariants.sigma_invariants", "classifier.stratum",
        "classifier.multiplier_valuations", "classifier.hsia_check", "quadmap.conjugate",
    },
    "cli-verify": {"cli.interpreter", "cli.import", "cli.run"},
}


def run_bench(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(proc, expected: list) -> list:
    """Problems with one run's output, given the metrics BENCHMARK.json
    expects for its mode."""
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
        problems.append(f"bad result line {lines[-1][:200]}")
    if result["attempted"] < 1:
        problems.append("no op attempted")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in expected):
        problems.append(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got} lacks unit {m['unit']} or a value")
        if not any(line.startswith(f"{m['name']}: ") and line.endswith(f" {m['unit']}") for line in lines):
            problems.append(f"{m['name']} is not printed with its unit")
    return problems


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import corpus
    from spans import nesting_errors, read_spans
    from workloads import LAYERS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if corpus.acceptance_corpus_digest() != corpus.ACCEPTANCE_CORPUS_SHA256:
        problems.append("generator no longer reproduces the acceptance corpus")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(ROOT, workload, corpus.DEFAULT_SEED, trace)
            found = check_run(proc, expected)
            if not found and json.loads(proc.stdout.strip().splitlines()[-1])["failed"]:
                found.append("failed ops")
            if not found and trace == 1:
                spans = read_spans(ROOT / ".perfbench" / f"spans-{workload}.jsonl")
                found += nesting_errors(spans)
                metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
                called = {layer for layer in LAYERS if metrics[f"{layer}.calls"]["value"] > 0}
                if called != CALLED[workload]:
                    found.append(f"layers called {sorted(called)}, expected {sorted(CALLED[workload])}")
            problems += [f"{workload} trace={trace}: {p}" for p in found]
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = run_bench(bare, "corpus-verify", 1, 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("runs without the package source")
    print(f"bare directory: {'ok' if proc.returncode and not proc.stdout.strip() else 'FAIL'}")

    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
