#!/usr/bin/env python3
"""Build and run the aasim end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which builds ../src) into $CARGO_TARGET_DIR or
.bench_build; later runs only re-check the build. The last line of
standard output is the result object of perfbench/aabench. Exit codes:
0 ok, 1 an answer failed the checker, 2 usage or build error, 3 the
emitted metrics disagree with BENCHMARK.json, 4 the spd-refine
determinism check failed, 5 a run timed out.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
OUT = os.path.join(BUILD, "out")
# A run may take 180 s after the build; every child shares this budget.
RUN_BUDGET_S = 170
deadline = None
# Fields of a request record that live on the modelled clock or are
# counts: bit-identical across runs and thread counts on spd-refine.
DETERMINISTIC = ("seq", "pattern", "verdict", "chip_s_hex",
                 "rel_residual_hex", "passes", "attempts", "config_bytes")


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Run a build step, echoing its output to stderr on failure."""
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(5, f"timed out: {' '.join(cmd)}")
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail(2, f"failed: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, f"no aasim sources under {ROOT}/src; run from a checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], 880)
    os.makedirs(OUT, exist_ok=True)


def commit():
    if os.environ.get("PERFBENCH_COMMIT"):
        return os.environ["PERFBENCH_COMMIT"]
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown(not-a-git-checkout)"


def remaining():
    """Seconds left of the run's budget (the whole budget before it
    starts)."""
    if deadline is None:
        return RUN_BUDGET_S
    return max(1.0, deadline - time.monotonic())


def aabench(args, threads=None):
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    if threads:
        env["AASIM_THREADS"] = threads
    try:
        return subprocess.run([os.path.join(BUILD, "aabench")] + args,
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining())
    except subprocess.TimeoutExpired:
        fail(5, f"aabench {' '.join(args)} timed out")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_catalogue():
    """The binary's metric catalogue must match BENCHMARK.json."""
    p = aabench(["--list-metrics", "1"])
    if p.returncode != 0:
        fail(2, "aabench --list-metrics failed: " + p.stderr)
    have = json.loads(p.stdout)
    want = declared()
    problems = []
    for group in ("end_to_end", "per_layer"):
        h = {m["name"]: (m["unit"], m["better"]) for m in have[group]}
        w = {m["name"]: (m["unit"], m["better"]) for m in want[group]}
        if h != w:
            problems.append(f"{group}: binary {sorted(h.items())} vs "
                            f"BENCHMARK.json {sorted(w.items())}")
    return problems


def records(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def determinism(workload, seed, main_records):
    """Replay the whole window as a fixed-count run at AASIM_THREADS=1
    (the main run had 4) and require every request's modelled fields to
    be bit-identical to the main run's."""
    path = os.path.join(OUT, f"replay-{workload}-{seed}.jsonl")
    cmd = [os.path.join(BUILD, "aabench"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0",
           "--requests", str(len(main_records)), "--records", path]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ,
                                                   AASIM_THREADS="1"),
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True, timeout=remaining())
    except subprocess.TimeoutExpired:
        fail(5, "determinism replay timed out")
    if p.returncode != 0:
        return [f"replay exited {p.returncode}: {p.stderr.strip()}"]
    want = [{k: r[k] for k in DETERMINISTIC} for r in main_records]
    got = [{k: r[k] for k in DETERMINISTIC} for r in records(path)]
    errors = []
    if len(got) != len(want):
        errors.append(f"{len(got)} requests replayed, {len(want)} in the run")
    for g, w in zip(got, want):
        if g != w:
            errors.append(f"AASIM_THREADS=1 {g} != AASIM_THREADS=4 {w}")
    return errors


def self_test():
    build()
    p = subprocess.run([os.path.join(BUILD, "ledger_test")], cwd=ROOT)
    problems = check_catalogue()
    for msg in problems:
        print("FAIL:", msg, file=sys.stderr)
    sys.exit(1 if p.returncode != 0 or problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        self_test()
    if not a.workload:
        fail(2, "--workload is required")

    build()
    global deadline
    deadline = time.monotonic() + RUN_BUDGET_S
    tag = f"{a.workload}-{a.seed}-t{a.trace}"
    rec_path = os.path.join(OUT, f"records-{tag}.jsonl")
    cmd = ["--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--records", rec_path]
    if a.trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{tag}.jsonl")]
    # spd-refine's determinism check replays at AASIM_THREADS=1, so its
    # main run pins the other side of the pair.
    p = aabench(cmd, "4" if a.workload == "spd-refine" else None)
    lines = p.stdout.rstrip("\n").split("\n")
    sys.stderr.write(p.stderr)
    if p.returncode not in (0, 1) or not lines or \
            not lines[-1].startswith("{"):
        sys.stdout.write(p.stdout)
        fail(2, f"aabench exited {p.returncode} without a result")
    result = json.loads(lines[-1])

    code = p.returncode
    group = "per_layer" if a.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared()[group]}
    have = {k: v["unit"] for k, v in result["metrics"].items()}
    if have != want:
        print(f"# metrics {sorted(have.items())} != BENCHMARK.json "
              f"{group} {sorted(want.items())}")
        result["correct"] = False
        code = 3
    if a.workload == "spd-refine" and not a.trace and code == 0:
        recs = records(rec_path)
        errors = determinism(a.workload, a.seed, recs)
        for e in errors:
            print("# determinism: " + e)
        if errors:
            result["correct"] = False
            code = 4
        else:
            print(f"# determinism: all {len(recs)} requests bit-identical "
                  "across two runs, at AASIM_THREADS=4 and 1")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
