#!/usr/bin/env python3
"""Build and run the condsched benchmark for one workload.

    python3 perfbench/run.py --workload wide-shallow --seed 1 --seconds 40 --trace 0

Run it from the repository root. It builds perfbench/ (and with it the
library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the workload, records the environment, and
prints the result as the last line of standard output. See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("wide-shallow", "serve-repeat")
# A run must end within 180 s once built; the first build may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_step(cmd, timeout):
    """Run a build step with its output on stderr. On timeout the step's
    whole process group (make, compilers) is killed and reaped."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"timed out: {' '.join(cmd)}")
        return 1


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "sched" / "driver.hpp").is_file():
        log(f"condsched sources (CMakeLists.txt, src/) not found in {ROOT}")
        return None
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if run_step(configure, BUILD_TIMEOUT_S) != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if run_step(["cmake", "--build", str(build_dir), "--target",
                 "condsched_perfbench", "-j", jobs],
                max(1.0, deadline - time.monotonic())) != 0:
        return None
    return build_dir / "condsched_perfbench"


def cache_entry(build_dir, key):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def source_digest():
    """sha256 over the sources the benchmark builds, so a result names the
    code it measured even where there is no git checkout."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *(ROOT / "src").rglob("*"),
             *BENCH_DIR.rglob("*")]
    for path in sorted(p for p in files if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(build_dir):
    compiler = cache_entry(build_dir, "CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=30).stdout.splitlines()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "compiler_version": version[0] if version else None,
        "build_type": cache_entry(build_dir, "CMAKE_BUILD_TYPE"),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    return fields[7], sum(fields)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 2
    # Sockets need a short path; the binary runs from the repository root.
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    results_dir = build_dir / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    env = environment(build_dir)
    env["loadavg_before"] = list(os.getloadavg())
    steal0, total0 = cpu_ticks()
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--golden-dir", os.path.relpath(BENCH_DIR / "golden", ROOT),
           "--known-defects",
           os.path.relpath(BENCH_DIR / "known_defects.json", ROOT),
           "--work-dir", os.path.relpath(work_dir, ROOT),
           "--trace-out", str(results_dir / f"{stem}.spans.jsonl")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    env["loadavg_after"] = list(os.getloadavg())
    steal1, total1 = cpu_ticks()
    env["cpu_steal_pct"] = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        log(f"benchmark exited with {run.returncode} and no result")
        return 2
    result = json.loads(lines[-1])
    if set(result["metrics"]) != expected_metrics(args.trace):
        log("metric names differ from BENCHMARK.json")
        return 2

    (results_dir / f"{stem}.json").write_text(
        json.dumps({"environment": env, "result": result}, indent=2) + "\n")
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"environment": env}))
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
