#!/usr/bin/env python3
"""Build and run the fabric benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the library from ../src)
into $CARGO_TARGET_DIR or .bench_build under the repository root, then runs
one workload. The benchmark's last stdout line is the result JSON; build
output goes to stderr. Traced runs also leave their spans, as Chrome
trace-event JSON, in <build dir>/spans/.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def step(cmd) -> bool:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def build(build_dir: Path) -> Path:
    """Configures on first use, then lets the build tool bring the binary up
    to date; a failed incremental build is retried once after reconfiguring."""
    cmake_dir = build_dir / "perfbench-cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", str(cmake_dir), "--target", "lac_perfbench", "-j", jobs]
    configured = (cmake_dir / "CMakeCache.txt").exists()
    if not (configured and step(make)):
        if not (step(configure) and step(make)):
            sys.exit(2)
    return cmake_dir / "lac_perfbench"


def git_sha() -> str:
    """The checkout's commit, or "unknown" outside a git work tree (the
    benchmark must not pick up the sha of some enclosing repository)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / ("%s-seed%d.json" % (args.workload, args.seed)))]
    env = dict(os.environ)
    env.setdefault("LAC_GIT_SHA", git_sha())
    # The binary prints the result line last; pass its stdout straight through.
    return subprocess.run(cmd, env=env, cwd=str(ROOT)).returncode


if __name__ == "__main__":
    sys.exit(main())
