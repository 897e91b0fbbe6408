#!/usr/bin/env python3
"""Builds and runs the F-IVM end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (a CMake package that compiles the program's src/ tree) in
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later calls only re-check the build. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
Extra arguments (--small, --perturb <check>) pass through to the binary.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "fivm_perfbench")


def _have(tool):
    return any(os.access(os.path.join(p, tool), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep))


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "core", "ivm_engine.h")):
        print("error: the program's sources (src/) are not in this checkout",
              file=sys.stderr)
        return 2
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print("error: build failed: %s" % e, file=sys.stderr)
        return 2
    try:
        proc = subprocess.run([binary] + argv + ["--commit", commit()],
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print("error: benchmark exited with %d and no result" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 3
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
