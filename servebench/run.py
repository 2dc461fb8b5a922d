#!/usr/bin/env python3
"""Builds the serving benchmark from source, then runs one workload.

Usage, from the repository root:

  python3 servebench/run.py --workload crpq_warm --seed 1 --seconds 10 \
      --trace 0

The build tree is $CARGO_TARGET_DIR/servebench when that variable is set,
else .bench_build/servebench, relative to the current directory. Build
output goes to stderr, so stdout carries only the benchmark's own lines:
a metadata line, then the result line. With --trace 1 the span file is
written next to the binary. Exits 2 without a result when the ecrpq
sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = os.path.join(os.path.dirname(HERE), "src", "CMakeLists.txt")


def build(build_dir):
    """Configures (once) and builds servebench; returns the binary path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "servebench")


def flag(args, name):
    if name in args[:-1]:
        return args[args.index(name) + 1]
    return None


def main(args):
    if not os.path.isfile(SOURCES):
        print("servebench: ecrpq sources not found at " + SOURCES,
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "servebench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("servebench: build failed: %s" % e, file=sys.stderr)
        return 2
    if flag(args, "--trace") == "1" and flag(args, "--trace-out") is None:
        args = args + ["--trace-out", os.path.join(
            build_dir, "trace-%s-%s.json" % (flag(args, "--workload"),
                                             flag(args, "--seed")))]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
