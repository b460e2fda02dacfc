#!/usr/bin/env python3
"""Builds the benchmark and the `mc3` binary from source, then runs one workload.

    python3 perfbench/run.py --workload <solve-general|serve-cold|serve-repeat> \
        --seed <n> --seconds <n> --trace <0|1>

Run from the root of a checkout. Cargo output goes to stderr; the last line
of stdout is the result JSON printed by the benchmark binary. Build products
go to $CARGO_TARGET_DIR (default `.bench_build`).
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "mc3-cli", "--bin", "mc3"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--mc3", os.path.join(release, "mc3")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
