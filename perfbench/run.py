#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold_flow --seed 1 --seconds 10 --trace 0

Builds two release binaries from source into $CARGO_TARGET_DIR
(default `.bench_build`): the `corepart` CLI, whose `serve` command the
serve_zipf workload runs as a daemon, and the `corepart-perfbench`
benchmark binary. Then it runs that binary, which prints the result as
the last line of standard output. Build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("cold_flow", "corpus_gen", "serve_zipf", "verify_batch")


def cargo_build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    for needed in ("Cargo.toml", os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.isfile(needed):
            sys.exit(f"perfbench: run from the repository root ({needed} not found)")

    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo_build("Cargo.toml", "-p", "corepart", "--bin", "corepart")
    cargo_build(os.path.join("perfbench", "Cargo.toml"))

    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "corepart-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--corepart", os.path.join(release, "corepart"),
        "--out-dir", ".bench_out",
    ]
    # The benchmark pins every thread count itself; an inherited override
    # would silently change what is measured.
    env = {k: v for k, v in os.environ.items()
           if k not in ("COREPART_THREADS", "RAYON_NUM_THREADS")}
    sys.exit(subprocess.run(bench, env=env).returncode)


if __name__ == "__main__":
    main()
