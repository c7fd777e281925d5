#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 benchmark/run.py --workload paper_capacity --seed 1 --seconds 20 --trace 0

The simulator is built from source (release profile) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), then ``spiffi-benchmark``
runs one workload and prints its JSON result as the last line of stdout.
Build output goes to stderr. Exits non-zero if the build fails, the run
fails a correctness check, or it overruns its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end well inside three minutes; the benchmark enforces a
# slightly shorter limit itself, this is the backstop.
RUN_TIMEOUT_S = 178


def main() -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPIFFI_")}
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(os.path.abspath(target), "release", "spiffi-benchmark")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark: run timed out", file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
