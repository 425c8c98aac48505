#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <lep5_reach|campaign_suite|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`,
or `.bench_build` when that is unset, then runs it with the same arguments
from the repository root.  Build output goes to stderr; the benchmark's own
stdout is passed through, its last line being the JSON result.  Exits
non-zero, without a result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--target-dir", target,
        ],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)
    try:
        return child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
