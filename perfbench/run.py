#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload campaign_faults --seed 1 --seconds 10 --trace 0

Run from the repository root. The build tree is $CARGO_TARGET_DIR when set,
else .bench_build; traces land in .bench_out/. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("campaign_faults", "campaign_solvers", "svc_flood", "engine_ring")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build(root: Path, build_dir: Path) -> Path:
    """Configures (once) and builds the perfbench target; returns the binary."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        return fail(f"repository sources not found under {root / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or root / ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        return fail(f"build failed: {err}")

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    sys.stdout.flush()
    return subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(out_dir)]).returncode


if __name__ == "__main__":
    sys.exit(main())
