#!/usr/bin/env python3
"""Build and run the simulator benchmark (see README.md).

    python3 perfbench/run.py --workload paper_orgs --seed 0 --seconds 20 --trace 0

Run from the root of the source tree. The benchmark and the simulator
libraries it links are built from source into .bench_build/perfbench
(build log on stderr), then the benchmark binary runs with the given
arguments; its last line of standard output is one JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "nurapid_perfbench")
TMP_DIR = os.path.join(BUILD_ROOT, "tmp")
WORKLOADS = ("paper_orgs", "nurapid_dse", "base_serial_disk")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark target."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR],
                       stdout=sys.stderr, check=True, timeout=600)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "nurapid_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=1500)


def git_commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def reference_digest(workload, seed, smoke):
    """Digest of the default seed's simulated outputs, when recorded."""
    if seed != 0 or smoke:
        return None
    try:
        with open(os.path.join(HERE, "reference_digests.json")) as f:
            return json.load(f).get(workload)
    except (OSError, ValueError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny simulation length (the smoke test's mode)")
    ap.add_argument("--corrupt", action="store_true",
                    help="plant one wrong result (the smoke test's mode)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    knobs = sorted(k for k in os.environ if k.startswith("NURAPID_"))
    if knobs:
        fail("refusing to run with simulator knobs set: %s (the benchmark "
             "measures the defaults)" % " ".join(knobs))

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no simulator sources next to perfbench/ (%s)" % ROOT)
    # Compiler and run temporaries stay inside the checkout too.
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR
    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD_ROOT, "perfbench-work"),
           "--out-dir", os.path.join(BUILD_ROOT, "perfbench-out"),
           "--commit", git_commit()]
    digest = reference_digest(args.workload, args.seed, args.smoke)
    if digest:
        cmd += ["--expect-digest", digest]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd.append("--corrupt")
    sys.stdout.flush()
    return subprocess.run(cmd, timeout=900).returncode


if __name__ == "__main__":
    sys.exit(main())
