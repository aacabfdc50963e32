#!/usr/bin/env python3
"""Build and run the SDX benchmark from the root of a checkout.

    python3 perfbench/run.py --workload churn|forward \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is an OCaml executable (perfbench/sdxbench.ml) built with
dune against the repository's libraries; the first run builds it.  Its
last stdout line is the result object.  See perfbench/NOTES.md.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "sdxbench.exe")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of a full checkout (no dune-project or lib/ here)")
    env = dict(os.environ)
    # The controller's own domain pool stays at one domain, so no phase
    # ever has more runnable domains than the two this host has; the
    # forward workload's second reader is the only extra one.
    env["SDX_DOMAINS"] = "1"
    # Keep every build artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/sdxbench.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed")
    args = ["selftest"] if argv == ["--selftest"] else argv
    try:
        proc = subprocess.run(
            [EXE] + args, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return fail("benchmark exited with code %d" % proc.returncode)
    if args == ["selftest"]:
        return 0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("no result line")
    if set(result) != RESULT_KEYS:
        return fail("result line has keys %s" % sorted(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
