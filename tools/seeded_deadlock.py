#!/usr/bin/env python3
"""Seeds the Grow/read-cache deadlock and checks the wait watchdog ends it.

The store must never refresh its epoch under an index OpScope (DESIGN.md
§4): a trigger action the refresh runs, a read-cache eviction during a
Grow, can wait on the scope's own chunk pin. This script reapplies that
bug as a source patch to a copy of the tree, the way
tools/model_mutate.py targets its mutants by content (a needle, never a
line number, so drift cannot detach it): an op whose allocation rolls a
page over refreshes before it releases its scope. It then builds
read_cache_test in the copy and runs the reproduction,
ReadCacheTest.PageRolloverUnderAGrowPinDoesNotWaitOnItself.

Expected: the run aborts through the wait watchdog (core/wait.h), and the
flight dump's reason names a wait site that its epoch table also shows a
thread waiting in (`wait=<site>`). The test's own 30 s `_Exit`, a clean
pass or any other failure is an error.

The reproduction deadlocks only when the op's own refresh runs Grow's
flip and the read-cache eviction. The grow thread refreshes in
BumpAndWait's wait and can run them first, in which case it waits for the
op's pin and the op goes on. So the copy also makes that wait sleep 50 ms
before each test, and the test sleep 200 ms before it lets the op go: by
then the grow thread has refreshed past the eviction's epoch, and it
sleeps through the op's refresh, which runs both actions. A clean pass
is retried, up to --runs times.

Usage: tools/seeded_deadlock.py [--workdir DIR] [--runs N] [--jobs N]
Exit status 0 when the watchdog caught the deadlock, 1 otherwise.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# (file, needle, replacement): each needle must occur once.
SEEDS = (
    ("src/core/faster.h",
     "if (!hlog_.NewPage(closed_page)) thread_yield();",
     "if (!hlog_.NewPage(closed_page)) thread_yield();\n"
     "    epoch_.Refresh();  // seeded: under the op's OpScope"),
    ("src/core/epoch.cc", "#include <cassert>\n",
     "#include <cassert>\n#include <thread>\n"),
    ("src/core/epoch.cc",
     "[&] { return ran.load(std::memory_order_acquire); }",
     "[&] {\n"
     "        std::this_thread::sleep_for(std::chrono::milliseconds(50));\n"
     "        return ran.load(std::memory_order_acquire);\n"
     "      }"),
    ("tests/read_cache_test.cc", "  op_state.store(2);\n",
     "  std::this_thread::sleep_for(std::chrono::milliseconds(200));\n"
     "  op_state.store(2);\n"),
)
TEST = "ReadCacheTest.PageRolloverUnderAGrowPinDoesNotWaitOnItself"
COPY = ("CMakeLists.txt", "src", "tests", "tools", "examples", "bench")


def seed(tree):
    for name, needle, seeded in SEEDS:
        path = os.path.join(tree, name)
        with open(path) as f:
            text = f.read()
        if text.count(needle) != 1:
            sys.exit(f"seeded_deadlock: needle not found once in {name}: "
                     f"{needle!r}")
        with open(path, "w") as f:
            f.write(text.replace(needle, seeded))


def build(tree, jobs):
    build_dir = os.path.join(tree, "build")
    subprocess.run(["cmake", "-S", tree, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], check=True,
                   stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs),
                    "--target", "read_cache_test"], check=True,
                   stdout=subprocess.DEVNULL)
    return os.path.join(build_dir, "tests", "read_cache_test")


def verdict(proc):
    """Returns (done, ok, message) for one run."""
    out = proc.stdout + proc.stderr
    if proc.returncode == 0:
        return False, False, "passed: this run did not deadlock"
    if "did not finish in 30 s" in out:
        return True, False, "the test's own 30 s exit fired, not the watchdog"
    reason = re.search(r"^reason: (\S+)$", out, re.M)
    if "FASTER wait watchdog" not in out or reason is None:
        return True, False, f"failed without the watchdog (exit " \
                            f"{proc.returncode})"
    site = reason.group(1)
    if re.search(r"local_epoch=\d+ wait=" + re.escape(site) + r"$", out,
                 re.M) is None:
        return True, False, f"the dump's epoch table shows no thread in {site}"
    return True, True, f"watchdog abort; the dump names wait site {site}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", help="where to copy the tree (default: a "
                    "temporary directory, removed afterwards)")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    args = ap.parse_args()

    tree = args.workdir or tempfile.mkdtemp(prefix="faster_seeded_")
    try:
        os.makedirs(tree, exist_ok=True)
        for name in COPY:
            src, dst = os.path.join(REPO, name), os.path.join(tree, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, dirs_exist_ok=True)
            else:
                shutil.copy2(src, dst)
        seed(tree)
        binary = build(tree, args.jobs)
        for run in range(1, args.runs + 1):
            proc = subprocess.run([binary, f"--gtest_filter={TEST}"],
                                  capture_output=True, text=True,
                                  timeout=120)
            done, ok, message = verdict(proc)
            print(f"seeded_deadlock: run {run}: {message}")
            if done:
                if not ok:
                    sys.stdout.write(proc.stdout[-4000:] + proc.stderr[-4000:])
                return 0 if ok else 1
        print("seeded_deadlock: the seeded bug never deadlocked")
        return 1
    finally:
        if args.workdir is None:
            shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
