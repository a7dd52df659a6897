#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload atomic-wide --seed 1 --seconds 20 --trace 0

The script builds perfbench/main.exe with dune (release profile, build
tree under _build/ in the checkout, no shared cache) and then runs it
with the same arguments.  The executable's standard output is passed
through unchanged; its last line is the JSON result.  Build output
goes to standard error.  The exit code is the executable's, or
non-zero when the checkout cannot be built.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    """Return the dune executable, looking past PATH into the opam switch.

    A non-interactive shell may not have the opam environment loaded, so
    when PATH has no dune the active switch ($OPAM_SWITCH_PREFIX) and the
    switches under $OPAMROOT (default ~/.opam) are tried in turn."""
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    opam_root = os.environ.get("OPAMROOT") or os.path.expanduser("~/.opam")
    candidates.append(os.path.join(opam_root, "default", "bin", "dune"))
    candidates.extend(sorted(glob.glob(os.path.join(opam_root, "*", "bin", "dune"))))
    for c in candidates:
        if os.path.isfile(c) and os.access(c, os.X_OK):
            return c
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    # The benchmark measures the library in lib/; without the project
    # around it there is nothing to build.
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found next to perfbench/: run from a full checkout" % needed)

    dune = find_dune()
    if dune is None:
        fail("dune not found on PATH or in an opam switch")
    # The compilers and ocamlfind live next to dune in an opam switch;
    # the native compiler also calls the system assembler and linker.
    env = dict(os.environ)
    path = [os.path.dirname(dune)] + env.get("PATH", "").split(os.pathsep)
    path += [d for d in ("/usr/local/bin", "/usr/bin", "/bin") if d not in path]
    env["PATH"] = os.pathsep.join(p for p in path if p)

    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--profile", "release",
             "--cache", "disabled", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except OSError as e:
        fail("cannot start dune: %s" % e)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed (exit %d)" % build.returncode)

    sys.stdout.flush()
    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
