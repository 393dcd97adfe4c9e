#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a Quill checkout:

    python3 perfbench/run.py --workload tpch_suite --seed 1 --seconds 20 --trace 0

Every argument is passed to perfbench/qbench.exe (see README.md).  The
last line of standard output is the JSON result.
"""

import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "qbench.exe")


def source_digest():
    """SHA-256 over the library and benchmark sources, so a run names the
    code it measured even where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return "n/a"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "n/a"


def main():
    needed = ("dune-project", "lib", os.path.join("perfbench", "dune"))
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print("run.py: not the root of a Quill checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/qbench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    print("commit: %s source: %s" % (commit(), source_digest()), flush=True)
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
