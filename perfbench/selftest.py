#!/usr/bin/env python3
"""The benchmark's own tests, at a small scale (about two minutes).

Run from the root of a Quill checkout:

    python3 perfbench/selftest.py

1. Every workload's clean run passes its oracles.
2. Every poison mode (a wrong row value, a wrong row order, a forgotten
   acknowledged write) makes its run exit non-zero.
3. Two traced runs with the same seed report identical count metrics;
   the GC counts agree within GC_TOLERANCE.
4. A second seed keeps the per-shape statement counts and the read/write
   mix while the inputs change.
"""

import json
import subprocess
import sys

WORKLOADS = ("tpch_suite", "adhoc_small", "oltp_mixed")
POISONS = (("tpch_suite", "value"), ("tpch_suite", "order"),
           ("adhoc_small", "value"), ("adhoc_small", "order"),
           ("oltp_mixed", "value"), ("oltp_mixed", "order"),
           ("oltp_mixed", "lost_write"))
COUNTS = ("optimizer.plan_nodes", "exec.rows_scanned",
          "compile.stencil_hit_frac", "adaptive.plan_cache_hit_frac",
          "storage.index_builds_per_commit", "storage.wal_bytes_per_commit",
          "storage.wal_syncs_per_commit")
GC = ("gc.minor_words_per_op", "gc.promoted_words_per_op")
# Relative tolerance on the GC counts between two runs of one seed.  The
# minor-heap words repeat within about 3% under parallelism 2
# (tpch_suite: which domain runs which morsel varies) and within 1%
# serially; promotion depends on where minor collections fall relative
# to the work and varied by up to 8% (adhoc_small).
GC_TOLERANCE = {"gc.minor_words_per_op": 0.05, "gc.promoted_words_per_op": 0.15}

failures = []


def run(workload, seed, trace, *extra):
    args = ["python3", "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
            "--small", *extra]
    p = subprocess.run(args, capture_output=True, text=True, timeout=300)
    return p.returncode, p.stdout


def result(out):
    return json.loads(out.strip().split("\n")[-1])


def line(out, prefix):
    for l in out.split("\n"):
        if l.startswith(prefix):
            return l[len(prefix):].strip()
    return None


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def main():
    for w in WORKLOADS:
        rc, out = run(w, 1, 0)
        expect(rc == 0 and result(out)["correct"] and result(out)["failed"] == 0,
               "%s: clean run passes" % w)
    for w, mode in POISONS:
        rc, out = run(w, 1, 0, "--poison", mode)
        expect(rc != 0 and "oracle failure" in out,
               "%s: poison %s fails the run" % (w, mode))
    for w in WORKLOADS:
        rc1, out1 = run(w, 7, 1)
        rc2, out2 = run(w, 7, 1)
        rc3, out3 = run(w, 8, 1)
        expect(rc1 == rc2 == rc3 == 0, "%s: traced runs pass" % w)
        if rc1 or rc2 or rc3:
            continue
        m1, m2 = result(out1)["metrics"], result(out2)["metrics"]
        for name in COUNTS:
            expect(m1[name]["value"] == m2[name]["value"],
                   "%s: %s repeats (%s, %s)" % (w, name, m1[name]["value"],
                                               m2[name]["value"]))
        for name in GC:
            a, b = m1[name]["value"], m2[name]["value"]
            expect(abs(a - b) <= GC_TOLERANCE[name] * max(abs(a), abs(b), 1.0),
                   "%s: %s within %g (%s, %s)" % (w, name, GC_TOLERANCE[name], a, b))
        key = "mix (" if w == "oltp_mixed" else "shapes:"
        expect(line(out1, key) is not None and line(out1, key) == line(out3, key),
               "%s: seed 8 keeps the shape counts / mix of seed 7" % w)
        expect(line(out1, "inputs:") != line(out3, "inputs:"),
               "%s: seed 8 changes the inputs" % w)
    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
