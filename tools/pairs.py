"""Compare two git revisions on one bench workload, in alternating pairs.

    python3 tools/pairs.py BASE CHANGE --workload train-offpeak
    python3 tools/pairs.py HEAD~1 HEAD --workload peak --pairs 4 --seconds 12

Both revisions are extracted with ``git archive`` into a temporary
directory outside the repository, and ``bench/run.py`` runs from each tree
in turn: BASE first in even pairs, CHANGE first in odd ones.  For each
end-to-end metric of ``BENCHMARK.json`` it prints both medians, BASE's
interquartile range (IQR) and the pairs that CHANGE won; a tie counts for
neither side, and the metric's ``better`` field gives the direction.  The
exit status is 1 if any run exits non-zero, reports ``correct: false`` or
reports ``failed > 0``.  Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev, dest):
    """The files of the git revision ``rev`` of this repository, written
    under the new directory ``dest``."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, capture_output=True)
    if archive.returncode:
        sys.exit("git archive %s: %s"
                 % (rev, archive.stderr.decode().strip()))
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout,
                   check=True)


def run_bench(tree, workload, seed, seconds):
    """One ``bench/run.py`` run from ``tree``: its JSON result line, or
    None if it exited non-zero or printed none."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def failures(results):
    """How many of the run ``results`` (None for a run that crashed) did
    not report ``correct`` with no failed op."""
    return sum(r is None or not r["correct"] or r["failed"] > 0
               for r in results)


def summarize(pairs, metrics):
    """One row per metric of ``metrics`` (``BENCHMARK.json``'s
    ``end_to_end`` entries) over ``pairs`` of (base, change) results:
    (name, unit, base median, change median, base IQR, change wins).  The
    quartiles are inclusive, as ``statistics.quantiles`` takes them."""
    rows = []
    for m in metrics:
        base, change = ([r["metrics"][m["name"]]["value"] for r in side]
                        for side in zip(*pairs))
        q1, _, q3 = (statistics.quantiles(base, method="inclusive")
                     if len(base) > 1 else base * 3)
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        rows.append((m["name"], m["unit"], statistics.median(base),
                     statistics.median(change), q3 - q1, wins))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    p.add_argument("--seconds", type=float,
                   default=benchmark["run_seconds"])
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be positive")
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = [os.path.join(tmp, side) for side in ("base", "change")]
        for rev, tree in zip((args.base, args.change), trees):
            extract(rev, tree)
        pairs = []
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            pair = [None, None]
            for side in order:
                pair[side] = run_bench(trees[side], args.workload, args.seed,
                                       args.seconds)
            pairs.append(pair)
            print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)
    bad = failures([r for pair in pairs for r in pair])
    if bad:
        print("%d of %d runs crashed, were not correct or failed ops"
              % (bad, 2 * len(pairs)))
        return 1
    print("%s, %d pairs of %g s, seed %d: %s -> %s" % (
        args.workload, len(pairs), args.seconds, args.seed, args.base,
        args.change))
    print("%-16s %12s %12s %12s %6s" % ("metric", "base", "change",
                                        "base IQR", "wins"))
    for name, unit, base, change, iqr, wins in summarize(
            pairs, benchmark["end_to_end"]):
        print("%-16s %12.6g %12.6g %12.6g %3d/%d  %s" % (
            name, base, change, iqr, wins, len(pairs), unit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
