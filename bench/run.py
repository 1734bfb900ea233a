"""Run the sodfeeder benchmark.

    python3 bench/run.py --workload eval --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one summary
    python3 bench/run.py --write-reference       # re-record reference.json

One run measures one workload in one process.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it runs a fixed number of ops once
untraced and once traced and prints the per-layer metrics, a self-time table
and the tracing overhead, and writes the spans under ``bench/out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not args.write_reference and args.workload is None:
        p.error("--workload is required")
    return args


def run_one(args):
    import harness
    harness.check_program_origin()
    wl = harness.WORKLOADS[args.workload]
    reference = harness.load_reference()
    lines = ["# workload %s  seed %d  trace %d" % (wl.name, args.seed,
                                                   args.trace),
             "machine: " + json.dumps(harness.machine_info())]
    if args.trace:
        metrics, ledger, t = harness.run_traced(wl, args.seed, reference)
        harness.OUT_DIR.mkdir(exist_ok=True)
        stem = "%s-seed%d" % (wl.name, args.seed)
        t.write_spans(harness.OUT_DIR / ("spans-%s.jsonl" % stem))
        table = t.self_time_table()
        (harness.OUT_DIR / ("selftime-%s.txt" % stem)).write_text(
            "\n".join(table) + "\n")
        lines.append("traced %d %ss; tracing overhead %.2fx (traced wall over "
                     "untraced wall of the same ops)" % (
                         wl.trace_ops, wl.op_unit,
                         metrics["trace.overhead_ratio"][0]))
        lines += table
        lines.append("spans: %d kept, written under %s" % (
            len(t.spans), harness.OUT_DIR.relative_to(harness.ROOT)))
    else:
        metrics, ledger, notes = harness.run_untraced(
            wl, args.seed, args.seconds, reference)
        lines.append("op = one %s; %d ops in %.2f s of host time (%.2f s "
                     "wall with calibration); setup median of %d; %d ops "
                     "beyond p90" % (
                         wl.op_unit, notes["ops"], notes["host_s"],
                         notes["wall_s"], notes["setup_repeats"],
                         notes["beyond_p90"]))
        lines.append("machine speed factor %.3f (median); unscaled: %s" % (
            notes["speed_factor"], ", ".join(
                "%s %.6g" % kv for kv in notes["raw"].items())))
        alias = ("episode_s" if wl.op_unit == "episode" else "update_s")
        lines.append("(%s.p50 = op_s.p50; env_steps_per_s = %d x "
                     "episodes_per_s)" % (alias, harness.steps_per_episode()))
    for name, (value, unit) in metrics.items():
        lines.append("%-36s %.6g %s" % (name, value, unit))
    lines.append("failed_frac = %d/%d = %.4f" % (
        ledger.failed, ledger.attempted, ledger.failed / ledger.attempted))
    lines.append("outputs_digest = %s (first %d ops)" % (
        ledger.outputs_digest(), len(ledger.digests)))
    lines.append("reference: %s" % (
        "checked (default seed)" if ledger.check_reference
        else "not checked (seed is not the default); audit only"))
    for msg in ledger.messages[:20]:
        print("FAILED " + msg, file=sys.stderr)
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    here = Path(__file__).resolve()
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(here), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            status = 1
            continue
        results[name] = json.loads(out[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.write_reference:
            import harness
            harness.check_program_origin()
            harness.write_reference()
            print("wrote %s" % harness.REFERENCE_PATH)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except ImportError as exc:
        print("cannot load the program: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
