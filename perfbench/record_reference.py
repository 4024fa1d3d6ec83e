"""Record the per-seed reference values that every benchmark run checks.

    python3 perfbench/record_reference.py --seeds 256 [--workload NAME ...]

For each workload and seed 0..N-1 this runs the check batches untimed and
stores what `reference_of` makes of them (the train loss after the check
steps, or the sweep's mean PSNR per grid SNR) in perfbench/reference.json.
Workloads not named keep their stored values.  The stored values define
correct output: re-record only when a change to the program is meant to
change its numbers, and say so.
"""

import argparse
import json
import sys

import run  # pins BLAS threads before numpy loads


def main() -> int:
    ap = argparse.ArgumentParser(description="record perfbench reference values")
    ap.add_argument("--seeds", type=int, default=256)
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args()
    if not run.import_program():
        return 2
    from perfbench import measure, workloads

    names = args.workload or run.WORKLOADS
    recorded = {}
    for name in names:
        values = {}
        for seed in range(args.seeds):
            with measure.scratch_dir() as workdir:
                r = workloads.WORKLOADS[name](seed, workdir)
                got = [r.step()[0] for _ in range(r.check_batches)]
            values[str(seed)] = r.reference_of(got)
        recorded[name] = {"values": values}
        print(f"{name}: {args.seeds} seeds", file=sys.stderr)
    try:
        table = measure.load_reference()
    except FileNotFoundError:
        table = {}
    table.update(recorded)
    with open(measure.REFERENCE_FILE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
