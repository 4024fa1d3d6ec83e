"""hyperajscc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload conv_train --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it is the environment
stamp.  See perfbench/README.md.
"""

import os
import sys
import time

_START = time.perf_counter()
# Pin BLAS/OpenMP to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("conv_train", "dense_train", "sweep_eval")


def import_program() -> bool:
    """Put the checkout's src/ first on the path and import hyperajscc from it."""
    if not os.path.isfile(os.path.join(SRC, "hyperajscc", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return False
    # replace the script's own directory, so no perfbench module shadows another
    sys.path[0:1] = [ROOT, SRC]
    import hyperajscc

    if not os.path.abspath(hyperajscc.__file__).startswith(SRC + os.sep):
        print(f"perfbench: hyperajscc imported from {hyperajscc.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not import_program():
        return 2
    from perfbench import measure

    if args.setup_probe:
        import_s = time.perf_counter() - _START
        print(json.dumps(measure.probe_setup(args.workload, args.seed, import_s)))
        return 0
    result, env = measure.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{args.workload:12s} {name:36s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
