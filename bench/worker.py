"""One measured run of the entnmf harness in a fresh process.

    python3 bench/worker.py --config CFG.json [--threads K] [--trace SPANS.csv] [--setup-only]

Times set-up (imports, `load_config`, `realize_dataset`) from the first line
of this file, then `run_experiment`, the call `entnmf sweep` makes. Prints one
JSON line: setup_s, run_s, peak_rss_mb (the larger ru_maxrss of this process
and of any child it waited for), the paths written, and with --trace the
span-derived per-layer metrics. entnmf must be
importable from the checkout's src/ (bench/run.py sets PYTHONPATH).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace", default=None, help="record spans and write them to this CSV")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import entnmf
    from entnmf import experiment

    if not os.path.realpath(entnmf.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"entnmf was imported from {entnmf.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    cfg = experiment.load_config(args.config)
    experiment.realize_dataset(cfg.dataset)
    out = {"setup_s": time.perf_counter() - _T0}
    if not args.setup_only:
        run = experiment.run_experiment
        tracer = None
        if args.trace:
            from tracer import ROOT_SPAN, Tracer

            tracer = Tracer()
            tracer.install()
            run = tracer.wrap(ROOT_SPAN, run)
        start = time.perf_counter()
        paths = run(cfg, threads=args.threads)
        out["run_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = max(resource.getrusage(who).ru_maxrss
                                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
        out["paths"] = list(paths)
        if tracer is not None:
            out["layers"] = tracer.finish(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
