"""momentkit benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload perron --seed 1 --seconds 20 --trace 0

Builds its inputs from --seed, runs a warm-up round of the workload's ops
and then whole rounds back to back until --seconds have passed (at least
MIN_ROUNDS timed rounds), scales their times by a calibration kernel run
beside them (speed.py), checks every output against an independent
reference, and prints a
report followed, as the last line, by one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 a separate traced pass gives the
per-layer ones.  Full results go to .perfbench/results/ at the root of the
checkout.  See bench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("perron", "models", "cli")
MIN_ROUNDS = 2
# valid inputs the library may refuse on numerical grounds: a finding the
# run reports and counts, not a failed op (see bench/README.md)
LIBRARY_REFUSALS = ("ConsistencyError", "ShiftConsistencyError")
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimum-size inputs and the fewest rounds, for the smoke check")
    return p.parse_args(argv)


def import_library():
    """Import momentkit from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "momentkit", "__init__.py")):
        raise SystemExit(f"momentkit sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import momentkit
    import momentkit.cli
    import momentkit.io  # noqa: F401

    if not os.path.abspath(momentkit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"momentkit imported from {momentkit.__file__}, not {SRC}")
    return momentkit


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


# -- running ops ------------------------------------------------------------

def run_op(op, tracer=None):
    """Time op.run() alone, then classify its outcome.

    Returns (seconds, status, figures) with status "ok", "rejected" (an
    invalid input refused with the expected error), "refused_valid" (a
    valid input the library refused with one of LIBRARY_REFUSALS),
    "inaccurate" (outside the library's accuracy bound, within
    WRONG_FACTOR times it), "raised:<Kind>" or "wrong:<message>".  Only the
    last two are failed ops, and only "wrong" makes a run incorrect; the
    two before them are findings about the library that a run reports.
    """
    from common import Inaccurate, WrongValue

    run = op.run if tracer is None else (lambda: tracer.span("bench.op", op.run))
    start = time.perf_counter()
    try:
        result, error = run(), None
    except Exception as exc:  # every failure is counted, none ends the run
        result, error = None, exc
    elapsed = time.perf_counter() - start

    def checked(arg):
        if tracer is None:
            return op.check(arg)
        return tracer.span("bench.check", op.check, arg)

    try:
        if isinstance(error, WrongValue):
            raise error
        if op.expect is not None:
            if error is None:
                raise WrongValue(f"{op.label}: invalid input accepted")
            if type(error).__name__ != op.expect:
                raise WrongValue(f"{op.label}: rejected with {type(error).__name__}, "
                                 f"expected {op.expect}")
            return elapsed, "rejected", checked(error)
        if type(error).__name__ in LIBRARY_REFUSALS:
            return elapsed, "refused_valid", {"message": f"{type(error).__name__}: {error}"[:200]}
        if error is not None:
            return elapsed, f"raised:{type(error).__name__}", {"message": str(error)[:200]}
        return elapsed, "ok", checked(result)
    except Inaccurate as exc:
        return elapsed, "inaccurate", {"message": str(exc)}
    except WrongValue as exc:
        return elapsed, f"wrong:{exc}", {}


def run_round(ops, tracer=None):
    """Every op once, each followed by the calibration kernel.

    Returns (records, slowdown): one (op, seconds, status, figures) per op,
    and the kernel's slowdown over the round (see speed.py).
    """
    meter = speed.Meter()
    records = []
    for op in ops:
        record = (op, *run_op(op, tracer))
        meter.follow(record[1])
        records.append(record)
    return records, meter.slowdown()


def run_rounds(ops, seconds):
    """A warm-up round, then whole rounds until `seconds` have passed
    (at least MIN_ROUNDS of them)."""
    warm = run_round(ops)
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(run_round(ops))
    return warm, rounds


def tail(times):
    """The highest percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond it, and the
    maximum is returned (as percentile 100).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def per_op_medians(rounds):
    """Each op of the list at its median scaled time across rounds."""
    return [statistics.median(rec[i][1] / slow for rec, slow in rounds)
            for i in range(len(rounds[0][0]))]


def summarise(warm, rounds):
    """Figures of whole timed rounds of the same op list.

    Times are scaled by each round's calibration slowdown (speed.py).
    Each op of the list gets its median over the rounds.  `wall_s` is
    their sum; `op_p50_s` and `op_tail_s` are taken over them, so the tail
    names the slowest kinds of op.  Over every sample, the median mixes
    clusters of different op kinds in varying proportions, and the tail,
    where the intermittent OpenBLAS stalls show, moved by 2.6x between runs
    of the same code; both are reported raw only.
    Outcomes are counted over the warm-up round too.
    """
    records = [r for rec, _ in [warm] + rounds for r in rec]
    raw = [t for rec, _ in rounds for _, t, _, _ in rec]
    per_op = per_op_medians(rounds)
    wall = sum(per_op)
    value, pct, n = tail(per_op)
    raw_value, raw_pct, _ = tail(raw)
    statuses = [s for _, _, s, _ in records]
    failed = [s for s in statuses if s.startswith(("raised", "wrong"))]
    wrong = [s for s in failed if s.startswith("wrong")]
    figures = [f for _, _, _, f in records]
    errs = [f["max_err"] for f in figures if "max_err" in f]
    near = {}
    for f in figures:
        for radius, err in f.get("near_i", []):
            near[radius] = max(near.get(radius, 0.0), err)
    cells = [f["converged"] for f in figures if "converged" in f]
    kinds = {}
    for s in statuses:
        if s not in ("ok", "rejected"):
            key = "wrong" if s.startswith("wrong") else s
            kinds[key] = kinds.get(key, 0) + 1
    slowdowns = [slow for _, slow in rounds]
    return {
        "rounds": len(rounds),
        "attempted": len(records),
        "failed": len(failed),
        "wrong": len(wrong),
        "refused_valid": statuses.count("refused_valid"),
        "inaccurate": statuses.count("inaccurate"),
        "outcomes": kinds,
        "wrong_examples": wrong[:5],
        "finding_examples": sorted({f"{s}: {f['message']}" for _, _, s, f in records
                                    if s.startswith(("raised", "inaccurate", "refused"))})[:5],
        "wall_s": wall,
        "ops_per_s": len(per_op) / wall,
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": value,
        "op_tail_percentile": pct,
        "op_samples": n,
        "raw_round_s": statistics.median(sum(t for _, t, _, _ in rec) for rec, _ in rounds),
        "raw_p50_s": statistics.median(raw),
        "raw_tail_s": raw_value,
        "raw_tail_percentile": raw_pct,
        "slowdown": {"median": statistics.median(slowdowns), "min": min(slowdowns),
                     "max": max(slowdowns)},
        "points_per_s": sum(op.points for op, *_ in rounds[0][0]) / wall,
        # library refusals of valid inputs and inaccurate values count here,
        # though not in `failed`
        "fail_frac": (len(failed) + statuses.count("refused_valid")
                      + statuses.count("inaccurate")) / len(records),
        "max_err": max(errs) if errs else None,
        "near_i_err": {f"{r:g}": e for r, e in sorted(near.items(), reverse=True)} or None,
        "converged_ratio": (sum(cells) / len(cells)) if cells else None,
        "converged_base": len(cells),
        "determinacy_flipped": sum(bool(f.get("determinacy_flipped")) for f in figures),
        "per_op_s": ({op.label: t for (op, *_), t in zip(rounds[0][0], per_op)}
                     if len(per_op) <= 12 else None),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up ------------------------------------------------------------------

def make_setup(mk, args, work_dir):
    import wl_cli
    import wl_models
    import wl_perron

    module = {"perron": wl_perron, "models": wl_models, "cli": wl_cli}[args.workload]
    kwargs = {"work_dir": work_dir} if args.workload == "cli" else {}
    return lambda: module.setup(mk, args.seed, smoke=args.smoke, **kwargs)


def timed_setups(setup):
    """Set up SETUP_REPEATS times; return the last Work, the median scaled
    time and the raw times."""
    scaled_times, raw_times, work = [], [], None
    for _ in range(SETUP_REPEATS):
        work, scaled, raw = speed.scaled(setup)
        scaled_times.append(scaled)
        raw_times.append(raw)
    return work, statistics.median(scaled_times), raw_times


def import_probe():
    """Fresh interpreters that only import momentkit, IMPORT_REPEATS times.

    Returns the median time of the import statement and all the times,
    unscaled (see speed.py).
    """
    from common import child_env

    env = child_env(SRC)
    code = ("import time; t = time.perf_counter(); import momentkit.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times), times


# -- the two kinds of run ----------------------------------------------------

def untraced(mk, args, report, work_dir):
    setup = make_setup(mk, args, work_dir)
    import_s, import_raw = import_probe()
    work, setup_median, setup_raw = timed_setups(setup)
    report["fixtures"] = work.fixtures
    report["census"] = work.census
    emit_header(report)
    s = summarise(*run_rounds(work.ops, 0 if args.smoke else args.seconds))
    s["setup_s"] = import_s + setup_median
    s["setup_parts_s"] = {"import": import_s, "rest": setup_median,
                          "raw_import": import_raw, "raw_rest": setup_raw}
    s["peak_rss_mb"] = peak_rss_mb()
    report["summary"] = s
    metrics = {k: {"value": s[k], "unit": u} for k, u in END_TO_END.items()}
    return s, metrics


def traced(mk, args, report, work_dir):
    from tracer import Tracer, layer_names

    setup = make_setup(mk, args, work_dir)
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        work = setup_tracer.span("bench.setup", setup)
    finally:
        setup_tracer.uninstall()
    report["fixtures"] = work.fixtures
    report["census"] = work.census
    emit_header(report)
    tracer = Tracer()
    warm = run_round(work.ops)
    plain, traced_rounds = [], []
    deadline = time.perf_counter() + (0 if args.smoke else args.seconds)
    while not traced_rounds or time.perf_counter() < deadline:
        # alternate which side of a pair goes first, so warm-up is shared
        for side in (("plain", "traced") if len(plain) % 2 == 0 else ("traced", "plain")):
            if side == "plain":
                plain.append(run_round(work.ops))
                continue
            tracer.install()
            try:
                traced_rounds.append(tracer.span(
                    "bench.round", lambda: run_round(work.ops, tracer)))
            finally:
                tracer.uninstall()
    s = summarise(warm, plain + traced_rounds)
    # both sides measured as wall_s is: each op at its median scaled time
    wall_plain = sum(per_op_medians(plain))
    wall_traced = sum(per_op_medians(traced_rounds))
    per_round = len(traced_rounds)
    table = tracer.table()
    import_s, _ = import_probe()
    metrics = {}
    for name in layer_names():
        if tracer.is_absent(name):
            continue
        row = table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.total_s"] = {"value": row["total_s"] / per_round, "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": row["self_s"] / per_round, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": row["calls"] / per_round, "unit": "count"}
    metrics["nevanlinna.conditioning_errors"] = {
        "value": tracer.conditioning_errors() / per_round, "unit": "count"}
    metrics["reconstruct.converged_ratio"] = {
        "value": tracer.converged / tracer.cells if tracer.cells else 0.0, "unit": "ratio"}
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    statuses = [st for rec, _ in traced_rounds for _, _, st, _ in rec]
    metrics["checks.refused_valid"] = {
        "value": statuses.count("refused_valid") / per_round, "unit": "count"}
    metrics["checks.inaccurate"] = {
        "value": statuses.count("inaccurate") / per_round, "unit": "count"}
    report["trace"] = {
        "rounds_traced": per_round,
        "rounds_untraced": len(plain),
        "untraced_round_s": wall_plain,
        "traced_round_s": wall_traced,
        "overhead_s": wall_traced - wall_plain,
        "overhead_frac": (wall_traced - wall_plain) / wall_plain,
        "absent": tracer.absent,
        "converged_base": tracer.cells,
        "setup_layers": setup_tracer.table(),
        "round_layers": {k: {kk: vv / per_round for kk, vv in v.items()}
                         for k, v in table.items()},
    }
    report["summary"] = s
    return s, metrics, tracer, setup_tracer


# -- output ------------------------------------------------------------------

def emit_header(report):
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace_flag']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for line in report["fixtures"]:
        print("fixture " + line)
    print("census " + json.dumps(report["census"], sort_keys=True))
    sys.stdout.flush()


def tail_name(percentile):
    return "the maximum" if percentile >= 100.0 else f"p{percentile:.1f}"


def emit_summary(s, workload):
    parts = s.get("setup_parts_s")
    slow = s["slowdown"]
    lines = [
        f"times are scaled to the calibration kernel at {1e3 * speed.REFERENCE_S:g} ms per "
        f"call; its slowdown over the rounds was {slow['median']:.3f} "
        f"({slow['min']:.3f}..{slow['max']:.3f})",
        f"  setup_s        {s['setup_s']:.4f} s  (median raw import in a fresh interpreter "
        f"{parts['import']:.4f} s of {fmt_list(parts['raw_import'])} + median of "
        f"{SETUP_REPEATS} scaled set-ups {parts['rest']:.4f} s; raw set-ups "
        f"{fmt_list(parts['raw_rest'])}, the first cold)" if parts else None,
        f"  wall_s         {s['wall_s']:.4f} s  (one round, each op at its median over "
        f"{s['rounds']} rounds; median raw round {s['raw_round_s']:.4f} s)",
        f"  ops_per_s      {s['ops_per_s']:.4f} 1/s",
        f"  op_p50_s       {s['op_p50_s']:.6f} s  (of {s['op_samples']} per-op medians; "
        f"over all raw samples {s['raw_p50_s']:.6f} s)",
        f"  op_tail_s      {s['op_tail_s']:.6f} s  ({tail_name(s['op_tail_percentile'])} of "
        f"{s['op_samples']} per-op medians; over all raw samples "
        f"{tail_name(s['raw_tail_percentile'])} is {s['raw_tail_s']:.6f} s)",
        f"  points_per_s   {s['points_per_s']:.1f} 1/s  (nominal transform points)",
        f"  fail_frac      {s['fail_frac']:.4f}  (of {s['attempted']} ops: {s['failed']} failed, "
        f"{s['refused_valid']} valid inputs refused by the library, {s['inaccurate']} values "
        f"outside the library's accuracy bound; only the first count in `failed`)",
        f"  max_err        {s['max_err']}" + (" (relative)" if s["max_err"] is not None else ""),
        f"  near_i_err     {s['near_i_err']}  (relative, by |z - i|)" if workload == "models"
        else None,
        f"  peak_rss_mb    {s['peak_rss_mb']:.1f} MB" if "peak_rss_mb" in s else None,
        f"  converged      {s['converged_ratio']} of {s['converged_base']} cells"
        if s["converged_base"] else None,
    ]
    print("end-to-end:")
    print("\n".join(x for x in lines if x))
    for w in s["wrong_examples"]:
        print("  WRONG " + w)
    for w in s["finding_examples"]:
        print("  " + ("FAILED " if w.startswith("raised") else "FINDING ") + w)


def fmt_list(values):
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def write_results(report, tracer=None, setup_tracer=None):
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = os.path.join(OUT, "results", f"{report['workload']}-seed{report['seed']}")
    if tracer is None:
        path = stem + ".json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, default=str)
        return path
    path = stem + "-trace.json"
    names = {}
    spans = []
    for phase, tr in (("setup", setup_tracer), ("rounds", tracer)):
        base = tr.spans[0][1] if tr.spans else 0.0
        rows = [[names.setdefault(n, len(names)), s - base, e - base, p, err]
                for n, s, e, p, err in tr.spans]
        spans.append({"phase": phase, "rows": rows})
    report["spans"] = {"columns": ["name", "start_s", "end_s", "parent", "error"],
                       "names": list(names), "phases": spans}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, default=str, separators=(",", ":"))
    return path


def main(argv=None):
    # turn SIGTERM into SystemExit, so a running import probe is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    sys.path.insert(0, BENCH)
    mk = import_library()
    report = {"workload": args.workload, "seed": args.seed, "trace_flag": args.trace,
              "seconds": args.seconds, "env": environment()}
    # input files and command outputs; only the results are kept
    work_dir = os.path.join(OUT, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            s, metrics, tracer, setup_tracer = traced(mk, args, report, work_dir)
            emit_summary(s, args.workload)
            t = report["trace"]
            print(f"tracing overhead {t['overhead_s']:.4f} s per round "
                  f"({100 * t['overhead_frac']:.1f}% of {t['untraced_round_s']:.4f} s)")
            path = write_results(report, tracer, setup_tracer)
        else:
            s, metrics = untraced(mk, args, report, work_dir)
            emit_summary(s, args.workload)
            path = write_results(report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"results {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": s["wrong"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
