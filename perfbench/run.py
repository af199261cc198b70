"""Benchmark of the bthom pipeline: BT point -> corrected homoclinic orbit.

    python3 perfbench/run.py --workload hh_orbital_40x4 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process drives the public ``bthom`` API as a closed loop with a
single client: the next op starts when the previous one has finished.  One
op is one corrected homoclinic orbit whose outputs passed the checks in
``workloads.py``.

``--trace 0`` times each op end to end with nothing wrapped and reports the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` runs every input
twice, once plain and once with the layer boundaries wrapped by
``tracer.py``, and reports the per-layer metrics, the tracing overhead and
how much of the op the layer self times cover.

The last line of standard output is the JSON result; the lines before it are
a readable report.  The full record (environment, seed, every op's inputs,
time and failure, and the spans of a traced run) goes to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one set-up in this process plus this many in fresh child processes
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 170


def set_up(name: str, seed: int):
    """Import bthom, build the workload, run one warm-up op; time it all.

    Runs in a fresh process, so the time includes import-time work and the
    filling of lazy caches.  Returns (workload, context, warm-up row, seconds).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports bthom
    w = workloads.WORKLOADS[name]
    ctx = w.setup()
    warm = run_op(w, ctx, -1, next(w.rounds(seed))[0])
    return w, ctx, warm, time.perf_counter() - t0


def run_op(w, ctx, op: int, inp: dict, tracer=None):
    """Run and check one op, traced when a tracer is given; never raises.

    Only the op is timed and traced; its checks are not.  Returns the op's row.
    """
    t0 = time.perf_counter()
    try:
        with tracer.installed(op) if tracer else contextlib.nullcontext():
            out = w.op(ctx, inp)
    except Exception as exc:  # every failure type is counted; the run goes on
        return {"op": op, "input": inp, "s": time.perf_counter() - t0, "ok": False,
                "error": f"{type(exc).__name__}: {exc}"}
    dt = time.perf_counter() - t0
    try:
        bad = w.check(out)
    except Exception as exc:
        bad = [f"check raised {type(exc).__name__}: {exc}"]
    row = {"op": op, "input": inp, "s": dt, "ok": not bad, "iters": int(out.iters)}
    if bad:
        row["error"] = "; ".join(bad)
    return row


def child_setup_s(name: str, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"set-up child failed ({proc.returncode}):\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def timed_loop(w, ctx, seed: int, seconds: float, tracer=None):
    """Closed loop over whole rounds of the seeded inputs for about ``seconds``.

    A run ends only between rounds, so that every cell has run equally often:
    after each round it stops if less than half a round's mean duration is
    left.  Traced, each input runs plain and traced, alternating which goes
    first.  Returns (plain rows, traced rows).
    """
    plain, traced = [], []
    t0 = time.perf_counter()
    i = 0
    for n_rounds, batch in enumerate(w.rounds(seed), start=1):
        for inp in batch:
            if tracer is None:
                modes = [None]
            else:
                modes = [None, tracer] if i % 2 == 0 else [tracer, None]
            for t in modes:
                (traced if t else plain).append(run_op(w, ctx, i, inp, t))
            i += 1
        elapsed = time.perf_counter() - t0
        if seconds - elapsed < 0.5 * elapsed / n_rounds:
            break
    return plain, traced


def tail(times: list[float]):
    """(value, percentile, samples beyond): the highest percentile with at
    least 10 samples beyond it, or the median when that is not above it."""
    xs = sorted(times)
    n = len(xs)
    if n >= 22:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return statistics.median(xs), 50.0, n // 2


def end_to_end(rows, setups):
    ok = [r["s"] for r in rows if r["ok"]] or [r["s"] for r in rows]
    value, pct, beyond = tail(ok)
    return {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(ok),
        "op_s_tail": value,
        "ops_per_s": sum(r["ok"] for r in rows) / sum(r["s"] for r in rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": sum(not r["ok"] for r in rows) / len(rows),
    }, {"op_s_tail_percentile": pct, "op_s_tail_beyond": beyond, "ok_samples": len(ok)}


def per_layer(tracer, plain, traced) -> dict:
    """Per-layer metrics of the traced ops: per-op medians unless noted."""
    from tracer import TARGETS, per_op_layers
    layers = per_op_layers(tracer.spans)
    median = statistics.median
    ops = [r["op"] for r in traced]
    out = {}
    for group in set(TARGETS) - set(tracer.absent):
        for stat in ("calls", "s", "self_s"):
            out[f"{group}.{stat}"] = median(layers[op][f"{group}.{stat}"] for op in ops)
    ok = [r for r in traced if r["ok"]]
    if ok and "corrector.newton_correct" not in tracer.absent:
        out["corrector.newton.iters"] = median(r["iters"] for r in ok)
        # accepted steps / trial residuals; Newton's first residual is no trial
        trials = sum(layers[r["op"]]["newton_residuals"] - layers[r["op"]]["newton_calls"]
                     for r in ok)
        if trials:
            out["corrector.newton.accept_ratio"] = sum(r["iters"] for r in ok) / trials
    if tracer.jac_info:
        info = list(tracer.jac_info.values())
        for k, key in enumerate(("corrector.system_n", "corrector.jac_nnz",
                                 "corrector.jac_bytes")):
            out[key] = median(i[k] for i in info)
    traced_s = [r["s"] for r in traced]
    out["trace.op_s_p50"] = median(traced_s)
    out["trace.overhead_s"] = median(traced_s) - median(r["s"] for r in plain)
    out["trace.self_coverage"] = sum(layers[op]["self_total"] for op in ops) / sum(traced_s)
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError):  # older numpy/scipy have no dict mode
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "bthom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": NPROC,
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and print it (used for setup_s)")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bthom" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a bthom source checkout ({SRC / 'bthom'} and "
              f"{spec_path} are needed)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)

    w, ctx, warm, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s] + [child_setup_s(args.workload, args.seed)
                          for _ in range(SETUP_CHILDREN)]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    plain, traced = timed_loop(w, ctx, args.seed, args.seconds, tracer)
    rows = plain + traced
    e2e, tail_info = end_to_end(plain, setups)
    values = per_layer(tracer, plain, traced) if tracer else e2e
    section = spec["per_layer"] if tracer else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section if m["name"] in values}
    absent = [m["name"] for m in section if m["name"] not in values]
    failures = [r for r in [warm] + rows if not r["ok"]]
    n_failed = sum(not r["ok"] for r in rows)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "setup_s_samples": setups, "end_to_end": e2e, **tail_info,
        "per_layer": values if tracer else None, "absent": absent,
        "missing_targets": tracer.missing if tracer else None,
        "warmup": warm, "ops": rows,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        with gzip.open(OUT / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump(tracer.write_spans(), fh)

    env = record["environment"]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(rows)} ops, "
          f"{n_failed} failed; python {env['python']} numpy {env['numpy']} "
          f"scipy {env['scipy']} {env['blas_numpy']} x{NPROC} threads, "
          f"commit {env['commit']}")
    shown = [(m["name"], m["unit"]) for m in section if m["name"] in values]
    if not tracer:
        shown.append(("fail_frac", "ratio"))
    for name, unit in shown:
        print(f"  {name:34s} {values[name]:14.6g} {unit}")
    if not tracer:
        print(f"  op_s_tail is p{tail_info['op_s_tail_percentile']:.1f} of "
              f"{tail_info['ok_samples']} ops, {tail_info['op_s_tail_beyond']} beyond it")
    for name in absent:
        print(f"  {name:34s} absent (the traced name is gone)")
    for r in failures:
        print(f"  FAILED op {r['op']} {json.dumps(r['input'])}: {r['error']}")
    print(f"  record: {(OUT / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": not failures, "attempted": len(rows),
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
