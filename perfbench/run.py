"""rdars benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload campaign_sweep --seed 1 --seconds 45 --trace 0

Run from anywhere; rdars is imported from ``src/`` next to this directory,
never from an installed copy. BLAS is pinned to one thread before numpy
loads. ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` runs a fixed op list untraced, traced, untraced, traced and
prints the per-layer metrics. The last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
every metric with its unit, the extras (op_s_tail, failed_frac per sweep
value), the environment and each failure. See README.md.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from array import array  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402  (after the BLAS pin above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# setup_s is the median of fresh-process probes taken in three batches:
# before the warm-up, after it, and after the timed passes, so one slow
# phase of a shared host cannot set it alone.
SETUP_BATCH = 3
COVERAGE_MIN = 0.90    # trace.coverage floor where ops are single layer calls
COVERAGE_CHECKED = ("scan_default", "campaign_sweep")
REPEAT_COUNTS = ("wmmse.outer_iters", "wmmse.precoders_at.calls",
                 "wmmse.power_iteration.steps")


def require_sources() -> None:
    if not (SRC / "rdars" / "__init__.py").is_file():
        sys.exit(f"error: no rdars sources under {SRC}")


def import_rdars() -> types.SimpleNamespace:
    """Import rdars from this checkout's ``src/`` or exit nonzero."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import rdars
    from rdars import arrays, closed_form, harness, metrics, scenario, wmmse
    if SRC.resolve() not in Path(rdars.__file__).resolve().parents:
        sys.exit(f"error: imported rdars from {rdars.__file__}, not {SRC}")
    return types.SimpleNamespace(package=rdars, arrays=arrays,
                                 closed_form=closed_form, harness=harness,
                                 metrics=metrics, scenario=scenario,
                                 wmmse=wmmse)


def build_workload(name: str, seed: int):
    r = import_rdars()
    from workloads import WORKLOADS
    fingerprints = json.loads((HERE / "fingerprints.json").read_text())
    return r, WORKLOADS[name](r, seed, fingerprints)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes: import rdars, build the scenario and
    config, make the workload's inputs."""
    samples = []
    for _ in range(SETUP_BATCH):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def environment(args, r) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rdars").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": int(BLAS_THREADS),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16],
            "rdars": getattr(r.package, "__version__", "unknown")}


class Tally:
    """Ops folded in as they finish, so memory does not grow with the run."""

    def __init__(self):
        self.ok_times = array("d")
        self.attempted = self.failed_rows = 0
        self.bad: list[str] = []
        self.groups = defaultdict(lambda: [0, 0])   # group -> [not ok, all]

    def add(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            if op.group:
                self.groups[op.group][0] += op.state != "ok"
                self.groups[op.group][1] += 1
            if op.state == "ok":
                self.ok_times.append(op.seconds)
            elif op.state == "failed":
                self.failed_rows += 1
            else:
                self.bad.append(op.detail)


def timed_passes(wl, tally: Tally, budget_s: float) -> tuple[float, int]:
    """Run whole passes over ``wl.items``: keep starting passes while the
    next one would end nearer the budget than stopping now; at least one.
    Returns (wall seconds, pass count)."""
    passes = 0
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for item in wl.items:
            tally.add(wl.run(item))
        passes += 1
        now = time.perf_counter()
        if now - start + 0.5 * (now - t_pass) > budget_s:
            return now - start, passes


def tail(samples) -> tuple[float, float, int] | None:
    """Highest percentile 100(1 - 10^-k) with at least ten samples beyond
    it, as (percentile, value, samples beyond), or None."""
    best = None
    for k in range(1, 7):
        if len(samples) * 10.0 ** -k < 10.0:
            break
        pct = 100.0 * (1.0 - 10.0 ** -k)
        value = float(np.percentile(samples, pct))
        best = (pct, value, int(np.count_nonzero(np.asarray(samples) > value)))
    return best


def end_to_end(setup, tally: Tally, wall: float, passes: int, spec):
    n_ok = len(tally.ok_times)
    values = {
        "setup_s": statistics.median(setup),
        "ok_per_s": n_ok / wall,
        "op_s_p50": statistics.median(tally.ok_times) if n_ok else None,
        "ok_frac": n_ok / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    lines = [f"timed: {passes} pass(es), {tally.attempted} ops, {wall:.3f} s; "
             f"setup samples {[round(s, 4) for s in setup]}"]
    for name, m in metrics.items():
        shown = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:<14} {shown:<14} {m['unit']}")
    t = tail(tally.ok_times)
    lines.append(f"  {'op_s_tail':<14} " + (
        f"{t[1]:<14.6g} s  (p{t[0]:g} of {n_ok} ok ops, {t[2]} beyond)"
        if t else f"{'n/a':<14} s  (only {n_ok} ok ops; needs >= 100)"))
    n_bad = tally.attempted - n_ok
    lines.append(f"  {'failed_frac':<14} {n_bad / tally.attempted:<14.6g} ratio"
                 f"  ({n_bad}/{tally.attempted})")
    for g, (bad, total) in sorted(tally.groups.items(),
                                  key=lambda kv: float(kv[0].split("=")[1])):
        lines.append(f"    failed_frac[{g}] {bad / total:.4g}  ({bad}/{total})")
    return metrics, lines


def layer_value(name: str, tr):
    """A per-layer metric from one tracer, or None when the function or
    counter behind it no longer exists."""
    if name in tr.broken:
        return None
    if name == "trace.coverage":
        return tr.coverage()
    if name in ("wmmse.outer_iters", "wmmse.unconverged"):
        return tr.counters[name] if "wmmse.ao_solve" in tr.wrapped else None
    func, _, stat = name.rpartition(".")
    if func not in tr.wrapped:
        return None
    if name == "wmmse.precoders_at.per_update":
        if "wmmse.update_precoders" not in tr.wrapped:
            return None
        updates = tr.calls["wmmse.update_precoders"]
        return tr.calls[func] / updates if updates else 0.0
    if name in ("wmmse.power_iteration.steps", "wmmse.power_iteration.cap_hits"):
        return tr.counters[name]
    if name == "wmmse.power_iteration.cap_hit_frac":
        if "wmmse.power_iteration.cap_hits" in tr.broken:
            return None
        calls = tr.calls[func]
        return tr.counters["wmmse.power_iteration.cap_hits"] / calls if calls else 0.0
    return {"calls": tr.calls, "self_s": tr.self_s,
            "failed": tr.failed}[stat][func]


def traced_run(wl, r, args, spec):
    """Untraced and traced passes, alternating, over one fixed op list; the
    overhead compares the faster pass of each kind."""
    from tracer import OP_SPAN, Tracer

    tally = Tally()
    tracers, untraced, traced = [], [], []
    for _ in range(2):
        t0 = time.perf_counter()
        for item in wl.trace_items:
            tally.add(wl.run(item))
        untraced.append(time.perf_counter() - t0)
        tr = Tracer()
        tr.install(r.package)
        t0 = time.perf_counter()
        try:
            for item in wl.trace_items:
                sid = tr.begin(OP_SPAN)
                try:
                    tally.add(wl.run(item))
                finally:
                    tr.end(sid)
        finally:
            traced.append(time.perf_counter() - t0)
            tr.uninstall()
        tracers.append(tr)
    first, second = tracers
    overhead = min(traced) / min(untraced) - 1.0

    metrics, absent = {}, []
    for m in spec["per_layer"]:
        value = (overhead if m["name"] == "trace.overhead_frac"
                 else layer_value(m["name"], first))
        if value is None:
            absent.append(m["name"])
        else:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    errors = []
    for name in REPEAT_COUNTS:
        a, b = layer_value(name, first), layer_value(name, second)
        if a != b:
            errors.append(f"trace: {name} = {a} then {b} on the same ops")
    calls = layer_value("wmmse.power_iteration.calls", first)
    outer = layer_value("wmmse.outer_iters", first)
    if wl.name == "scan_default" and calls != outer:
        errors.append(f"trace: power_iteration.calls {calls} != outer_iters {outer}")
    if wl.name in COVERAGE_CHECKED and not first.coverage() >= COVERAGE_MIN:
        errors.append(f"trace: coverage {first.coverage():.4f} < {COVERAGE_MIN}")

    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"spans-{wl.name}-seed{args.seed}.tsv"
    n_spans = first.write_spans(span_path)
    lines = [f"traced: {len(wl.trace_items)} items, untraced passes "
             f"{untraced[0]:.3f} s / {untraced[1]:.3f} s, traced passes "
             f"{traced[0]:.3f} s / {traced[1]:.3f} s; "
             f"{n_spans} spans -> {span_path.relative_to(ROOT)}"]
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:<14.6g} {m['unit']}")
    if absent:
        lines.append(f"  absent (no such function or counter): {', '.join(absent)}")
    return tally, metrics, lines, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan_default", "campaign_sweep", "two_ue_closed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if args.setup_probe:
        build_workload(args.workload, args.seed)
        print(time.perf_counter() - T0)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    require_sources()
    if not args.trace:
        setup = setup_seconds(args.workload, args.seed)
    r, wl = build_workload(args.workload, args.seed)

    errors = [op.detail for op in wl.warmup() if op.state == "bad"]
    if args.trace:
        tally, metrics, lines, trace_errors = traced_run(wl, r, args, spec)
        errors += trace_errors
    else:
        setup += setup_seconds(args.workload, args.seed)
        tally = Tally()
        wall, passes = timed_passes(wl, tally, args.seconds)
        setup += setup_seconds(args.workload, args.seed)
        metrics, lines = end_to_end(setup, tally, wall, passes, spec)
    errors += tally.bad + wl.finish()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(environment(args, r), sort_keys=True))
    for line in lines:
        print(line)
    print(f"program-reported failed rows: {tally.failed_rows}; gate or raise "
          f"failures: {len(errors)}")
    for err in errors[:20]:
        print(f"  FAIL {err}")
    print(json.dumps({"correct": not errors, "attempted": tally.attempted,
                      "failed": len(tally.bad), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
