"""weylalg benchmark: time the public API on seeded workloads and check every result.

    python3 bench/run.py --workload products --seed 1 --seconds 20 --trace 0

Workloads: products, tame, centralizer, sweep (see workloads.py), or
``all``, which runs each in its own process and prints one table.  Run from
the repository root; the library is imported from ``src/``.

An op is one user-level request.  A run repeats whole passes over the
seeded corpus for about ``--seconds``, takes its figures from every op
after the first (cold) pass, each scaled to a quiet host by a reference
loop run between ops (hostspeed.py), then checks every distinct output by
an independent path.  With ``--trace 0`` it reports the end-to-end metrics
(see BENCHMARK.json); with ``--trace 1`` it wraps the library's layers
(tracing.py) and reports the per-layer counts and self times of the cold
pass, plus the tracing overhead.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The full result, with the
environment and the per-layer table, goes to .bench_out/.  The exit code is
nonzero when any output is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import MIN_PROBES, QUIET_START_S, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7  # fresh set-up processes per run, split around the timed passes
BARE_STARTS = 4  # bare interpreter starts around each, to scale it by
CALIBRATION_SHARE = 0.15  # share of the traced time replayed to measure overhead
WARM = slice(1, None)  # every pass after the first


def load_library():
    """Import weylalg from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "weylalg" / "__init__.py").is_file():
        sys.exit(f"bench: {src / 'weylalg'} not found; run from a weylalg checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import weylalg

    if Path(weylalg.__file__).resolve().parent != (src / "weylalg").resolve():
        sys.exit(f"bench: imported weylalg from {weylalg.__file__}, not {src}")
    return weylalg


def git_sha():
    """HEAD from .git without running git; None outside a git checkout."""
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


def environment(seed, sweep_env):
    return {
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": git_sha(),
        "WEYL_SWEEP_WORKERS": sweep_env,
        "sweep_pool_threads": min(8, os.cpu_count() or 1),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------

class Measurement:
    """Op times of whole passes over a workload's items.

    The first pass meets every item for the first time after set-up; it is
    reported on its own (``cold_ops_per_s``).  The end-to-end metrics are
    taken over every op of the later, warm passes, so a run length that fits
    one more pass adds samples but does not change what they measure.
    Whole passes keep the mix of cheap and expensive items fixed.

    A reference loop runs between ops (hostspeed.py), and every op time is
    scaled to a quiet host by the slowdown the loop shows around it; the
    unscaled times are kept as well.  An op time is wall time, or the
    process's CPU time for a workload with ``cpu_clock`` set.
    """

    def __init__(self, workload):
        self.workload = workload
        self.host = HostSpeed()
        self.raw = [[] for _ in workload.items]  # (start, seconds) of each item's ops, pass by pass
        self.pass_s = []
        self.bad_ops = []  # (pass, item index, reason) for raised or irreproducible ops
        self.outputs = [None] * len(workload.items)

    def run(self, seconds, after_pass=None):
        """Time at least two passes, for about ``seconds``; call ``after_pass()`` after each."""
        items, op, host = self.workload.items, self.workload.run, self.host
        clock = time.process_time if self.workload.cpu_clock else time.perf_counter
        host.probes(MIN_PROBES)
        begin = time.perf_counter()
        while True:
            first = not self.pass_s
            pass_begin = time.perf_counter()
            for index, item in enumerate(items):
                host.maybe_probe()
                t0, c0 = time.perf_counter(), clock()
                try:
                    out = op(item)
                except Exception as exc:  # counted as a failed op, run goes on
                    out, error = None, exc
                else:
                    error = None
                self.raw[index].append((t0, clock() - c0))
                if error is not None:
                    self.bad_ops.append((self.passes, index, f"raised {error!r}"))
                elif first:
                    self.outputs[index] = out
                elif out != self.outputs[index]:
                    self.bad_ops.append((self.passes, index, "output differs from the first pass"))
            self.pass_s.append(time.perf_counter() - pass_begin)
            if after_pass is not None:
                after_pass()
            # stop at the pass boundary nearest to the requested time
            elapsed = time.perf_counter() - begin
            if self.passes >= 2 and elapsed + 0.5 * elapsed / self.passes >= seconds:
                host.probes(MIN_PROBES)
                return

    @property
    def passes(self):
        return len(self.pass_s)

    @property
    def ops(self):
        return self.passes * len(self.workload.items)

    def item_times(self, passes, scaled=True):
        """Each item's op times in the given passes; scaled to a quiet host unless told not to."""
        return [[self.host.scale(t0, t) if scaled else t for t0, t in runs[passes]]
                for runs in self.raw]

    def cold_ops_per_s(self, scaled=True):
        """Ops per second of the first pass, each item's first run after set-up.

        Later passes repeat the same items, so a cache that remembers whole
        inputs would speed them up by repetition alone; this figure is what
        such a cache gives on inputs it has not seen.
        """
        return len(self.raw) / sum(sum(ts) for ts in self.item_times(slice(0, 1), scaled))

    def check(self):
        """Check each distinct output once; return (failed op count, problems)."""
        bad_items = {}
        for index, (item, out) in enumerate(zip(self.workload.items, self.outputs)):
            if out is None:
                bad_items[index] = ["no output"]
                continue
            problems = self.workload.check(item, out)
            if problems:
                bad_items[index] = problems
        bad_ops = {(p, i) for p, i, _ in self.bad_ops if i not in bad_items}
        failed = len(bad_ops) + self.passes * len(bad_items)
        problems = [f"pass {p} item {i}: {reason}" for p, i, reason in self.bad_ops[:20]]
        problems += [f"item {i}: {p}" for i, ps in list(bad_items.items())[:20] for p in ps]
        return failed, problems

    def tag_shares(self):
        """Share of the warm op time, and of the items, of each tagged item group."""
        per_item = [sum(ts) for ts in self.item_times(WARM)]
        total = sum(per_item)
        shares = {}
        for tag, t in zip(self.workload.tags, per_item):
            if tag is not None:
                row = shares.setdefault(tag, {"time_share": 0.0, "sample_share": 0.0})
                row["time_share"] += t / total
                row["sample_share"] += 1 / len(per_item)
        return shares


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_metrics(item_times):
    """Throughput over every op; latency percentiles over each item's median op time.

    Taking each item's median first keeps one slow run of an item from
    moving a percentile: over five sweep runs op_ms_p90 spread 0.10 taken
    over single op times and 0.015 taken over the items' medians.
    """
    ops = sum(len(ts) for ts in item_times)
    latencies = [statistics.median(ts) for ts in item_times]
    return {
        "ops_per_s": (ops / sum(sum(ts) for ts in item_times), "1/s"),
        "op_ms_p50": (1000 * percentile(latencies, 50), "ms"),
        "op_ms_p90": (1000 * percentile(latencies, 90), "ms"),
    }


def time_until_ready(cmd):
    """Wall time from spawning ``cmd`` to its first line, which must be ``ready``."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd[1:3]} failed with exit code {proc.returncode}")
    return elapsed


def measure_setup(args, count):
    """Wall times from spawning a fresh process to its first timed op.

    Returns (raw, scaled).  Process start-up hardly slows down with the
    reference loop, but it does with a bare interpreter start, so each
    sample is scaled by the median of bare starts around it over
    ``QUIET_START_S`` (see hostspeed.py).
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    bare = [sys.executable, "-c", "print('ready')"]
    raw, scaled = [], []
    for _ in range(count):
        before = [time_until_ready(bare) for _ in range(BARE_STARTS // 2)]
        elapsed = time_until_ready(cmd)
        after = [time_until_ready(bare) for _ in range(BARE_STARTS - BARE_STARTS // 2)]
        raw.append(elapsed)
        scaled.append(elapsed * QUIET_START_S / statistics.median(before + after))
    return raw, scaled


def calibrate(workload, traced_times, seconds):
    """Replay the first items untraced and traced, alternating; return overhead."""
    from tracing import Tracer

    budget, count = CALIBRATION_SHARE * seconds, 0
    for t in traced_times:
        count += 1
        budget -= t
        if budget <= 0:
            break
    plain = traced = 0.0
    for i, item in enumerate(workload.items[:count]):
        for tracing in ((False, True) if i % 2 else (True, False)):
            tracer = Tracer() if tracing else None
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            try:
                workload.run(item)
            except Exception:  # already counted in the measured run
                pass
            finally:
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.uninstall()
            if tracing:
                traced += elapsed
            else:
                plain += elapsed
    return traced / plain - 1.0, count


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(layers, cache, items):
    """Every counter of every traced layer, plus the derived ratios, per pass."""
    metrics = {}
    for layer, row in layers.items():
        for key, value in row.items():
            metrics[f"{layer}.{key}"] = {"value": value, "unit": "s" if key.endswith("_s") else "count"}
    hits, misses = cache
    parse, sweep = layers["parser.parse"], layers["certify.sweep"]
    tame_ops = items if layers["tame.apply_auto"]["calls"] else 0
    for name, value, unit in (
        ("weyl.structure_constant.hits", hits, "count"),
        ("weyl.structure_constant.misses", misses, "count"),
        ("weyl.structure_constant.hit_ratio", _ratio(hits, hits + misses), "ratio"),
        ("parser.chars_per_s", _ratio(parse["chars"], parse["total_s"]), "1/s"),
        ("tame.in_scope_ratio", _ratio(layers["certify.certify_pair"]["calls"], tame_ops), "ratio"),
        ("certify.sweep.empty_ratio", _ratio(sweep["empty"], sweep["cells"]), "ratio"),
    ):
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def declared_metrics(trace):
    """Names BENCHMARK.json promises on the last line, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def run_one(args):
    sweep_env = os.environ.pop("WEYL_SWEEP_WORKERS", None)  # users' default pool
    wl = load_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    for item in workload.warmup:
        workload.run(item)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    # set-up samples before and after the timed passes, so that one slow
    # phase of the host does not hold all of them
    setup_raw, setup_samples = ([], []) if args.trace else measure_setup(args, SETUP_SAMPLES // 2)
    gc.collect()
    measurement = Measurement(workload)
    tracer = snapshot = None
    if args.trace:
        from tracing import Tracer

        # per-layer figures are those of the cold pass: a fixed amount of
        # work however many passes fit into the run, on inputs no cache has
        # seen, with the structure-constant cache filling as in a fresh process
        tracer, cold = Tracer(), {}
        cache0 = wl.structure_constant.cache_info()

        def snapshot():
            if not cold:
                cache1 = wl.structure_constant.cache_info()
                cold.update(layers=tracer.layers(),
                            cache=(cache1.hits - cache0.hits, cache1.misses - cache0.misses))

        tracer.install()
    try:
        measurement.run(args.seconds, after_pass=snapshot)
    finally:
        if tracer:
            tracer.uninstall()
    ops = measurement.ops
    result = {
        "workload": args.workload,
        "environment": environment(args.seed, sweep_env),
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "samples": ops - len(workload.items),
        "pass_s": measurement.pass_s,
        "measured_s": sum(measurement.pass_s),
        "passes": measurement.passes,
        "distinct_items": len(workload.items),
        "tag_shares": measurement.tag_shares(),
        "cold_ops_per_s": measurement.cold_ops_per_s(),
        "raw_cold_ops_per_s": measurement.cold_ops_per_s(scaled=False),
        "host_slowdown_median": measurement.host.median_slowdown(),
        "host_probes": len(measurement.host.ref),
    }
    if tracer:
        layers = cold["layers"]
        overhead, replayed = calibrate(workload, [ts[0] for ts in measurement.item_times(slice(0, 1), scaled=False)], args.seconds)
        metrics = layer_metrics(layers, cold["cache"], len(workload.items))
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.bin"
        result["spans"] = {"file": str(spans_path.relative_to(ROOT)), **tracer.write_spans(spans_path)}
        result["layers"] = layers
        result["overhead_replayed_ops"] = replayed
    else:
        more_raw, more = measure_setup(args, SETUP_SAMPLES - len(setup_samples))
        setup_raw, setup_samples = setup_raw + more_raw, setup_samples + more
        metrics = {
            **{name: {"value": value, "unit": unit}
               for name, (value, unit) in op_metrics(measurement.item_times(WARM)).items()},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        result["setup_samples_s"] = setup_samples
        # the same figures from unscaled op times
        raw = op_metrics(measurement.item_times(WARM, scaled=False))
        result["raw"] = {name: value for name, (value, _) in raw.items()}
        result["raw"]["setup_s"] = statistics.median(setup_raw)
        result["raw_setup_samples_s"] = setup_raw
    check_begin = time.perf_counter()
    failed, problems = measurement.check()
    result["check_s"] = time.perf_counter() - check_begin
    result["metrics"] = metrics
    result["error_rate"] = failed / ops
    result["problems"] = problems

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{ops} ops in {measurement.passes} passes of {len(workload.items)}, "
          f"{ops - len(workload.items)} warm samples; host slowdown median "
          f"{result['host_slowdown_median']:.3f} over {result['host_probes']} probes")
    print("environment " + json.dumps(result["environment"]))
    for tag, share in result["tag_shares"].items():
        print(f"  {tag}: {share['time_share']:.1%} of warm op time, {share['sample_share']:.1%} of items")
    print(f"  cold_ops_per_s (first pass, not a declared metric) {result['cold_ops_per_s']:.6g} 1/s")
    for name, value in result.get("raw", {}).items():
        print(f"  raw {name} (unscaled, not a declared metric) {value:.6g}")
    if tracer:
        print("  per pass, from the cold pass:")
        op_time = sum(ts[0] for ts in measurement.item_times(slice(0, 1), scaled=False))
        for name, row in layers.items():
            if row["calls"]:
                extras = "  ".join(f"{k}={v}" for k, v in row.items() if not k.startswith(("calls", "self", "total")))
                print(f"  {name:24s} calls={row['calls']:<9d} self_s={row['self_s']:<8.4f} "
                      f"({row['self_s'] / op_time:6.1%})  total_s={row['total_s']:<8.4f} {extras}")
        shown = [n for n in metrics if not n.startswith(tuple(layers))]
    else:
        shown = list(metrics)
    for name in shown:
        print(f"  {name:34s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"  {'error_rate':34s} {failed / ops:.6g} ({failed}/{ops})")
    for problem in problems:
        print(f"  FAIL {problem}")
    print(f"result written to {out_path.relative_to(ROOT)}")
    declared = {name: metrics[name] for name in declared_metrics(args.trace)}
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed, "metrics": declared}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Run each workload in its own process (peak RSS is per process) and tabulate."""
    from workloads import WORKLOADS

    rows, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        rows[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if not args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        columns = [(m["name"], m["unit"]) for m in spec] + [("error_rate", "ratio")]
        print(f"{'workload':12s}" + "".join(f"{name:>14s}" for name, _ in columns))
        print(f"{'':12s}" + "".join(f"{unit:>14s}" for _, unit in columns))
        for name, row in rows.items():
            if row is None:
                print(f"{name:12s} no result")
                continue
            values = [row["metrics"][m]["value"] for m, _ in columns[:-1]]
            values.append(row["failed"] / row["attempted"])
            print(f"{name:12s}" + "".join(f"{v:>14.4g}" for v in values))
    print(json.dumps(rows))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["products", "tame", "centralizer", "sweep", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="minimal corpora (smoke test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        load_library()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
