"""Layered benchmark for the demorgan library and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload catalog_survey --seed 1 \\
        --seconds 35 --trace 0

Workloads: catalog_survey, frontier, cli_report (see BENCHMARK.json and
perfbench/README.md).  One process, closed loop, one library call at a
time.  The run repeats whole passes over the workload's inputs for up to
--seconds (at least one pass) and checks every verdict; a wrong verdict
ends the run with exit code 1.  Human-readable lines go first; the last
line of standard output is the JSON result.  --trace 1 adds one untraced
pass (for the tracing overhead), then records spans and prints the
per-layer metrics; the spans are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer
from speed import BARE_REFERENCE_S, REFERENCE_S, Speedometer, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
OUTDIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5   # fresh processes timed for setup_s
COLD_SAMPLES = 7    # fresh `python -m demorgan.cli report` processes
IMPORT_SAMPLES = 5  # fresh processes for cli.import_ms (traced run)
CHILD_TIMEOUT = 60
COLD_DOC = Path("tests") / "data" / "cspan.json"

# Per-layer metrics: self time per pass ("_s"), median inclusive time per
# call ("_ms"), or counts per pass.
LAYER_SELF_TIMES = (
    "catalog.enumerate_categories",
    "catalog.enumerate_frames",
    "frames.enumerate_nuclei",
    "frames.demorganize_frame",
    "fincat.right_ore",
    "topology.enumerate_topologies",
    "topology.is_demorgan_general",
    "topology.is_boolean_general",
    "topology.is_demorgan_reduced",
    "topology.is_boolean_reduced",
    "topology.reduced_site",
    "topology.demorgan_topology",
    "topology.dense_topology",
    "topology.demorganize_site",
    "topology.booleanize_site",
    "topology.generate_topology",
    "sieves.enumerate_sieves",
    "subobjects.oracle_is_demorgan",
    "subobjects.oracle_is_boolean",
    "subobjects.closed_sieve_algebra",
    "heyting.is_de_morgan_algebra",
    "heyting.is_boolean_algebra",
)
LAYER_CALL_TIMES = ("fincat.validate_category", "cli.parse_site")
LAYER_COUNTS = {
    "catalog.categories": "categories",
    "topology.sites": "sites",
    "sieves.sieves": "sieves",
    "subobjects.carrier_elements": "carrier_elements",
}
ORACLE_ROUTES = ("subobjects.oracle_is_demorgan", "subobjects.oracle_is_boolean")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["catalog_survey", "frontier", "cli_report"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)  # used for the setup_s samples
    return ap.parse_args(argv)


# -- statistics -------------------------------------------------------------------

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple:
    """(value, percentile) at the highest percentile that still has at
    least ten samples beyond it: the 11th largest sample."""
    n = len(values)
    if n <= 10:
        return max(values), 100.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


# -- fresh-process timings -----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def time_setup_child(args) -> float:
    """Spawn-to-ready time of a process that only imports and sets up."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    t0 = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=CHILD_TIMEOUT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup child failed (exit {rc}, said {line!r})")
    return elapsed


def run_process(argv) -> None:
    done = subprocess.run(argv, cwd=ROOT, env=child_env(),
                          timeout=CHILD_TIMEOUT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
    if done.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {done.returncode}: "
                           f"{done.stderr.decode(errors='replace').strip()}")


def time_processes(argv, n: int) -> tuple:
    """Median raw seconds of ``n`` fresh processes run one at a time,
    the same in reference seconds, and the median bare interpreter start
    (the probe run between them)."""
    meter = Speedometer(lambda: run_process([sys.executable, "-c", "pass"]),
                        BARE_REFERENCE_S)
    spans = []
    for _ in range(n):
        meter.probe()
        t0 = perf_counter()
        run_process(argv)
        spans.append((t0, perf_counter()))
    meter.probe()
    return (median([b - a for a, b in spans]),
            median([meter.ref_seconds(a, b) for a, b in spans]),
            median(meter.samples))


def cold_cli() -> tuple:
    raw, ref, _ = time_processes(
        [sys.executable, "-m", "demorgan.cli", "report", str(COLD_DOC)],
        COLD_SAMPLES)
    return raw, ref


def import_cost() -> tuple:
    """Fresh-process import of demorgan.cli minus a bare interpreter, raw
    and in reference seconds (where a bare start is the reference)."""
    raw, ref, bare = time_processes(
        [sys.executable, "-c", "import demorgan.cli"], IMPORT_SAMPLES)
    return raw - bare, ref - BARE_REFERENCE_S


# -- machine info -------------------------------------------------------------------

def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=10,
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "demorgan").glob("*.py")):
        digest.update(path.read_bytes())
    pinned = sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else "n/a"
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": pinned,
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:12],
    }


# -- measurement ----------------------------------------------------------------------

@dataclass
class Pass:
    """One whole pass, raw and in reference seconds (probes left out)."""

    raw_s: float
    ref_s: float
    items_raw: list
    items_ref: list
    bound_ref: list  # frontier sites with 16 arrows into one object
    tally: object


def finish_pass(meter, t0: float, t1: float, tally) -> Pass:
    refs = [meter.ref_seconds(a, b) for a, b, _ in tally.items]
    return Pass(
        raw_s=meter.raw_seconds(t0, t1),
        ref_s=meter.ref_seconds(t0, t1),
        items_raw=[meter.raw_seconds(a, b) for a, b, _ in tally.items],
        items_ref=refs,
        bound_ref=[r for r, (_, _, at) in zip(refs, tally.items) if at],
        tally=tally,
    )


def measure(run_pass, inputs, tracer, seconds: float) -> list:
    """Whole passes until the next one would overrun ``seconds``
    (estimated by the last pass); at least one."""
    from workloads import Tally
    meter = Speedometer()
    passes = []
    start = perf_counter()
    while True:
        tally = Tally(meter)
        meter.probe()
        t0 = perf_counter()
        run_pass(inputs, tracer, tally)
        t1 = perf_counter()
        meter.probe()
        passes.append(finish_pass(meter, t0, t1, tally))
        if perf_counter() - start + (t1 - t0) > seconds:
            return passes


def shares(passes) -> tuple:
    decisions = sum(p.tally.decisions for p in passes)
    return sum(p.tally.refused for p in passes), decisions


def end_to_end(passes, setup_samples, cold) -> dict:
    """name -> (value, unit, raw value or None, how it was taken)."""
    items_raw = [x for p in passes for x in p.items_raw]
    items_ref = [x for p in passes for x in p.items_ref]
    tail_ref, pct = tail(items_ref)
    refused, decisions = shares(passes)
    n = len(items_ref)
    return {
        "setup_s": (median(setup_samples), "s", None,
                    f"median of {len(setup_samples)} fresh-process set-ups"),
        "pass_s": (median([p.ref_s for p in passes]), "ref_s",
                   median([p.raw_s for p in passes]),
                   f"median of {len(passes)} whole passes"),
        "item_ms_p50": (1000 * median(items_ref), "ref_ms",
                        1000 * median(items_raw), f"p50 of {n} samples"),
        "item_ms_tail": (1000 * tail_ref, "ref_ms", 1000 * tail(items_raw)[0],
                         f"p{pct:.3f} of {n} samples, 10 beyond"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
            None, "ru_maxrss of this process"),
        "decided_share": (1 - refused / decisions, "share", None,
                          f"1 - {refused} refused / {decisions} attempted"),
        "cli_cold_ms_p50": (1000 * cold[1], "ref_ms", 1000 * cold[0],
                            f"p50 of {COLD_SAMPLES} fresh `python -m "
                            f"demorgan.cli report {COLD_DOC.as_posix()}`"),
    }


def per_layer(tracer, passes, untraced: Pass) -> dict:
    n = len(passes)
    f = sum(p.ref_s for p in passes) / sum(p.raw_s for p in passes)
    selfs = tracer.self_times()
    out = {}
    for name in LAYER_SELF_TIMES:
        raw = selfs.get(name, 0.0) / n
        out[f"{name}_s"] = (raw * f, "ref_s", raw, "self time per pass")
    for name in LAYER_CALL_TIMES:
        calls = tracer.durations(name)
        raw = 1000 * median(calls)
        out[f"{name}_ms"] = (raw * f, "ref_ms", raw,
                             f"p50 of {len(calls)} calls")
    for metric, attr in LAYER_COUNTS.items():
        out[metric] = (sum(getattr(p.tally, attr) for p in passes) / n,
                       "count", None, "per pass")
    out["subobjects.refused"] = (
        sum(tracer.refusals(name) for name in ORACLE_ROUTES) / n,
        "count", None, "oracle route decisions refused per pass")
    refused, decisions = shares(passes)
    out["refused_share"] = (refused / decisions, "share", None,
                            f"{refused} refused / {decisions} attempted")
    traced = sum(p.ref_s for p in passes) / n - tracer.extra_seconds() * f / n
    out["trace.overhead_pct"] = (
        100 * (traced / untraced.ref_s - 1), "%", None,
        f"traced pass without extra calls {traced:.3f} ref_s vs untraced "
        f"{untraced.ref_s:.3f} ref_s")
    raw, ref = import_cost()
    out["cli.import_ms"] = (1000 * ref, "ref_ms", 1000 * raw,
                            f"p50 of {IMPORT_SAMPLES} fresh imports minus "
                            f"a bare interpreter start")
    return out


def report_lines(args, info, passes, metrics, extra) -> list:
    import workloads
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        "machine: " + " ".join(f"{k}={v!r}" for k, v in info.items()),
        "loop: closed, one process, one call at a time; "
        f"{len(passes)} pass(es); item = one "
        f"{workloads.ITEM_KIND[args.workload]}",
        "route order: " + ", ".join(n for n, _, _ in workloads.ROUTE_ORDER),
        f"speed: ref_s/ref_ms count each stretch between probes at "
        f"{REFERENCE_S * 1000:g} ms / mean probe time (process timings: "
        f"{BARE_REFERENCE_S * 1000:g} ms / bare interpreter start); "
        f"see perfbench/speed.py",
    ]
    lines += extra
    for name, (value, unit, raw, how) in metrics.items():
        if raw is not None:
            how += f"; raw {raw:.6g} {unit.removeprefix('ref_')}"
        lines.append(f"metric {name} = {value:.6g} {unit}  [{how}]")
    return lines


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from demorgan.errors import BoundExceeded

    setup, run_pass = workloads.WORKLOADS[args.workload]
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = setup(args.seed, ROOT, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0

        pin_to_one_cpu()
        info = machine_info()
        extra = []
        try:
            if args.trace:
                untraced = measure(run_pass, inputs, NullTracer(), 0)[0]
                tracer = Tracer(BoundExceeded)
                passes = measure(run_pass, inputs, tracer, args.seconds)
                metrics = per_layer(tracer, passes, untraced)
                OUTDIR.mkdir(exist_ok=True)
                out = OUTDIR / f"trace-{args.workload}-seed{args.seed}.csv.gz"
                tracer.write(out)
                extra.append(f"spans: {len(tracer)} written to "
                             f"{out.relative_to(ROOT)}")
            else:
                setup_samples = [time_setup_child(args)
                                 for _ in range(SETUP_SAMPLES)]
                cold = cold_cli()
                passes = measure(run_pass, inputs, NullTracer(), args.seconds)
                metrics = end_to_end(passes, setup_samples, cold)
                bound = [x for p in passes for x in p.bound_ref]
                if bound:
                    extra.append(
                        f"frontier bound_site_s_p50 = {median(bound):.6g} "
                        f"ref_s  [p50 of {len(bound)} sites with 16 arrows "
                        f"into one object]")
        except workloads.GateError as exc:
            print(f"verdict gate failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        for line in report_lines(args, info, passes, metrics, extra):
            print(line)
        print(json.dumps({
            "correct": True,
            "attempted": shares(passes)[1],
            "failed": 0,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _, _) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "demorgan" / "__init__.py").is_file():
        print(f"error: no library at {SRC}/demorgan; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
