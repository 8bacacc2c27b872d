"""symprice benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bfs|exhaustive --seed N --seconds T --trace 0|1

The workload's fixed command list (see workloads.py) is run again and
again, one command at a time, for about T seconds: a pass starts only
when the passes so far say it will end in time.  Each command goes
through ``symprice.cli.main`` in this process, as a user would type it.
Every output is checked against oracle.py and digested.  The first pass
is checked but not timed; it warms the program up.

The second-to-last line of standard output is the full report
(provenance, per-command digests and checks, latency sample counts,
spans); the last line is {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, measured with the
program's default worker count, and set-up is timed in fresh processes
spread over the run.  With --trace 1 the run pins SYMPRICE_THREADS=1,
spends half of T untraced and half traced, and reports the per-layer
metrics and the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench-tmp"
SETUP_PROBES = 11
CAL_LOOPS = 100_000  # turns of the host-speed loop, about 10 ms
CAL_GAP_S = 0.2  # at most one host-speed sample per this much time
CAL_WINDOW = 8  # host-speed samples around a timing whose median scales it
REFERENCE_CAL_S = 0.011  # median loop time over 15 runs on a 2-core Xeon VM
EXPECTED_EXIT = 0  # every command of every workload succeeds
# Tail percentile per workload, fixed so that it does not jump between
# runs whose pass counts differ by one.  A 55 s run on 2 cores times 4
# to 7 passes of 84 commands on bfs and 4 to 6 passes of 6 commands on
# exhaustive, after the warm-up pass.  On bfs, p97 leaves at least ten
# commands beyond it from 4 timed passes on.  Exhaustive makes too few
# commands for that: there p92 falls among the samples of its slowest
# command, enumerate_tournaments(7), with one or two beyond it.  Lower percentiles fall on
# single samples of the mid-length commands and spread three times as
# much between runs.
TAIL_PERCENTILE = {"bfs": 97, "exhaustive": 92}
END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "graphs_per_s": "1/s", "op_s.p50": "s",
    "op_s.tail": "s", "peak_rss_mb": "MB", "setup_s": "s",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("bfs", "exhaustive"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import symprice from this checkout's src/, and nowhere else."""
    if not (SRC / "symprice" / "__init__.py").is_file():
        sys.exit(f"error: no symprice sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import symprice.cli

    if Path(symprice.__file__).resolve().parent != SRC / "symprice":
        sys.exit(f"error: imported symprice from {symprice.__file__}, not {SRC}")
    return symprice.cli


# -- running commands --------------------------------------------------


def execute(cli, cmd):
    """Run one command; returns (latency, exit code, outputs)."""
    stdout, stderr = StringIO(), StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            if cmd.call is not None:
                code, text = cmd.call()
                stdout.write(text)
            else:
                code = cli.main(cmd.argv)
    except Exception:  # a crash is a failed command, not a failed benchmark
        code = "raised"
        stderr.write(traceback.format_exc())
    latency = time.perf_counter() - t0
    out = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    for key, path in cmd.files.items():
        out[key] = path.read_text() if path.exists() else None
        path.unlink(missing_ok=True)
    return latency, code, out


def digest(code, out: dict) -> str:
    """Digest of a command's exit code and outputs, without elapsed times."""
    canon = dict(out)
    if canon.get("report"):
        report = json.loads(canon["report"])
        report.pop("elapsed", None)
        canon["report"] = json.dumps(report, sort_keys=True)
    blob = json.dumps({"exit": code, **canon}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def cpu_now() -> float:
    """User plus system time of this process and its reaped children."""
    own, kids = (resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class HostSpeed:
    """The host's current speed, from a fixed pure-Python loop timed
    between commands.

    The host shares its cores with other machines.  Over a minute its
    speed can move by a factor of 1.5 or more, and every timing moves
    with it.  Each timing is therefore also given scaled to
    REFERENCE_CAL_S, the loop's time at the host's typical speed:
    scaled = raw * REFERENCE_CAL_S / (loop time around it), the loop
    time being the median of the CAL_WINDOW samples nearest the timing.
    The end-to-end metrics are the scaled timings; the raw ones are in
    the report.  The loop runs while the program is idle, so the program
    cannot slow it down or speed it up."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> int:
        """Time the loop once; returns the index of the sample."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i % 7
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.last >= CAL_GAP_S

    def scale(self, before: int) -> float:
        """Factor for a timing taken between sample `before` and the next,
        once the run has ended."""
        lo = min(max(0, before + 1 - CAL_WINDOW // 2), len(self.samples) - CAL_WINDOW)
        return REFERENCE_CAL_S / statistics.median(self.samples[max(0, lo):lo + CAL_WINDOW])


def run_passes(cli, cmds, seconds: float, probe=None) -> tuple[list[dict], list[dict], HostSpeed]:
    """Whole passes over the command list for about `seconds`: at least
    two, and another only while the mean time per pass says it ends in
    time.  Only the first pass keeps its outputs, so that the benchmark's
    own memory does not grow with the pass count; later passes keep
    digests.  With `probe`, SETUP_PROBES set-up times are taken between
    passes, spread over the run, and returned with the passes.  Every
    command and probe lies between two host-speed samples."""
    passes, setup = [], []
    speed = HostSpeed()
    start = time.perf_counter()
    cal = speed.sample()
    while True:
        t0 = time.perf_counter()
        records = []
        for cmd in cmds:
            if speed.due():
                cal = speed.sample()
            cpu0 = cpu_now()
            lat, code, out = execute(cli, cmd)
            records.append((lat, cpu_now() - cpu0, code, out, cal))
        t1 = time.perf_counter()
        cal = speed.sample()
        passes.append({"t0": t0, "t1": t1,
                       "latency": [r[0] for r in records], "cpu_each": [r[1] for r in records],
                       "cal": [r[4] for r in records],
                       "digest": [digest(r[2], r[3]) for r in records],
                       "outputs": None if len(passes) else [(r[2], r[3]) for r in records]})
        while probe and len(setup) < min(SETUP_PROBES, SETUP_PROBES * (time.perf_counter() - start) / seconds):
            setup.append(probe(speed))
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    while probe and len(setup) < SETUP_PROBES:
        setup.append(probe(speed))
    for p in passes:
        scale = [speed.scale(before) for before in p.pop("cal")]
        cpu = p.pop("cpu_each")
        p.update(wall=sum(p["latency"]), cpu=sum(cpu),
                 latency_scaled=[x * f for x, f in zip(p["latency"], scale)],
                 cpu_scaled=sum(x * f for x, f in zip(cpu, scale)))
        p["wall_scaled"] = sum(p["latency_scaled"])
    for x in setup:
        x["wall_scaled"] = x["wall"] * speed.scale(x.pop("cal"))
    return passes, setup, speed


# -- checking ----------------------------------------------------------


def check(cmds, passes) -> tuple[list[dict], int, int, int]:
    """Check the first pass against the oracle and every later pass
    against the first by digest.  Returns per-command results, the
    attempted and failed counts, and the graphs priced in one pass."""
    results, attempted, failed, graphs = [], 0, 0, 0
    for i, cmd in enumerate(cmds):
        code, out = passes[0]["outputs"][i]
        problems = []
        if code != EXPECTED_EXIT:
            problems = [f"exit {code}, expected {EXPECTED_EXIT}: {out['stderr'][-500:]}"]
        else:
            try:
                problems = cmd.check(out)
            except Exception:
                problems = ["check raised: " + traceback.format_exc(limit=3)]
        if not problems:
            graphs += cmd.graphs(out)
        first = passes[0]["digest"][i]
        mismatched = sum(p["digest"][i] != first for p in passes[1:])
        attempted += len(passes)
        # A wrong first output is wrong in every pass that repeats it.
        failed += len(passes) if problems else mismatched
        if mismatched:
            problems.append(f"output differs from the first pass in {mismatched} later pass(es)")
        latency = statistics.median(p["latency"][i] for p in passes)
        results.append({"argv": cmd.argv, "exit": code, "digest": first, "problems": problems,
                        "latency_s": latency})
    return results, attempted, failed, graphs


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


# -- set-up ------------------------------------------------------------


def setup_probe(workload: str, seed: int, tmp: Path, speed: HostSpeed) -> dict:
    """Time one fresh process from start to ready: interpreter start,
    imports and writing the workload's input files."""
    probe_dir = tmp / f"probe{len(speed.samples)}"
    probe_dir.mkdir()
    before = speed.sample()
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
         workload, str(seed), str(probe_dir)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    shutil.rmtree(probe_dir)
    speed.sample()
    return {"wall": elapsed, "cal": before}


def provenance(argv, seed: int) -> dict:
    from symprice import search

    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "argv": argv,
        "workload_seed": seed,
        "workers": search.worker_count(),
        "SYMPRICE_THREADS": os.environ.get("SYMPRICE_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# -- main --------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    import tracing
    import workloads

    if args.trace:
        os.environ["SYMPRICE_THREADS"] = "1"  # every traced call stays in this process
    else:
        os.environ.pop("SYMPRICE_THREADS", None)  # the default: all cores

    # A terminated run still removes its inputs and waits for its workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("error: terminated"))
    tmp = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        cmds = workloads.WORKLOADS[args.workload](args.seed, tmp)
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "provenance": provenance(sys.argv, args.seed)}
        if args.trace:
            plain, _, _ = run_passes(cli, cmds, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            traced, _, _ = run_passes(cli, cmds, args.seconds / 2)
            passes = plain + traced
        else:
            passes, setup, speed = run_passes(cli, cmds, args.seconds,
                                              partial(setup_probe, args.workload, args.seed, tmp))
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        results, attempted, failed, graphs = check(cmds, passes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    report["commands"] = results
    report["digest"] = hashlib.sha256("".join(r["digest"] for r in results).encode()).hexdigest()
    report["fail_frac"] = failed / attempted
    report["passes"] = len(passes)
    report["pass_wall_s"] = [p["wall"] for p in passes]
    report["pass_wall_s_scaled"] = [p["wall_scaled"] for p in passes]
    correct = failed == 0

    if args.trace:
        n_traced = len(traced)
        metrics = tracer.metrics(n_traced)
        metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                       - statistics.median(p["wall"] for p in plain[1:]))
        missing = tracer.layer_check(args.workload)
        correct = correct and not missing
        report["layer_check"] = {"missing": missing, "ok": not missing}
        report["bindings"] = tracer.bindings
        report["spans_first_traced_pass"] = [s for s in tracer.spans if s["start"] < traced[0]["t1"]]
        report["span_count"] = len(tracer.spans)
        units = dict(tracing.per_layer_metrics())
    else:
        timed = passes[1:]  # the first pass is the warm-up
        pct = TAIL_PERCENTILE[args.workload]

        def timings(kind: str) -> dict[str, float]:
            lat = sorted(x for p in timed for x in p["latency" + kind])
            return {
                "wall_s": statistics.median(p["wall" + kind] for p in timed),
                "cpu_s": statistics.median(p["cpu" + kind] for p in timed),
                "graphs_per_s": statistics.median(graphs / p["wall" + kind] for p in timed),
                "op_s.p50": statistics.median(lat),
                "op_s.tail": percentile(lat, pct),
                "setup_s": statistics.median(x["wall" + kind] for x in setup),
            }

        metrics = {**timings("_scaled"), "peak_rss_mb": peak_kb / 1024}
        report["raw"] = timings("")
        report["host_speed"] = {"samples": len(speed.samples), "loop_s.median": statistics.median(speed.samples),
                                "reference_s": REFERENCE_CAL_S}
        report["setup_s_samples"] = setup
        lat = [x for p in timed for x in p["latency_scaled"]]
        report["latency"] = {"samples": len(lat), "tail_percentile": pct,
                             "beyond_tail": sum(x > metrics["op_s.tail"] for x in lat)}
        report["graphs_per_pass"] = graphs
        units = END_TO_END

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
