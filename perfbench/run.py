#!/usr/bin/env python3
"""twobridge benchmark: oracle sweeps, and closed forms with class streams.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ../src relative to this
file, and nothing is installed.  Every workload step runs in a fresh
process started by spawner.py, its output is checked exactly, and its
CPU time and peak memory come from os.wait4.

--trace 0 times the workload until --seconds is spent (at least
MIN_REPS repetitions) and reports medians of the end-to-end metrics.
--trace 1 runs the workload untraced and traced, TRACE_PAIRS times
each, then the per-layer probes of layers.py, and reports the per-layer
metrics and the tracing overhead.  Spans are written to .perfbench-out/.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Lines before it give each metric by name, unit and sample
count.  Without the program's sources the benchmark exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import reference
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PY = sys.executable

ORACLE_MAX_C = 20
FORMULAS_MAX_C = 3000
STREAM_C = 20
BATCH_SIZE = 3000
SETUP_PER_REP = 3
MIN_REPS = 3
TRACE_PAIRS = 3
RUN_LIMIT_S = 170  # every process is killed by then, so a run ends within 180 s


def _oracle(threads: int) -> tuple:
    return ("cli", ["--threads", str(threads), "verify",
                    "--max-c", str(ORACLE_MAX_C), "--max-n", "64"])


# Steps of one repetition: ("cli", args) runs `twobridge args`, ("batch",
# None) runs the seeded fraction batch.  Only the batch reads the seed.
# Two workloads, so that each run can last 50 s within the time allowed
# for all runs: the shared host has slow spells of tens of seconds to
# minutes, and a longer run averages over more of them.
WORKLOADS = {
    "oracle": [_oracle(1), _oracle(2)],
    "outputs": [
        ("cli", ["--format", "table", "formulas", "--max-c", str(FORMULAS_MAX_C)]),
        ("cli", ["--format", "json", "formulas", "--max-c", str(FORMULAS_MAX_C)]),
        ("cli", ["verify", "--identities", "--max-n", "64"]),
        ("cli", ["enumerate", "--crossings", str(STREAM_C)]),
        ("cli", ["enumerate", "--crossings", str(STREAM_C), "--mode", "C"]),
        ("batch", None),
    ],
}

# This step starts worker processes and runs on every CPU.  Every other
# step is one process, pinned to one CPU, the next CPU for each step:
# the two vCPUs of a shared host slow down at different times, and a
# process left to the scheduler tends to stay on one of them, so its
# run-to-run spread was about three times as wide.
MULTI_CPU = _oracle(2)

# Work done by one repetition, from binomials and closed forms alone:
# sequences visited (each sweep tallies every c in both modes), or
# records emitted (formula rows in both formats, canonical classes
# streamed in both modes, and fraction lines).
_ORACLE_SEQUENCES = 2 * sum(reference.sequences(c) for c in range(3, ORACLE_MAX_C + 1))
_ROWS = 2 * (FORMULAS_MAX_C - 2)
_CLASSES = reference.classes(STREAM_C, "D") + reference.classes(STREAM_C, "C")
WORK = {
    "oracle": ("seq_per_s", 2 * _ORACLE_SEQUENCES),
    "outputs": ("records_per_s", _ROWS + _CLASSES + BATCH_SIZE),
}

# Rates of parts of a workload, printed by name but not in the JSON
# result: (name, indices of its steps, work those steps do).
PART_RATES = {
    "oracle": [],
    "outputs": [
        ("rows_per_s", (0, 1), _ROWS),
        ("classes_per_s", (3, 4), _CLASSES),
    ],
}


@dataclass
class Proc:
    start: float
    wall: float
    cpu: float
    rss_mb: float
    status: int
    sha256: str
    nbytes: int
    stderr: str
    stdout: bytes | None = None


@dataclass
class Rep(reference.Checks):
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    step_walls: list = field(default_factory=list)


class Runner:
    """Starts steps through spawner.py and checks their output; use as a context manager."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        OUT.mkdir(exist_ok=True)
        env = {k: v for k, v in os.environ.items() if k != "TWOBRIDGE_THREADS"}
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = "0"
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.cpus = sorted(os.sched_getaffinity(0))
        self.pinned_steps = 0
        self.spawner = subprocess.Popen(
            [PY, "-S", str(HERE / "spawner.py"), str(OUT)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.wait()

    def spawn(self, cmd: list, keep_stdout: bool = False, pinned: bool = True) -> Proc:
        """Run cmd to completion in a fresh process; see spawner.py."""
        keep = OUT / "step-stdout.bin" if keep_stdout else None
        cpu = None
        if pinned:
            cpu = self.cpus[self.pinned_steps % len(self.cpus)]
            self.pinned_steps += 1
        request = {"cmd": cmd, "keep": keep and str(keep),
                   "limit": max(0.0, self.deadline - time.monotonic()), "cpu": cpu}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        proc = Proc(**json.loads(self.spawner.stdout.readline()))
        if keep:
            proc.stdout = keep.read_bytes()
        return proc

    def rep(self, workload: str, seed: int, spans: str | None = None) -> Rep:
        """One repetition of the workload, each step a fresh process, checked exactly."""
        rep = Rep()
        for i, (kind, args) in enumerate(WORKLOADS[workload]):
            trace = [] if spans is None else [
                "--spans", f"{spans}.{i}.jsonl.gz", "--run", f"{workload}-{seed}-{i}"]
            if kind == "cli":
                label = "twobridge " + " ".join(args)
                cmd = ([PY, "-m", "twobridge.cli", *args] if spans is None
                       else [PY, str(HERE / "child.py"), "cli", *trace, "--", *args])
            else:
                label = f"batch seed={seed} count={BATCH_SIZE}"
                cmd = [PY, str(HERE / "child.py"), "batch", "--seed", str(seed),
                       "--count", str(BATCH_SIZE), *trace]
            proc = self.spawn(cmd, keep_stdout=kind == "batch",
                              pinned=(kind, args) != MULTI_CPU)
            rep.wall += proc.wall
            rep.step_walls.append(proc.wall)
            rep.cpu += proc.cpu
            rep.rss_mb = max(rep.rss_mb, proc.rss_mb)
            rep.expect(f"{label}: exit status {proc.status}: {proc.stderr.strip()[-300:]}",
                       proc.status == 0)
            if kind == "cli":
                want = self.expected.get(" ".join(args), {}).get("sha256")
                rep.expect(f"{label}: stdout digest {proc.sha256} != {want}",
                           proc.sha256 == want)
            else:
                lines = proc.stdout.decode().splitlines()
                rep.expect(f"{label}: {len(lines)} lines", len(lines) == BATCH_SIZE)
                for x, line in zip(reference.fraction_batch(seed, BATCH_SIZE), lines):
                    rep.expect(f"{label}: {x}", reference.batch_line_ok(x, line))
        return rep

    def setup_samples(self, k: int) -> list:
        """(setup_s, import_s) pairs: interpreter start to `import twobridge.cli` done.

        The probes are not pinned, so that they leave the CPU order of
        the workload's pinned steps as it is.
        """
        probe = ("import time; t0 = time.monotonic(); import twobridge.cli; "
                 "print(t0, time.monotonic())")
        out = []
        for _ in range(k):
            proc = self.spawn([PY, "-c", probe], keep_stdout=True, pinned=False)
            if proc.status != 0:
                raise SystemExit(f"cannot import twobridge.cli:\n{proc.stderr}")
            t0, t1 = map(float, proc.stdout.split())
            out.append((t1 - proc.start, t1 - t0))
        return out


def _spread(values) -> str:
    if len(values) < 2:
        return "1 sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g}"


def run_untraced(runner: Runner, workload: str, seed: int, seconds: int):
    """Median end-to-end metrics over repetitions filling about ``seconds``.

    SETUP_PER_REP set-up samples precede each repetition, so that they
    span the run as the repetitions do: the host's speed drifts over
    tens of seconds, and samples taken all at once share its state.
    """
    runner.setup_samples(1)  # fills the bytecode cache, which users do not pay for on every run
    setup, reps = [], []
    t_start = time.monotonic()
    while True:
        setup += [s for s, _ in runner.setup_samples(SETUP_PER_REP)]
        reps.append(runner.rep(workload, seed))
        elapsed = time.monotonic() - t_start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    alias, work = WORK[workload]
    samples = {
        "setup_s": setup,
        "wall_s": [r.wall for r in reps],
        "work_per_s": [work / r.wall for r in reps],
        "cpu_s": [r.cpu for r in reps],
        "peak_rss_mb": [r.rss_mb for r in reps],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    notes = {k: _spread(v) for k, v in samples.items()}
    notes["setup_s"] += "; fresh interpreters"
    notes["work_per_s"] = f"= {alias}, {work} per repetition; " + notes["work_per_s"]
    notes["cpu_s"] += "; user+sys of every process, reaped pool workers included"
    notes["peak_rss_mb"] += "; largest single process, pool workers included"
    attempted = sum(r.attempted for r in reps)
    failures = [f for r in reps for f in r.failures]
    extra = []
    for name, steps, part_work in PART_RATES[workload]:
        rates = [part_work / sum(r.step_walls[i] for i in steps) for r in reps]
        extra.append(f"{name:<28} {statistics.median(rates):>16.6f} {'1/s':<6} "
                     f"{part_work} per repetition over steps {steps}; {_spread(rates)}")
    return metrics, notes, attempted, failures, extra


def run_traced(runner: Runner, workload: str, seed: int):
    """Per-layer metrics from the probes, and the tracing overhead of the workload.

    The overhead is the median of TRACE_PAIRS traced repetitions minus the
    median of as many untraced ones, run alternately.
    """
    base = str(OUT / f"spans-{workload}")
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(runner.rep(workload, seed))
        traced.append(runner.rep(workload, seed, spans=base))
    layers_spans = str(OUT / f"spans-{workload}.layers.jsonl.gz")
    proc = runner.spawn([PY, str(HERE / "child.py"), "layers", "--seed", str(seed),
                         "--count", str(BATCH_SIZE), "--formulas-max-c", str(FORMULAS_MAX_C),
                         "--spans", layers_spans, "--run", f"{workload}-{seed}-layers"],
                        keep_stdout=True, pinned=False)
    failures = [f for r in untraced + traced for f in r.failures]
    attempted = sum(r.attempted for r in untraced + traced) + 1
    metrics = {}
    if proc.status == 0:
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        metrics.update(result["metrics"])
        attempted += result["attempted"]
        failures += [f"layers: {f}" for f in result["failures"]]
    else:
        failures.append(f"layers: exit status {proc.status}: {proc.stderr.strip()[-300:]}")
    metrics["import_s"] = statistics.median(i for _, i in runner.setup_samples(5))
    traced_wall = statistics.median(r.wall for r in traced)
    untraced_wall = statistics.median(r.wall for r in untraced)
    metrics["trace_overhead_s"] = traced_wall - untraced_wall

    by_layer = {}
    for i in range(len(WORKLOADS[workload])):
        path = Path(f"{base}.{i}.jsonl.gz")
        if not path.exists():  # the step died before writing its spans
            continue
        for layer, t in Tracer.load(path).self_times_by_layer().items():
            by_layer[layer] = by_layer.get(layer, 0.0) + t
    notes = {"trace_overhead_s": f"traced {traced_wall:.3f} s - untraced {untraced_wall:.3f} s,"
                                 f" medians of {TRACE_PAIRS} each"}
    extra = [f"self time of the last traced repetition in {layer}: {t:.6f} s"
             for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1])]
    return metrics, notes, attempted, failures, extra


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args(argv)
    if not (SRC / "twobridge" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'twobridge'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with Runner(time.monotonic() + RUN_LIMIT_S) as runner:
        if a.trace:
            metrics, notes, attempted, failures, extra = run_traced(runner, a.workload, a.seed)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics, notes, attempted, failures, extra = run_untraced(
                runner, a.workload, a.seed, a.seconds)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seeded = any(kind == "batch" for kind, _ in WORKLOADS[a.workload])
    print(f"workload {a.workload}, seed {a.seed}"
          f"{'' if seeded else ' (ignored: the workload is exhaustive)'}, trace {a.trace}; "
          f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"click {metadata.version('click')}")
    for name, unit in units.items():
        value = metrics[name]
        text = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"{name:<28} {text:>16} {unit:<6} {notes.get(name, '')}")
    print(f"{'fail_ratio':<28} {len(failures) / attempted:>16.6f} {'ratio':<6} "
          f"{len(failures)} of {attempted} checks failed")
    for line in extra:
        print(line)
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
