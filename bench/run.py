"""critickit benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload robust-scan --seed 1 --seconds 40 --trace 0

Run from the repository root, which must hold ``src/critickit``.  With
``--trace 0`` the run times whole passes over the workload with nothing
instrumented and prints the end-to-end metrics; with ``--trace 1`` it
alternates plain and traced passes and prints the per-layer metrics and the
tracing overhead.  Every answer is checked.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the run (interpreter, processors, commit, seed, pass count and
every sample behind every median and percentile) goes to ``bench/out/``,
with the spans of a traced run beside it.

All work is sequential in this process; ``cli-mix`` and the CLI tail of the
in-process workloads start one child at a time, through ``spawner.py``, and
wait for it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3  # set-ups before measuring; an untraced run adds SETUP_EACH per pass
SETUP_EACH = 3
CALIBRATION_REPS = 7  # bare-interpreter and import-only children in a traced cli-mix run
CHILD_TIMEOUT_S = 120
TAIL_CHUNK = 5  # CLI tail commands run after each pass


def load_critickit():
    """Import critickit afresh: drop any loaded copy first, so each set-up
    repetition pays for executing the package's modules again."""
    for name in [n for n in sys.modules if n == "critickit" or n.startswith("critickit.")]:
        del sys.modules[name]
    ck = importlib.import_module("critickit")
    importlib.import_module("critickit.cli")
    return ck


def set_up(workload: str, seed: int, times: list, reps: int):
    """Import critickit afresh and build the inputs ``reps`` times, adding
    each duration to ``times``; returns the last package and inputs."""
    for _ in range(reps):
        start = time.perf_counter()
        ck = load_critickit()
        inputs = build(workload, seed, ck)
        times.append(time.perf_counter() - start)
        gc.collect()  # free the replaced modules, so peak RSS does not grow with the count
    return ck, inputs


def build(workload: str, seed: int, ck):
    if workload == "robust-scan":
        return workloads.robust_scan(seed, ck)
    if workload == "lemma-suite":
        return workloads.lemma_suite(seed, ck)
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    return workloads.cli_mix(seed, work, ROOT)


class Tally:
    """Operations attempted and failed; a failure outside the recorded known
    holes makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict[str, dict] = {}

    def record(self, op_id: str, problem: str | None, known: str | None = None) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        if known is None:
            self.unexpected += 1
        entry = self.failures.setdefault(op_id, {"count": 0, "problem": problem, "known": known})
        entry["count"] += 1


# -- in-process passes --------------------------------------------------------


def run_ops(ops, tally: Tally, tracer: Tracer | None = None) -> float:
    """One pass; returns the summed time of the calls, checks excluded."""
    total = 0.0
    for op in ops:
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.span("bench", op.name):
                    result = op.run()
            problem = None
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            result, problem = None, f"{type(exc).__name__}: {exc}"
        total += time.perf_counter() - start
        tally.record(op.name, problem or op.check(result))
    return total


# -- CLI commands -------------------------------------------------------------


def parse_doc(stdout: str):
    """The JSON document, if stdout is exactly one; else None."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        return None
    try:
        doc = json.loads(lines[0])
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


class Spawner:
    """The small child process that starts every CLI command, one at a time
    (see ``spawner.py``); a context manager that stops and reaps it."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH="src"), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.maxrss_kb = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def run(self, args: list[str]) -> tuple[int | None, str, float]:
        """``python args...`` from the repository root with ``PYTHONPATH=src``;
        returns (exit status or None on timeout, stdout, seconds)."""
        self.proc.stdin.write(json.dumps([sys.executable, *args]) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.maxrss_kb = reply["maxrss_kb"]
        return reply["status"], reply["stdout"], reply["seconds"]


def run_commands(commands, tally: Tally, spawner: Spawner) -> tuple[float, list[float]]:
    """Each command as its own process, one at a time.  Returns the pass
    time and per-command latencies in ms, a failed command counting as
    infinitely slow."""
    latencies = []
    total = 0.0
    for cmd in commands:
        status, stdout, seconds = spawner.run(["-m", "critickit.cli", "--json", *cmd.argv])
        total += seconds
        problem = "timed out" if status is None else cmd.check(status, parse_doc(stdout))
        tally.record(cmd.id, problem, cmd.known)
        latencies.append(math.inf if problem else seconds * 1000)
    return total, latencies


def replay_commands(commands, tally: Tally, tracer: Tracer | None = None) -> float:
    """The same commands through ``run_command`` in this process."""
    total = 0.0
    for cmd in commands:
        start = time.perf_counter()
        try:
            if tracer is None:
                status, text = sys.modules["critickit.cli"].run_command(["--json", *cmd.argv])
            else:
                with tracer.span("bench", cmd.id):
                    status, text = sys.modules["critickit.cli"].run_command(["--json", *cmd.argv])
            problem = cmd.check(status, parse_doc(text))
        except Exception as exc:  # the child would have died with this traceback
            problem = f"{type(exc).__name__}: {exc}"
        total += time.perf_counter() - start
        tally.record(cmd.id, problem, cmd.known)
    return total


# -- statistics ---------------------------------------------------------------


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def finite(x: float) -> float:
    # a percentile that lands on a failed command has no latency to report
    return x if math.isfinite(x) else 1e12


def until(deadline: float, step) -> list:
    """Call ``step`` once, then again while another call, at the median
    duration so far, still ends before ``deadline``."""
    results, durations = [], []
    while True:
        start = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return results


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers of one traced pass.  Times are self times: a span's
    duration minus its children, which are always other layers."""

    def sel(layer, names=None, where=None):
        return [
            s for s in spans
            if s.layer == layer and (names is None or s.name in names) and (where is None or where(s))
        ]

    def ms(ss):
        return 1000.0 * sum(s.self_seconds for s in ss)

    def per_s(count, millis):
        return count / (millis / 1000.0) if millis > 0 else 0.0

    robust = "robust_criticality_verdict"
    decided = sel("covers", [robust], lambda s: s.attrs.get("decision") != "unknown")
    probes = sel("covers", [robust], lambda s: s.attrs.get("decision") == "unknown")
    covers = sum(s.attrs.get("covers", 0) for s in decided)
    events = sum(s.events for s in decided)
    pdp = sel("covers", ["pdp_value"])
    listing = sel("listcoloring")
    nodes = sum(s.events for s in listing)
    lemma = {key: sel("lemmas", [f"check_{key}_lemma"]) for key in ("excess", "full_extension", "induction")}
    counted = lemma["excess"] + lemma["full_extension"] + lemma["induction"]
    return {
        "covers.scan_ms": ms(decided),
        "covers.covers_decided": covers,
        "covers.covers_per_s": per_s(covers, ms(decided)),
        "covers.charge_events": events,
        "covers.covers_per_event": covers / events if events else 0.0,
        "covers.probe_covers_per_s": per_s(sum(s.attrs.get("covers", 0) for s in probes), ms(probes)),
        "covers.dp_ms": ms(sel("covers", ["dp_chromatic_number"])),
        "covers.pdp_ms": ms(pdp),
        "covers.pdp_covers": sum(s.attrs.get("covers", 0) for s in pdp),
        "coloring.classify_ms": ms(sel("coloring")),
        "coloring.calls": len(sel("coloring")),
        "listcoloring.search_ms": ms(listing),
        "listcoloring.nodes": nodes,
        "listcoloring.nodes_per_s": per_s(nodes, ms(listing)),
        "lemmas.excess_ms": ms(lemma["excess"]),
        "lemmas.excess_checked": sum(s.attrs.get("checked", 0) for s in lemma["excess"]),
        "lemmas.full_extension_ms": ms(lemma["full_extension"]),
        "lemmas.full_extension_checked": sum(s.attrs.get("checked", 0) for s in lemma["full_extension"]),
        "lemmas.induction_ms": ms(lemma["induction"]),
        "lemmas.pair_ms": ms(sel("lemmas", ["check_pair_reduction"])),
        "lemmas.join_ms": ms(sel("lemmas", ["check_join_preserves"])),
        "lemmas.checked_per_s": per_s(sum(s.attrs.get("checked", 0) for s in counted), ms(counted)),
        "lemmas.sampled_profiles": sum(
            1 for s in lemma["excess"] if str(s.attrs.get("mode", "")).startswith("sampled")
        ),
        "cli.run_command_ms": 1000.0 * statistics.median(
            [s.seconds for s in sel("cli", ["run_command"])] or [0.0]
        ),
        "graphs.codec_ms": ms(sel("graphs")),
        "graphs.codec_graphs": len(sel("graphs")),
        "jsonio.emit_ms": ms(sel("jsonio")),
        "jsonio.bytes": sum(s.attrs.get("bytes", 0) for s in sel("jsonio", ["dumps"])),
    }


# -- runs ---------------------------------------------------------------------


def untraced_run(workload, seed, inputs, deadline, tally, samples, spawner) -> dict[str, float]:
    # set-ups are repeated between the passes, so their median, like the
    # other figures, spans the whole run rather than its first second
    def set_up_again():
        set_up(workload, seed, samples["setup_s"], SETUP_EACH)

    if workload == "cli-mix":

        def step():
            result = run_commands(inputs.commands, tally, spawner)
            set_up_again()
            return result

        passes = until(deadline, step)
        samples["pass_s"] = [p[0] for p in passes]
        latencies = [x for p in passes for x in p[1]]
        rss_kb = spawner.maxrss_kb
    else:
        # the CLI tail is spread between the passes, so both sets of samples
        # span the whole run rather than one part of it
        chunks = [inputs.commands[i : i + TAIL_CHUNK] for i in range(0, len(inputs.commands), TAIL_CHUNK)]
        tail_s = 0.0
        latencies, passes = [], []
        while True:
            passes.append(run_ops(inputs.ops, tally))
            set_up_again()
            if chunks:
                start = time.perf_counter()
                latencies += run_commands(chunks.pop(0), tally, spawner)[1]
                tail_s = (time.perf_counter() - start) * len(chunks)
            if time.perf_counter() + statistics.median(passes) + tail_s > deadline:
                break
        for chunk in chunks:
            latencies += run_commands(chunk, tally, spawner)[1]
        samples["pass_s"] = passes
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples["cli_ms"] = [x if math.isfinite(x) else None for x in latencies]
    p50, _ = percentile(latencies, 0.5)
    p80, beyond = percentile(latencies, 0.8)
    samples["cli_p80_samples_beyond"] = beyond
    return {
        "setup_s": statistics.median(samples["setup_s"]),
        # the host slows down in stretches longer than a pass, so the median
        # would inherit one pass's stretch; the mean spreads over all of them
        "wall_s": statistics.mean(samples["pass_s"]),
        "peak_rss_mb": rss_kb / 1024.0,
        "cli_p50_ms": finite(p50),
        "cli_p80_ms": finite(p80),
    }


def traced_run(workload, inputs, deadline, tally, samples, spans_out, spawner) -> dict[str, float]:
    calibration = {"cli.interp_ms": 0.0, "cli.import_ms": 0.0}
    if workload == "cli-mix":
        interp, imports = [], []
        for _ in range(CALIBRATION_REPS):
            interp.append(spawner.run(["-c", "pass"])[2] * 1000)
            imports.append(spawner.run(["-c", "import critickit.cli"])[2] * 1000)
        samples["interp_ms"], samples["import_ms"] = interp, imports
        calibration = {
            "cli.interp_ms": statistics.median(interp),
            "cli.import_ms": statistics.median(imports) - statistics.median(interp),
        }
        runner, items = replay_commands, inputs.commands
    else:
        runner, items = run_ops, inputs.ops

    per_pass = []

    def pair():
        tracer = Tracer()
        untraced_s = runner(items, tally)
        with instrument(tracer):
            traced_s = runner(items, tally, tracer)
        per_pass.append(layer_metrics(tracer.spans))
        spans_out.append(tracer.records())
        return untraced_s, traced_s

    pairs = until(deadline, pair)
    samples["pass_s"] = [p[0] for p in pairs]
    samples["traced_pass_s"] = [p[1] for p in pairs]
    samples["layers"] = per_pass
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update(calibration)
    metrics["trace.overhead_frac"] = (
        statistics.median(samples["traced_pass_s"]) / statistics.median(samples["pass_s"]) - 1.0
    )
    return metrics


def git_commit() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "critickit" / "__init__.py").is_file():
        sys.exit(f"bench: no critickit sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if args.trace else "end_to_end"]

    samples: dict = {"setup_s": []}
    ck, inputs = set_up(args.workload, args.seed, samples["setup_s"], SETUP_REPS)
    if not Path(ck.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: critickit imported from {ck.__file__}, not from {src}")

    tally = Tally()
    spans: list = []
    deadline = time.perf_counter() + args.seconds
    with Spawner() as spawner:
        if args.trace:
            values = traced_run(args.workload, inputs, deadline, tally, samples, spans, spawner)
        else:
            values = untraced_run(args.workload, args.seed, inputs, deadline, tally, samples, spawner)
    missing = [m["name"] for m in group if m["name"] not in values]
    if missing:
        sys.exit(f"bench: metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "passes": len(samples["pass_s"]),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.failures,
        "metrics": metrics,
        "samples": samples,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {tally.failed}/{tally.attempted} passes {record['passes']}")
    print(
        json.dumps(
            {
                "correct": tally.unexpected == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
