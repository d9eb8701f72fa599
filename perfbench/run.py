"""Benchmark of the naisargik CLI, run in-process through ``naisargik.cli.main``.

    python3 perfbench/run.py --workload correction --seed 1 --seconds 35 --trace 0

A workload is a fixed list of ``naisargik`` argv lists (perfbench/workloads.json).
The seed only permutes their order: the inputs are exhaustive grids with
nothing random to draw, and the expected outcome of each invocation does not
depend on the order.  Every invocation's exit code and stdout SHA-256 are
compared with the values pinned in workloads.json; a mismatch is a failed
operation.

``--trace 0`` reports the end-to-end metrics.  The run repeats whole passes
until the pass boundary nearest ``--seconds``; ``wall_s`` is the sum over the
invocations of each one's median time over those passes.  ``setup_s`` is the
median over several fresh processes of the time from process start until
``naisargik.cli`` is imported and the invocation list is built; one such
process starts after each invocation, so the probes span the whole run.

``--trace 1`` runs one untraced pass and two traced passes and reports the
per-layer metrics (see perfbench/spans.py); ``trace.overhead_s`` is the first
traced pass minus the untraced one, each invocation timed back to back.  The
run fails if a span target is missing, if tracing changes a stdout digest, if
a count does not repeat exactly between the traced passes, or if a workload's
``trace_require`` counts differ; per-invocation ``trace_expect`` counts are
only reported.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric by name with its unit.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_workload(name: str, seed: int) -> tuple[dict, list[dict]]:
    """The workload's spec and its invocations in the order the seed gives."""
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    if name not in workloads:
        raise SystemExit(f"unknown workload {name!r} (known: {', '.join(workloads)})")
    spec = workloads[name]
    invocations = list(spec["invocations"])
    random.Random(seed).shuffle(invocations)
    return spec, invocations


def import_cli():
    """Import ``naisargik.cli`` from this checkout's ``src``, never from elsewhere.

    Callers look up ``cli.main`` at each call, so a traced ``main`` is seen.
    """
    src = ROOT / "src"
    if not (src / "naisargik" / "cli.py").is_file():
        raise SystemExit(f"error: no naisargik sources under {src}")
    sys.path.insert(0, str(src))
    import naisargik.cli

    if Path(naisargik.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: naisargik was imported from {naisargik.cli.__file__}")
    return naisargik.cli


def run_invocation(cli, argv: list[str]) -> tuple[int, str, float]:
    """Exit code, captured stdout and seconds of one in-process invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an unexpected crash is a failed operation
            print(f"crash: {exc!r}", file=sys.__stderr__)
            code = -1
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def run_pass(cli, invocations: list[dict], after=None) -> list[dict]:
    """One pass over the list; ``after()`` is called after each invocation.

    Each invocation starts from a collected heap, as a fresh process would.
    """
    records = []
    for inv in invocations:
        gc.collect()
        code, text, elapsed = run_invocation(cli, inv["argv"])
        data = text.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        ok = code == inv["exit"] and digest == inv["sha256"]
        if not ok:
            print(
                f"failed: {' '.join(inv['argv'])}: exit {code} (pinned {inv['exit']}), "
                f"sha256 {digest[:16]} (pinned {inv['sha256'][:16]})",
                file=sys.stderr,
            )
        records.append(
            {
                "code": code,
                "sha256": digest,
                "bytes": len(data),
                "seconds": elapsed,
                "ok": ok,
                "after": after() if after else None,
            }
        )
    return records


def setup_probe(workload: str, seed: int):
    """A callable timing one fresh process up to a ready CLI and invocation list."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]

    def probe() -> float:
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed with exit {proc.returncode}")
        return elapsed

    return probe


def end_to_end(cli, workload: str, seed: int, seconds: float, invocations: list[dict]):
    probe = setup_probe(workload, seed)
    passes: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, invocations, probe))
        elapsed = time.perf_counter() - start
        # Stop at the pass boundary nearest the budget.
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            break
    wall_s = sum(
        statistics.median(p[i]["seconds"] for p in passes) for i in range(len(invocations))
    )
    words = sum(inv["words"] for inv in invocations)
    records = [r for p in passes for r in p]
    metrics = {
        "setup_s": statistics.median(r["after"] for r in records),
        "wall_s": wall_s,
        "words_per_s": words / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"passes {len(passes)}", f"set-up probes {len(records)}"]
    return metrics, records, True, notes


def traced(cli, spec: dict, invocations: list[dict]):
    from spans import COUNTS, Tracer

    # The first traced pass runs each invocation right after its untraced run,
    # so that host speed, which drifts over seconds, cancels from the overhead.
    # The second traced pass checks that every count repeats.
    tracers = (Tracer(), Tracer())
    untraced: list[dict] = []
    passes: tuple[list[dict], list[dict]] = ([], [])
    for inv in invocations:
        untraced += run_pass(cli, [inv])
        with tracers[0]:
            passes[0].extend(run_pass(cli, [inv], tracers[0].snapshot))
    with tracers[1]:
        passes[1].extend(run_pass(cli, invocations, tracers[1].snapshot))
    runs = []
    for tracer, records in zip(tracers, passes):
        layers = tracer.snapshot()
        layers["cli.stdout_bytes"] = sum(r["bytes"] for r in records)
        runs.append((records, layers))

    ok = True
    notes = ["untraced passes 1, traced passes 2"]
    if tracers[0].missing:
        # A layer that is not traced would read 0 and look like a gain.
        ok = False
        notes.append("span targets not found: " + ", ".join(tracers[0].missing))
    for records, _ in runs:
        for inv, plain, seen in zip(invocations, untraced, records):
            if plain["sha256"] != seen["sha256"] or plain["code"] != seen["code"]:
                ok = False
                notes.append(f"tracing changed the output of {' '.join(inv['argv'])}")
    first, second = runs[0][1], runs[1][1]
    for name in (*COUNTS, "cli.stdout_bytes"):
        if first[name] != second[name]:
            ok = False
            notes.append(f"count {name} differs between traced passes: {first[name]} != {second[name]}")
    for name, value in spec.get("trace_require", {}).items():
        verdict = "ok" if first[name] == value else "FAILED"
        ok = ok and verdict == "ok"
        notes.append(f"trace requirement {verdict}: {name} = {first[name]} (required {value})")
    notes.extend(check_expectations(invocations, runs[0][0]))

    metrics = {}
    for name, value in first.items():
        if isinstance(value, float):
            value = statistics.mean(layers[name] for _, layers in runs)
        metrics[name] = value
    metrics["trace.overhead_s"] = sum(r["seconds"] for r in passes[0]) - sum(
        r["seconds"] for r in untraced
    )
    return metrics, untraced + passes[0] + passes[1], ok, notes


def check_expectations(invocations: list[dict], records: list[dict]) -> list[str]:
    """Compare each invocation's counts with those pinned in workloads.json.

    A difference is reported, not failed: a later change may legitimately
    enumerate less than the pinned commit did.
    """
    notes = []
    previous: dict = {}
    for inv, rec in zip(invocations, records):
        seen = {k: v - previous.get(k, 0) for k, v in rec["after"].items()}
        previous = rec["after"]
        for name, value in inv.get("trace_expect", {}).items():
            verdict = "ok" if seen[name] == value else "DIFFERS"
            notes.append(f"trace expectation {verdict}: {' '.join(inv['argv'])}: "
                         f"{name} = {seen[name]} (pinned {value})")
    return notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    spec, invocations = load_workload(args.workload, args.seed)
    cli = import_cli()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        wanted = bench["per_layer"]
        metrics, records, ok, notes = traced(cli, spec, invocations)
    else:
        wanted = bench["end_to_end"]
        metrics, records, ok, notes = end_to_end(
            cli, args.workload, args.seed, args.seconds, invocations
        )
    failed = sum(not r["ok"] for r in records)
    notes.append(f"failed_share {failed / len(records):.4f} ({failed} of {len(records)} invocations)")
    for note in notes:
        print(f"# {note}")
    result = {}
    for m in wanted:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        value = metrics[m["name"]]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{m['name']:28} {shown} {m['unit']}")
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
