"""Run one benchmark workload, or all four, and print its metrics.

    python3 perfbench/run.py --workload telemetry-fanout --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all                 # every workload, one table
    python3 perfbench/run.py --all --trace 1       # per-layer figures instead

Run from the repository root; the package is imported from `src/`. A run
replays fixed-size episodes of its workload (fresh set-up, then a fixed list
of closed-loop ops from one client) until `--seconds` is spent, and checks
every op's outputs plus the exact repetition of each episode's simulated
counters and journal hash.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run, which
alternates untraced and traced episodes so that the tracing overhead is
measured on the same work. The line before it (`detail {...}`) holds the
sample counts, tail percentile, counters, journal hash and provenance.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_EPISODES = 3
RUN_LIMIT_S = 150  # stop starting episodes past this, whatever --seconds says

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class OpClock:
    """Times one op; `untimed()` blocks are left out of it and of the spans."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.paused_ns = 0

    @contextmanager
    def untimed(self):
        start = perf_counter_ns()
        tracer = self.tracer
        was_active = tracer is not None and tracer.active
        if tracer is not None:
            tracer.active = False
        try:
            yield
        finally:
            if tracer is not None:
                tracer.active = was_active
            self.paused_ns += perf_counter_ns() - start


def run_episode(workload, tracer=None) -> dict:
    """One fresh set-up plus the workload's fixed op list."""
    import workloads

    clock = OpClock(tracer)
    start = perf_counter_ns()
    if tracer is not None:
        tracer.active = True
    try:
        workload.setup()
    finally:
        if tracer is not None:
            tracer.active = False
    setup_ns = perf_counter_ns() - start
    op_ns: list[int] = []
    failures: list[str] = []
    for i in range(workload.ops_per_episode):
        clock.paused_ns = 0
        if tracer is not None:
            tracer.op_id, tracer.active = i, True
        begin = perf_counter_ns()
        try:
            workload.op(i, clock)
        except workloads.CheckFailed as exc:
            failures.append(f"op {i}: {exc}")
        except Exception:  # any other error is a failed op; keep measuring
            failures.append(f"op {i}: {traceback.format_exc()}")
        finally:
            end = perf_counter_ns()
            if tracer is not None:
                tracer.active, tracer.op_id = False, None
        op_ns.append(end - begin - clock.paused_ns)
    summary = workload.finish()
    workload.teardown()
    # The episode's object graph is cyclic; free it here, untimed, so that
    # its collection is not charged to the next episode.
    gc.collect()
    return {"setup_ns": setup_ns, "op_ns": op_ns, "failures": failures, **summary}


def op_profile(episodes: list[dict]) -> list[int]:
    """Each op's best time over the run's episodes, in ascending order.

    Every episode replays the same op list, so op i is measured once per
    episode. On a shared host, load from other tenants only ever slows an op
    down, in regimes lasting a second or more, so an op's fastest repetition
    is the steadiest estimate of what its code costs; ops that are slow in
    every episode (knowledge growth, a deterministic collection) stay slow.
    """
    return sorted(min(times) for times in zip(*(e["op_ns"] for e in episodes)))


def end_to_end_metrics(episodes: list[dict]) -> tuple[dict, dict]:
    """Set-up time is the median over episodes. Throughput, median and tail
    latency are read off the op profile; the tail is at the highest percentile
    that leaves ten of its ops beyond it, fixed by the workload's shape. The
    detail gives the same figures pooled over every op of the run."""
    from spans import nearest_rank, tail_percentile

    profile = op_profile(episodes)
    pooled = sorted(ns for e in episodes for ns in e["op_ns"])
    tail_pct, beyond = tail_percentile(len(profile)) or (100.0, 0)
    values = {
        "setup_s": statistics.median(e["setup_ns"] for e in episodes) / 1e9,
        "ops_per_s": len(profile) / (sum(profile) / 1e9),
        "op_p50_ms": statistics.median(profile) / 1e6,
        "op_tail_ms": nearest_rank(profile, tail_pct) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "episodes": len(episodes),
        "ops_per_episode": len(profile),
        "op_samples": len(pooled),
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": beyond,
        "pooled_tail_ms": nearest_rank(pooled, tail_pct) / 1e6,
        "pooled_p50_ms": statistics.median(pooled) / 1e6,
        "pooled_ops_per_s": len(pooled) / (sum(pooled) / 1e9),
    }
    return values, samples


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "interconnect").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance() -> dict:
    uname = platform.uname()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": f"{uname.system} {uname.release} {uname.machine}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def write_spans(path: Path, spans: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = spans[0][1] if spans else 0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("name\tstart_ns\tend_ns\tparent\top\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{name}\t{start - origin}\t{end - origin}\t{parent}\t"
                     f"{'-' if op is None else op}\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
                 spans_path: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail)."""
    import layers
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[name](seed, small)
    tracer = probes = None
    if trace:
        tracer, probes = Tracer(), layers.Probes()
        layers.install(tracer, probes)
    untraced: list[dict] = []
    folds: list = []
    kept_spans: list[tuple] = []
    episodes: list[dict] = []
    started = perf_counter()
    try:
        while True:
            traced = trace and len(episodes) % 2 == 1
            if traced:
                probes.reset()
                tracer.clear()
            episode = run_episode(workload, tracer if traced else None)
            episodes.append(episode)
            if traced:
                folds.append(layers.EpisodeFold(tracer, probes, episode,
                                                workload.ops_per_episode))
                if not kept_spans:
                    kept_spans = list(tracer.spans)
                tracer.clear()
            else:
                untraced.append(episode)
            elapsed = perf_counter() - started
            wall = elapsed / len(episodes)
            enough = len(episodes) >= (2 if trace else MIN_EPISODES)
            paired = not trace or len(episodes) % 2 == 0
            if paired and (elapsed > RUN_LIMIT_S or (enough and elapsed + wall / 2 > seconds)):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    failures = [f for e in episodes for f in e["failures"]]
    reference = {k: episodes[0][k] for k in ("counters", "gauges", "trace_sha256")}
    repeats = all({k: e[k] for k in reference} == reference for e in episodes)
    if not repeats:
        failures.append("episodes of one seed did not repeat the same counters and journal")
    attempted = sum(len(e["op_ns"]) for e in episodes)
    failed_ops = sum(len(e["failures"]) for e in episodes)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "small": small,
        "failed_ratio": failed_ops / attempted,
        "failures": failures[:20],
        "trace_sha256": reference["trace_sha256"],
        "counters": reference["counters"],
        "gauges": reference["gauges"],
        "provenance": provenance(),
    }
    if trace:
        metrics = layers.per_layer_metrics(folds, [e["op_ns"] for e in untraced])
        detail["traced_episodes"] = len(folds)
        if spans_path is not None:
            write_spans(spans_path, kept_spans)
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values, samples = end_to_end_metrics(untraced)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        detail["samples"] = samples
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, then one table of every metric."""
    import workloads

    rows = []
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            status = 1
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2 or not lines[-2].startswith("detail "):
            sys.stderr.write(proc.stderr)
            print(f"{name}: no result (exit code {proc.returncode})")
            continue
        detail = json.loads(lines[-2].removeprefix("detail "))
        result = json.loads(lines[-1])
        rows.append((name, result, detail))
    for name, result, detail in rows:
        samples = detail.get("samples", {})
        print(f"\n{name}  seed={seed}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}  "
              f"failed_ratio={detail['failed_ratio']:.4g}  "
              f"trace_sha256={detail['trace_sha256'][:16]}")
        if samples:
            print(f"  samples: {samples['episodes']} episodes x {samples['ops_per_episode']} "
                  f"ops; each op's best of {samples['episodes']}; tail = "
                  f"p{samples['op_tail_percentile']:g} with {samples['op_tail_beyond']} "
                  f"ops beyond it")
        for failure in detail["failures"]:
            print(f"  FAILED {failure}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the workload names in BENCHMARK.json")
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the fixed default seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "interconnect" / "__init__.py").is_file():
        print(f"error: no interconnect package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    seconds = args.seconds
    if seconds is None:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = benchmark["run_seconds"]
    if args.all:
        return run_all(seed, seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spans_path = OUT / f"spans-{args.workload}-seed{seed}.tsv.gz"
    result, detail = run_workload(args.workload, seed, seconds, bool(args.trace),
                                  spans_path=spans_path)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
