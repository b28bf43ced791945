"""tmfkit benchmark: seeded closed-loop workloads with oracle-checked answers.

    python3 perfbench/run.py --workload fgl-rational --seed 1 --seconds 50 --trace 0

runs one client that sends the workload's next request only when the
previous one has returned, for about ``--seconds`` seconds of request time
(whole decks of requests, ending at the deck boundary nearest to that
time), checks every answer against an oracle outside the timed interval,
and prints the end-to-end metrics.  ``--trace 1`` prints the per-layer metrics instead:
half the time untraced (in a child process), half with spans around every
public tmfkit function, plus a separate coefficient-op counting pass.  The
last line of stdout is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Other modes:

    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --compare A.jsonl B.jsonl

``--out FILE`` appends the full record of a run (result, run information and
input properties) to FILE as one JSON line; ``--compare`` reads two such
files.  Everything runs from the repository root against ``src/tmfkit``.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import spans
import workloads
from workloads import ROOT, SRC, WORKLOADS, child_env

SETUP_PROBES = 7
CLI_PROBES = 5
COUNT_REQUESTS = 5


def percentile(values, pct):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def probe_seconds(code):
    """Wall time from spawning a fresh interpreter running ``code`` until
    it reports ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c",
                             code + "; print('ready', flush=True)"],
                            stdout=subprocess.PIPE, cwd=ROOT, env=child_env())
    line = proc.stdout.readline()
    t1 = time.perf_counter()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("probe failed: %s" % code)
    return t1 - t0


def median_probe(code, k):
    return statistics.median(probe_seconds(code) for _ in range(k))


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_loop(wl, seed, seconds, min_requests=0):
    """The closed loop.  Returns per-request latencies, failures, the
    requests run and the first answer of each request kind."""
    rng = random.Random(seed)
    latencies, reqs, failures, first = [], [], [], {}
    busy = 0.0
    deck_index = 0
    # whole decks only; stop at the deck boundary nearest to ``seconds``,
    # but not before min_requests
    while deck_index == 0 or len(latencies) < min_requests or \
            busy + busy / deck_index / 2 < seconds:
        for req in wl.deck(rng, deck_index):
            t0 = time.perf_counter()
            try:
                raw = wl.call(req)
            except Exception as exc:  # a failed request, reported below
                raw, error = None, "%s: %s" % (type(exc).__name__, exc)
            else:
                error = None
            dt = time.perf_counter() - t0
            busy += dt
            latencies.append(dt)
            reqs.append(req)
            if error is None:
                ans = wl.answer(req, raw)
                if wl.verify(req, ans):
                    first.setdefault(req["kind"], (req, ans))
                else:
                    error = "oracle mismatch"
            if error is not None:
                failures.append("%s: %s" % (req["kind"], error))
        deck_index += 1
    return {"latencies": latencies, "busy": busy, "requests": reqs,
            "decks": deck_index, "failures": failures, "first": first}


def corruption_check(wl, first):
    """Each oracle must reject a corrupted copy of a real answer."""
    missed = [kind for kind, (req, ans) in sorted(first.items())
              if wl.verify(req, wl.corrupt(req, ans))]
    return missed


def median_ms_by_kind(loop):
    by_kind = {}
    for req, dt in zip(loop["requests"], loop["latencies"]):
        by_kind.setdefault(req["kind"], []).append(dt)
    return {k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())}


def end_to_end(wl, loop, setup_s):
    lat = loop["latencies"]
    rss_kind = resource.RUSAGE_CHILDREN if wl.spawns \
        else resource.RUSAGE_SELF
    return {
        "throughput_rps": (len(lat) / loop["busy"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, wl.tail_pct) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(rss_kind).ru_maxrss / 1024.0,
                        "MB"),
    }


def count_pass(wl, seed):
    """Coefficient ops of the first COUNT_REQUESTS requests of the seeded
    sequence, in this (fresh) process."""
    counts = dict.fromkeys(spans.COEFF_KINDS, 0)
    rng = random.Random(seed)
    reqs = []
    deck_index = 0
    while len(reqs) < COUNT_REQUESTS:
        reqs += wl.deck(rng, deck_index)
        deck_index += 1
    call = wl.in_process if wl.spawns else wl.call
    undo = spans.install_counters(counts)
    try:
        for req in reqs[:COUNT_REQUESTS]:
            call(req)
    finally:
        undo()
    return counts


def child_json(args):
    """Run this script in a child process; return its last stdout line."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__)] + args,
                         stdout=subprocess.PIPE, cwd=ROOT, check=True,
                         timeout=600)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def traced_metrics(wl, args):
    half = args.seconds / 2.0
    untraced = child_json(["--workload", wl.name, "--seed", str(args.seed),
                           "--seconds", str(half), "--phase", "untraced"])
    if wl.spawns:
        wl.traced = True
        loop = run_loop(wl, args.seed, half)
        summary = spans.merge_summaries(wl.summaries)
    else:
        tracer = spans.Tracer()
        undo = spans.install_spans(tracer)
        try:
            loop = run_loop(wl, args.seed, half)
        finally:
            undo()
        summary = tracer.summary()
    counts = child_json(["--workload", wl.name, "--seed", str(args.seed),
                         "--phase", "count"])
    bare = median_probe("pass", CLI_PROBES)
    imported = median_probe("import tmfkit.cli", CLI_PROBES)

    metrics = {k: (v, "s" if k.endswith("_s") else "count")
               for k, v in spans.span_metrics(summary).items()}
    for kind in spans.COEFF_KINDS:
        metrics["algebra.coeff_ops." + kind] = (counts[kind], "count")
    metrics["cli.interpreter_ms"] = (bare * 1e3, "ms")
    metrics["cli.import_ms"] = ((imported - bare) * 1e3, "ms")
    throughput = len(loop["latencies"]) / loop["busy"]
    metrics["trace.overhead_ratio"] = (
        untraced["metrics"]["throughput_rps"]["value"] / throughput, "ratio")
    self_total = sum(summary["self_s"].values())
    metrics["trace.request_s"] = (loop["busy"], "s")
    metrics["trace.harness_s"] = (loop["busy"] - self_total, "s")
    metrics["trace.span_coverage"] = (self_total / loop["busy"], "ratio")
    return loop, metrics, untraced


def run(args):
    wl = WORKLOADS[args.workload]()
    if args.phase == "count":
        print(json.dumps(count_pass(wl, args.seed)))
        return 0
    if args.phase == "untraced":
        loop = run_loop(wl, args.seed, args.seconds)
        metrics = {"throughput_rps": end_to_end(wl, loop, 0)["throughput_rps"]}
        correct_child = True
    elif args.trace:
        loop, metrics, untraced = traced_metrics(wl, args)
        correct_child = untraced["correct"]
    else:
        setup_s = median_probe(wl.setup_code, SETUP_PROBES)
        # at least ten samples beyond the tail percentile
        loop = run_loop(wl, args.seed, args.seconds,
                        int(10 / (1 - wl.tail_pct / 100.0)) + 1)
        metrics = end_to_end(wl, loop, setup_s)
        correct_child = True
    missed = corruption_check(wl, loop["first"])
    failed = len(loop["failures"])
    attempted = len(loop["latencies"])
    result = {
        "correct": failed == 0 and not missed and correct_child,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    info = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
        "requests": attempted, "decks": loop["decks"],
        "failed_ratio": failed / attempted,
        "tail_percentile": wl.tail_pct,
        "tail_samples_beyond": sum(
            1 for x in loop["latencies"]
            if x > percentile(loop["latencies"], wl.tail_pct)),
        "request_kinds": workloads.histogram(
            r["kind"] for r in loop["requests"]),
        "median_ms_by_kind": median_ms_by_kind(loop),
        "inputs": wl.properties(loop["requests"]),
        "oracles_missing_corruption": missed,
        "failures": loop["failures"][:10],
    }
    print("perfbench %s seed=%d trace=%d python=%s nproc=%d git=%s"
          % (wl.name, args.seed, args.trace, info["python"], info["nproc"],
             info["git_sha"]))
    print("  requests=%d decks=%d failed_ratio=%g tail=p%d (%d beyond)"
          % (attempted, loop["decks"], info["failed_ratio"],
             wl.tail_pct, info["tail_samples_beyond"]))
    for k, (v, u) in metrics.items():
        print("  %-42s %14.6g %s" % (k, v, u))
    print("  info " + json.dumps(info, default=str))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"info": info, "result": result},
                                default=str) + "\n")
    print(json.dumps(result))
    return 0


def self_check():
    """Every oracle accepts a real answer and rejects a corrupted one, and
    BENCHMARK.json names exactly the metrics this harness emits."""
    ok = True
    for name, cls in WORKLOADS.items():
        wl = cls()
        rng = random.Random(0)
        seen = set()
        reqs = [r for i in range(6) for r in wl.deck(rng, i)]
        for req in reqs:
            if req["kind"] in seen:
                continue
            seen.add(req["kind"])
            ans = wl.answer(req, wl.call(req))
            accepts = wl.verify(req, ans)
            rejects = not wl.verify(req, wl.corrupt(req, ans))
            ok &= accepts and rejects
            print("%-12s %-18s accepts real answer: %-5s rejects corrupted: %s"
                  % (name, req["kind"], accepts, rejects))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = [m["name"] for m in bench["per_layer"]]
    same = declared == spans.per_layer_names()
    same &= all(w["name"] in WORKLOADS and w["why"] == WORKLOADS[w["name"]].why
                for w in bench["workloads"])
    print("BENCHMARK.json matches the harness: %s" % same)
    return 0 if ok and same else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record to this file")
    parser.add_argument("--phase", choices=("count", "untraced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tmfkit", "__init__.py")):
        print("perfbench: no tmfkit sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.compare:
        import compare
        return compare.main(*args.compare)
    if args.self_check:
        return self_check()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
