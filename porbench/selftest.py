#!/usr/bin/env python3
"""Self-test of the por benchmark at toy size.

    python3 porbench/selftest.py        (from the root of a checkout)

For every workload in BENCHMARK.json it checks that
  * an untraced and a traced run both pass their correctness checks and
    print exactly the end-to-end / per-layer metrics BENCHMARK.json
    names, each with its declared unit;
  * both runs used identical inputs (same digest line for one seed);
  * the trace file parses as Chrome trace-event JSON, every span has a
    non-negative duration, every reported self time is >= 0, and the
    layer spans cover >= 95% of a cycle workload's traced wall time;
  * a run whose result is deliberately perturbed fails the correctness
    check: exit code != 0 and "correct": false.
Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

SEED = 7


def run(workload, trace, perturb=0):
    command = [sys.executable, os.path.join("porbench", "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--toy", "1", "--perturb", str(perturb)]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = [l for l in lines if l.startswith("inputs digest:")]
    return proc.returncode, result, digest, proc.stderr


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {"0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in bench["workloads"]]:
        digests = []
        for trace in (0, 1):
            code, result, digest, stderr = run(workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            expect(code == 0 and result and result["correct"],
                   tag + ": passes its correctness checks" +
                   ("" if code == 0 else "\n" + stderr))
            if not result:
                continue
            metrics = result["metrics"]
            expect(set(metrics) == set(declared[str(trace)]),
                   tag + ": emits exactly the declared metrics")
            expect(all(metrics[n]["unit"] == u
                       for n, u in declared[str(trace)].items()
                       if n in metrics),
                   tag + ": every metric carries its declared unit")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   tag + ": attempted >= 1 and nothing failed")
            digests.append(digest)
            if trace:
                self_times = [m["value"] for n, m in metrics.items()
                              if n.startswith("trace.self_s.")]
                expect(self_times and min(self_times) >= 0.0,
                       tag + ": self times are >= 0")
                coverage = metrics["trace.coverage"]["value"]
                if workload == "serve_durable":
                    # The open loop idles between arrivals; coverage is
                    # the share of time some job or serve call was live.
                    expect(0.0 < coverage <= 1.0,
                           tag + ": 0 < trace.coverage <= 1")
                else:
                    expect(0.95 <= coverage <= 1.0,
                           tag + ": 0.95 <= trace.coverage <= 1")
                path = os.path.join(".bench_out",
                                    "trace-%s-%d.json" % (workload, SEED))
                try:
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    spans = [e for e in events if e["ph"] == "X"]
                    expect(spans and all(e["dur"] >= 0 and e["ts"] >= 0
                                         for e in spans),
                           tag + ": trace parses, spans have ts, dur >= 0")
                except (OSError, ValueError, KeyError) as e:
                    expect(False, tag + ": trace parses (%s)" % e)
        expect(len(digests) == 2 and digests[0] and digests[0] == digests[1],
               workload + ": one seed gives identical inputs")
        code, result, _, _ = run(workload, 0, perturb=1)
        expect(code != 0 and result is not None and not result["correct"],
               workload + ": a perturbed result is rejected")

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
