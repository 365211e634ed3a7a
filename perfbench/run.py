#!/usr/bin/env python3
"""attachnet benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload repro-ecr10 --seed 1 --seconds 30 --trace 0

The command generates the workload's inputs from ``--seed``, times set-up in
fresh processes, then runs the workload in a worker process as one
closed-loop caller for ``--seconds``.  It prints every end-to-end metric
(``--trace 0``) or every per-layer metric (``--trace 1``) of
``BENCHMARK.json`` by name and unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, outputs,
spans and a full report land in ``.perfbench/<workload>/``.  See
``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

SETUP_PROBES = 3  # before and again after the workload, to sample two moments
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20

# name -> worker kind and input size
WORKLOADS = {
    "repro-ecr10": {"kind": "repro", "rows": 5000, "items": 10, "replicates": 4, "sample_size": 1000},
    "ingest-40k": {"kind": "ingest", "rows": 40000, "items": 36},
    "analyze-fixture": {"kind": "analyze"},
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def generate(spec: dict, seed: int, work: Path) -> dict:
    """Write the workload's inputs; returns what the worker and checks need."""
    import numpy as np
    from attachnet import fixtures

    import gen

    inputs = {"seed": seed}
    if spec["kind"] == "analyze":
        return inputs  # the bundled model; the seed orders the pair queries
    dag, params = fixtures.load_fixture_model()
    items = gen.ancestral_items(dag, spec["items"])
    raw = work / "raw.csv"
    inputs.update(gen.write_raw_export(raw, dag, params, spec["rows"], items, np.random.default_rng(seed)))
    inputs.update(raw=str(raw), items=list(items))
    for key in ("replicates", "sample_size"):
        if key in spec:
            inputs[key] = spec[key]
    return inputs


def metadata(workload: str, seed: int, seconds: int) -> dict:
    """What a result was measured on; results of different backends never compare."""
    import numpy
    import scipy
    from attachnet import _kernels

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "backend": _kernels.backend(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def time_setup(env) -> list[float]:
    """Seconds from starting a fresh process until it reports ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--probe"], env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - start)
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "attachnet" / "__init__.py").is_file():
        return fail(f"no attachnet sources under {SRC}; run from a full checkout")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)

    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])

    spec = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = generate(spec, args.seed, work)
    (work / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
    meta = metadata(args.workload, args.seed, args.seconds)
    print("meta " + json.dumps(meta), flush=True)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    setup_s = [] if args.trace else time_setup(env)
    cmd = [
        sys.executable, str(WORKER), "--workload", spec["kind"],
        "--inputs", str(work / "inputs.json"), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--result", str(work / "result.json"),
        "--layer-metrics", ",".join(m["name"] for m in bench["per_layer"]),
    ]
    proc = subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        return fail(f"worker exited {proc.returncode}")
    if not args.trace:
        setup_s += time_setup(env)
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    if not result["op_s"]:
        return fail(f"every operation failed; see {work / 'result.json'}")

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        values = result["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
            "op_slices": statistics.median(result["op_slices"]),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"{attempted} operations attempted, {failed} failed; "
          f"{len(result['op_s'])} timed ops, {len(setup_s)} set-up probes; "
          f"median op wall time {statistics.median(result['op_s']):.6g} s, "
          f"median calibration slice {1e3 * statistics.median(result['slice_s']):.6g} ms")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    report = {"meta": meta, "inputs": inputs, "setup_s": setup_s, "result": result, "metrics": metrics}
    (work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
