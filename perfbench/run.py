"""The repo benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload shared-election --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs one untraced and one traced round and reports the
per-layer metrics, writing every span to one JSON file under
``.perfbench/``.  The last line of standard output is the JSON result
object; the exit code is non-zero when any output is wrong (a red cell
or a digest that differs between rounds).  ``perfbench/README.md``
documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_paths() -> None:
    """Make ``repro`` (from this checkout's ``src``) and ``perfbench``
    importable; refuse to run against anything else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no repro sources under {src}; run from a full checkout")
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    """The checkout's commit from ``.git`` (``unknown`` without one)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> Dict[str, Any]:
    """Runner fingerprint recorded with every result."""
    from repro.sim import kernel  # noqa: F401 - import selects the variant
    from repro.sim.variant import kernel_variant

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count() or 1,
        "repro_kernel": kernel_variant()[0],
        "git_commit": git_commit(),
    }


def setup(workload_name: str, seed: int, tiny: bool) -> Tuple[Any, float, float]:
    """Imports, input build, warm-up cell and pool start, timed.

    Returns the workload, the set-up seconds and the host-speed scale
    sampled while it ran, net of the samples' own time (see
    ``bench.SpeedSampler``).
    """
    from perfbench.bench import SpeedSampler

    started = time.perf_counter()
    with SpeedSampler() as sampler:
        from perfbench.bench import WORKLOADS

        workload = WORKLOADS[workload_name](seed, WORKDIR / "rounds", tiny)
        workload.warm_up()
    elapsed = time.perf_counter() - started
    return workload, elapsed, sampler.scale() * (elapsed - sampler.overhead_s) / elapsed


def child_setup_s(workload_name: str, seed: int, tiny: bool) -> Tuple[float, float]:
    """Set-up seconds and host-speed scale measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload_name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=170)
    elapsed, scale = out.stdout.split()[-2:]
    return float(elapsed), float(scale)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (pool
    workers; set-up children run only after this is read)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, setup_samples: int = 5) -> Dict[str, Any]:
    """One benchmark run; returns the full result record."""
    from perfbench import bench

    workload, setup_s, setup_scale = setup(workload_name, seed, tiny)
    prime_s = workload.prime()
    contract = _load_contract()
    record: Dict[str, Any] = {"workload": workload_name, "seed": seed,
                              "trace": int(trace), "fingerprint": fingerprint()}
    if trace:
        from perfbench.tracing import Tracer

        reference = bench.run_rounds(workload, 0.0)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.start_profile()
            try:
                traced = bench.run_rounds(workload, 0.0)
            finally:
                tracer.stop_profile()
        finally:
            tracer.uninstall()
        rounds = reference + traced
        e2e = bench.end_to_end(rounds, workload.require_stable, workload.tail_pct)
        values = bench.per_layer(traced[0], reference[0].wall_s, tracer)
        spec = contract["per_layer"]
        record["layer_self_s"] = dict(sorted(tracer.layer_self_s.items()))
        record["spans_file"] = str(write_spans(workload_name, seed, tracer, record))
    else:
        rounds = bench.run_rounds(workload, seconds, scaled=True)
        values = e2e = bench.end_to_end(rounds, workload.require_stable, workload.tail_pct)
        values["peak_rss_mb"] = peak_rss_mb()
        samples = [(setup_s, setup_scale)] + [child_setup_s(workload_name, seed, tiny)
                                              for _ in range(setup_samples - 1)]
        setups = [t * scale for t, scale in samples]
        values["setup_s"] = statistics.median(setups) + prime_s
        record.update(
            setup_samples_s=setups,
            prime_s=prime_s,
            cell_tail={"percentile": values["cell_tail_pct"],
                       "samples": values["cell_tail_samples"]},
            host_cells_per_s=values["host_cells_per_s"],
            host_scales=[x for r in rounds for x in r.scales],
            cell_wall_s=[[c.name, c.wall_s, c.scale] for c in rounds[0].cells],
        )
        spec = contract["end_to_end"]
    digests = sorted({r.digest for r in rounds})
    record.update({
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        "digest": digests[0],
        "digests_agree": len(digests) == 1,
        "attempted": e2e["attempted"],
        "failed": e2e["failed"],
        "failed_share": e2e["failed"] / e2e["attempted"],
        "red_cells": sorted({c.name for r in rounds for c in r.cells
                             if bench.is_red(c, workload.require_stable)}),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    })
    record["correct"] = record["digests_agree"] and record["failed"] == 0
    return record


def write_spans(workload_name: str, seed: int, tracer: Any, record: Dict[str, Any]) -> Path:
    """Write the traced round's spans (kept in memory until now)."""
    WORKDIR.mkdir(parents=True, exist_ok=True)
    path = WORKDIR / f"trace-{workload_name}-seed{seed}.json"
    payload = {
        "fingerprint": record["fingerprint"],
        "columns": ["id", "name", "start", "end", "parent"],
        "spans": tracer.spans,
        "layer_self_s": tracer.layer_self_s,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def report(record: Dict[str, Any]) -> None:
    """Human-readable lines, then the one-line JSON result."""
    fp = record["fingerprint"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['rounds']} round(s), {record['attempted']} cell(s)")
    print("runner " + " ".join(f"{k}={v}" for k, v in fp.items()))
    for name, metric in record["metrics"].items():
        line = f"  {name:40s} {metric['value']:.6g} {metric['unit']}"
        if name == "cell_tail_s":
            tail = record["cell_tail"]
            line += f"  (p{tail['percentile']} of {tail['samples']} cells)"
        print(line)
    for layer, value in record.get("layer_self_s", {}).items():
        print(f"  self {layer:35s} {value:.6g} s")
    if "host_cells_per_s" in record:
        scales = record["host_scales"]
        print(f"host speed scale {min(scales):.3f}..{max(scales):.3f}; "
              f"unscaled cells_per_s {record['host_cells_per_s']:.6g} cells/s")
    print(f"failed_share {record['failed_share']:.6g} "
          f"({record['failed']}/{record['attempted']}) {' '.join(record['red_cells'])}")
    print(f"digest {record['digest']} agree={record['digests_agree']}")
    if "spans_file" in record:
        print(f"spans {record['spans_file']}")
    WORKDIR.mkdir(parents=True, exist_ok=True)
    out = WORKDIR / f"result-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    out.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken cells for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_paths()
    from perfbench.bench import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.environ["REPRO_RESULTS_DIR"] = str(WORKDIR / "results")
    if args.setup_only:
        _workload, elapsed, scale = setup(args.workload, args.seed, args.tiny)
        print(elapsed, scale)
        return 0
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    report(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
