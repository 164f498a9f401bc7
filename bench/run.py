"""Sweep benchmark for weylrep: end-to-end and per-layer metrics.

usage: python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                            [--trace 0|1]

Each sweep runs ``weylrep.cli.main(["sweep", ...])`` in a fresh
single-threaded interpreter on a config generated from the workload name
and the seed, one child at a time.  ``--trace 0`` repeats sweeps for
``--seconds`` seconds and reports the end-to-end metrics; ``--trace 1``
repeats pairs of an untraced and a traced sweep and reports the
per-layer metrics.  Without ``--trace`` both are run.  Every sweep passes
a correctness gate; a human-readable table comes first and the last
line of stdout is the JSON result.  Raw samples and provenance go to
``.benchwork/results/``.  Exit 0 when every sweep passed, 1 when one
failed, 2 when the program cannot be set up (no result is printed).
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
import tempfile
import time
from collections import Counter
from pathlib import Path

from child import SETUP_FAILED
from tracer import LAYERS, TRACED
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 20240901
DEFAULT_SECONDS = 30
SETUP_REPEATS = 5   # setup-only children per untraced run, besides each sweep's own
DEADLINE_S = 170    # no child may run past this many seconds into a workload

END_TO_END = {"sweep_s": "s", "checks_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
RATIOS = ("weyl.random_element.distinct_frac", "tits.multiply_per_cocycle",
          "tits.distinct_pair_frac", "affine.omega_group_per_system",
          "chevalley.build_constants_per_system", "trace.overhead_frac")
# layer call counts that must equal the report's count for a check
CROSS_CHECKS = (("tits.check_cocycle_formula", "cocycle"),
                ("weyl.check_first_difference", "first_difference"),
                ("fixer.solve", "fixer"))


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for module in LAYERS:
        units[f"{module}.errors"] = "count"
    units.update(dict.fromkeys(RATIOS, "ratio"))
    return units


class SetupError(RuntimeError):
    """The program cannot be imported or set up in this checkout."""


class Run:
    """Child processes for one workload and seed, all under one deadline."""

    def __init__(self, root: Path, workload, seed: int):
        self.root = root
        self.workload = workload
        self.deadline = time.monotonic() + DEADLINE_S
        workdir = root / ".benchwork"
        workdir.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir))
        self.config = self.tmp / "config.json"
        self.config.write_text(json.dumps(workload.make_config(seed), indent=2))
        self.spans = workdir / "spans"
        self.spans.mkdir(exist_ok=True)
        self.sweeps = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def child(self, mode: str) -> dict:
        """Run one child; a crash or timeout comes back as ``{"error": ...}``."""
        argv = [sys.executable, "-I", "-S", str(BENCH / "child.py"), mode,
                str(self.root / "src"), str(self.config)]
        if mode != "setup":
            self.sweeps += 1
            argv.append(str(self.tmp / f"report-{self.sweeps}.json"))
        if mode == "trace":
            argv.append(str(self.spans / self.workload.name))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"error": "workload deadline reached before the child started"}
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=remaining, cwd=self.root)
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} child passed the {DEADLINE_S} s deadline"}
        if proc.returncode == SETUP_FAILED:
            raise SetupError(proc.stderr.strip())
        if proc.returncode != 0 or not proc.stdout.strip():
            return {"error": f"{mode} child exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}"}
        return json.loads(proc.stdout.splitlines()[-1])

    def setup(self) -> float:
        """Seconds one setup-only child took to import and build its systems."""
        out = self.child("setup")
        if "error" in out:
            raise SetupError(out["error"])
        return out["setup_s"]

    def keep_going(self, started: float, seconds: float, last: float) -> bool:
        """Start another round if it ends nearer ``seconds`` than stopping now."""
        now = time.monotonic()
        return now - started + last / 2 < seconds and now + last < self.deadline


def problems(workload, sweep: dict) -> list[str]:
    """Why a sweep fails the correctness gate; empty when it passes."""
    if sweep.get("error"):
        return [sweep["error"]]
    found = []
    if sweep["rc"] != 0:
        found.append(f"cli.main returned {sweep['rc']}")
    if "report_error" in sweep:
        return found + [f"report: {sweep['report_error']}"]
    if sweep["status"] != "pass":
        found.append(f"status {sweep['status']}")
    checks = tuple(map(tuple, sweep["checks"]))
    if checks != workload.pinned:
        wrong = sorted(set(checks) ^ set(workload.pinned))
        found.append(f"checks differ from the pinned table: {wrong}")
    return found


def cross_check(untraced: dict, traced: dict) -> list[str]:
    """Traced call counts against the report counts, and byte identity."""
    found = []
    counts = Counter()
    for _, check, _, count in traced["checks"]:
        counts[check] += count
    for function, check in CROSS_CHECKS:
        calls = traced["trace"]["functions"][function]["calls"]
        if calls != counts[check]:
            found.append(f"{function}.calls is {calls}, the report counts "
                         f"{counts[check]} {check}")
    if traced.get("sha256") != untraced.get("sha256"):
        found.append("traced report differs from the untraced one")
    return found


def _median_metric(values: list, unit: str) -> dict:
    return {"value": statistics.median(values) if values else None,
            "unit": unit, "samples": values}


def end_to_end(run: Run, seconds: float) -> tuple[dict, list]:
    setups = [run.setup() for _ in range(SETUP_REPEATS)]
    sweeps, started, last = [], time.monotonic(), 0.0
    while not sweeps or run.keep_going(started, seconds, last):
        t0 = time.monotonic()
        sweep = run.child("sweep")
        last = time.monotonic() - t0
        sweep["problems"] = problems(run.workload, sweep)
        if sweeps and sweep.get("sha256") != sweeps[0].get("sha256"):
            sweep["problems"].append("report differs from the run's first sweep")
        sweeps.append(sweep)
    good = [s for s in sweeps if not s["problems"]]
    samples = {
        "sweep_s": [s["sweep_s"] for s in good],
        "checks_per_s": [sum(c[3] for c in s["checks"]) / s["sweep_s"]
                         for s in good],
        "setup_s": setups + [s["setup_s"] for s in sweeps if "setup_s" in s],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
    }
    return {name: _median_metric(samples[name], unit)
            for name, unit in END_TO_END.items()}, sweeps


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Run, seconds: float) -> tuple[dict, list]:
    pairs, sweeps, started, last = [], [], time.monotonic(), 0.0
    while not sweeps or run.keep_going(started, seconds, last):
        t0 = time.monotonic()
        untraced, traced = run.child("sweep"), run.child("trace")
        last = time.monotonic() - t0
        untraced["problems"] = problems(run.workload, untraced)
        traced["problems"] = problems(run.workload, traced)
        if not traced["problems"]:
            traced["problems"] = cross_check(untraced, traced)
        sweeps += [untraced, traced]
        if not untraced["problems"] and not traced["problems"]:
            pairs.append((untraced, traced))
    if not pairs:
        return {name: {"value": None, "unit": unit, "samples": []}
                for name, unit in per_layer_units().items()}, sweeps
    first = pairs[0][1]["trace"]["functions"]
    for _, traced in pairs[1:]:
        if any(traced["trace"]["functions"][f]["calls"] != first[f]["calls"]
               for f in TRACED):
            traced["problems"].append("call counts differ between traced sweeps")
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = {"value": first[name]["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = _median_metric(
            [t["trace"]["functions"][name]["self_s"] for _, t in pairs], "s")
    for module in LAYERS:
        errors = sum(v["errors"] for k, v in first.items()
                     if k.startswith(module + "."))
        metrics[f"{module}.errors"] = {"value": errors, "unit": "count"}
    trace = pairs[0][1]["trace"]
    calls = {name: first[name]["calls"] for name in TRACED}
    systems = len(run.workload.config["systems"])
    ratios = {
        "weyl.random_element.distinct_frac":
            _ratio(trace["distinct_draws"], calls["weyl.random_element"]),
        "tits.multiply_per_cocycle":
            _ratio(calls["tits.multiply"], calls["tits.cocycle"]),
        "tits.distinct_pair_frac":
            _ratio(trace["distinct_pairs"], calls["tits.check_cocycle_formula"]),
        "affine.omega_group_per_system":
            _ratio(calls["affine.omega_group"], systems),
        "chevalley.build_constants_per_system":
            _ratio(calls["chevalley.build_constants"], systems),
    }
    for name, value in ratios.items():
        metrics[name] = {"value": value, "unit": "ratio"}
    metrics["trace.overhead_frac"] = _median_metric(
        [t["sweep_s"] / u["sweep_s"] - 1 for u, t in pairs], "ratio")
    return metrics, sweeps


def provenance(root: Path, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "machine": platform.machine(),
            "seed": seed}


def measure(root: Path, workload, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; raises SetupError when the program cannot start."""
    run = Run(root, workload, seed)
    try:
        run.setup()  # unmeasured: compiles bytecode and proves the import works
        measure_fn = per_layer if trace else end_to_end
        metrics, sweeps = measure_fn(run, seconds)
    finally:
        run.close()
    failed = sum(1 for s in sweeps if s["problems"])
    result = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "seconds": seconds, "provenance": provenance(root, seed),
        "attempted": len(sweeps), "failed": failed, "metrics": metrics,
        "fail_frac": failed / len(sweeps),
        "sweeps": [{k: s.get(k) for k in ("setup_s", "sweep_s", "peak_rss_mb",
                                          "rc", "sha256", "problems")}
                   for s in sweeps],
    }
    if trace:
        result["spans"] = str((run.spans / workload.name).relative_to(root))
    out = root / ".benchwork" / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{workload.name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    result["path"] = str(path.relative_to(root))
    return result


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_result(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"{result['workload']}  seed {result['seed']}  {mode}  "
          f"{result['attempted']} sweeps  fail_frac {_fmt(result['fail_frac'])} "
          f"({result['failed']} of {result['attempted']})")
    for name, metric in result["metrics"].items():
        samples = " ".join(_fmt(v) for v in metric.get("samples", []))
        print(f"  {name:<44} {_fmt(metric['value']):>12} {metric['unit']:<6} {samples}")
    for i, sweep in enumerate(result["sweeps"], 1):
        for problem in sweep["problems"]:
            print(f"  sweep {i} FAILED: {problem}")
    prov = result["provenance"]
    print(f"  commit {prov['commit']}  source {prov['source_sha256'][:12]}  "
          f"python {prov['python']}  nproc {prov['nproc']}  {prov['platform']}")
    print(f"  raw samples: {result['path']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }), flush=True)


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    root = BENCH.parent
    if not (root / "src" / "weylrep" / "__init__.py").is_file():
        print(f"error: no weylrep sources under {root / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.trace is None else (args.trace,)
    status = 0
    for name in names:
        for trace in modes:
            try:
                result = measure(root, workloads[name], args.seed, args.seconds,
                                 trace)
            except SetupError as exc:
                print(f"error: cannot set up weylrep: {exc}", file=sys.stderr)
                return 2
            print_result(result)
            if result["failed"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
