"""The repository's benchmark: time-to-``$finish`` on the paper's 15x15
machine, cold and warm, solo, sharded and served, broken down by layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper-fast --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced pass instead and prints every per-layer
metric.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a report with the host, the cache state and the layer
self times.  Every run is a fresh process whose caches are new empty
directories under ``.perfbench-tmp/`` in the working directory, removed
at exit.  See ``perfbench/README.md`` for the metric definitions.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (CODEGEN_DESIGNS, FAST_DESIGNS, GRID,  # noqa: E402
                    IMPORT_REPEATS, SCALE, SERVE_DESIGNS, SETUP_REPEATS,
                    SHARDED_DESIGNS, SHARDS)

HERE = Path(__file__).resolve().parent

#: workload -> (designs, engine, shards); serve jobs name no engine.
WORKLOADS = {
    "paper-fast": (FAST_DESIGNS, "fast", 0),
    "paper-codegen": (CODEGEN_DESIGNS, "codegen", 0),
    "paper-sharded": (SHARDED_DESIGNS, "fast", SHARDS),
    "serve-zipf": (SERVE_DESIGNS, None, 0),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Setup:
    """Everything made before the first timed call: imports, circuit
    builds and the pins.  Imports happen once per process; the builds
    and pin loads are repeated and their medians taken."""

    def __init__(self, designs: tuple[str, ...], scratch: Path) -> None:
        import design_workloads  # noqa: F401  (imports the layers)
        import serve_workload  # noqa: F401
        from repro.designs import DESIGNS
        from repro.machine.config import MachineConfig
        self.import_s = time.perf_counter() - T0

        builds, loads = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            circuits = {name: DESIGNS[name].build_at(SCALE)
                        for name in designs}
            t1 = time.perf_counter()
            pins = json.loads((HERE / "pins.json").read_text())["designs"]
            inputs_ok = {name: circuits[name].fingerprint()
                         == pins[name]["fingerprint"] for name in designs}
            t2 = time.perf_counter()
            builds.append(t1 - t0)
            loads.append(t2 - t1)
        self.designs = designs
        self.circuits = circuits
        self.pins = pins
        self.inputs_ok = inputs_ok
        self.config = MachineConfig(grid_x=GRID[0], grid_y=GRID[1])
        self.compile_cache = str(scratch / "compile-cache")
        self.codegen_cache = os.environ["REPRO_CODEGEN_CACHE"]
        os.makedirs(self.compile_cache)
        os.makedirs(self.codegen_cache)
        self.build_s = statistics.median(builds)
        self.load_s = statistics.median(loads)

    def seconds(self) -> float:
        """``setup_s``: the median import time over this process and
        fresh interpreters, plus the median build and pin load.  Called
        after the workload, because the interpreters are children of
        this process and must not count in ``peak_rss_mb``."""
        imported = [self.import_s]
        imported += [import_seconds() for _ in range(IMPORT_REPEATS)]
        return statistics.median(imported) + self.build_s + self.load_s


#: Run in a fresh interpreter: the imports of this process before its
#: first timed call, timed the same way (from this module's first line).
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); "
    "sys.path[:0] = [{here!r}, {src!r}]; "
    "import run, design_workloads, serve_workload; "
    "from repro.designs import DESIGNS; "
    "from repro.machine.config import MachineConfig; "
    "print(time.perf_counter() - t0)")


def import_seconds() -> float:
    """The imports' time in a fresh interpreter, which waits for it."""
    code = IMPORT_PROBE.format(here=str(HERE),
                               src=str(HERE.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def isolate(scratch: Path) -> None:
    """Point every cache and temp dir the program uses into ``scratch``
    (inherited by forked workers), so nothing reads ``~/.cache``."""
    tmp = scratch / "tmp"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["REPRO_COMPILE_CACHE"] = str(scratch / "compile-cache-env")
    os.environ["REPRO_CODEGEN_CACHE"] = str(scratch / "codegen-cache")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for
    child (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def host() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version()}


def run_workload(args, scratch: Path, spec: dict) -> dict:
    designs, engine, shards = WORKLOADS[args.workload]
    setup = Setup(designs, scratch)
    traced = bool(args.trace)
    if args.workload == "serve-zipf":
        from serve_workload import ServeWorkload
        out = ServeWorkload(setup, args.seed, args.seconds, traced).run()
    else:
        from design_workloads import DesignWorkload
        out = DesignWorkload(setup, engine, shards, args.seed,
                             args.seconds, traced).run()
    for line in out["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    if traced:
        values = {"designs.build_s": setup.build_s} | out["layers"]
        declared = spec["per_layer"]
    else:
        values = out["e2e"] | {"peak_rss_mb": peak_rss_mb()}
        values["setup_s"] = setup.seconds()
        declared = spec["end_to_end"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        value = values.get(name, 0.0)
        if name not in values and not traced:
            raise KeyError(f"workload {args.workload} did not measure "
                           f"{name}")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host(),
              "cache_state": out["cache_state"],
              "self_times_s": out.get("self_times", {})}
    result = {"correct": out["failed"] == 0 and not out["failures"],
              "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics}
    return {"report": report, "result": result}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("perfbench: run from the repository root; src/repro or "
              "BENCHMARK.json is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(root / "src"))
    scratch = root / ".perfbench-tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        isolate(scratch)
        outcome = run_workload(args, scratch, spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(outcome["report"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
