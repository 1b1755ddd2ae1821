"""paper-fast, paper-codegen and paper-sharded: time-to-``$finish``.

Each workload compiles its designs for the 15x15 machine on an empty
compile cache and runs each to ``$finish`` once (the cold pass), then
reruns every design on a fresh ``Machine`` (or ``ShardedMachine``) over
the already compiled program until the measuring window is spent (the
warm pass).  Every run is split from outside into the verification
Vcycles (``run(verify)``) and the trusted Vcycles (``run(budget)``),
and checked against the strict-engine pins.
"""

from __future__ import annotations

import gc
import math
import os
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

from common import MIN_RERUN_ROUNDS, MIN_TRACED_ROUNDS
from spans import NullRecorder, Recorder

from repro.compiler.driver import CompilerOptions, compile_circuit
from repro.machine import shard as shard_module
from repro.machine.grid import Machine
from repro.machine.shard import ShardedMachine
from repro.obs.trace import use_tracer
from repro.serve.jobs import state_digest

#: The compile-cache phases reported as ``compiler.<phase>_s``.
COMPILE_PHASES = ("opt", "lower", "parallelize", "custom", "schedule",
                  "regalloc")
#: Simulated counters that must repeat exactly.
SIM_COUNTERS = ("vcycles", "compute_cycles", "stall_cycles",
                "instructions", "messages", "exceptions")


@dataclass
class Finish:
    """One run to ``$finish``, timed from outside."""

    seconds: float              # Machine construction -> run() returns
    verify_vcycles: int
    trusted_vcycles: int
    trusted_s: float
    finished: bool
    counters: dict
    digest: str


class DesignWorkload:
    """One of the three design workloads, for one seed."""

    def __init__(self, setup, engine: str, shards: int, seed: int,
                 seconds: float, traced: bool) -> None:
        self.setup = setup
        self.engine = engine
        self.shards = shards
        self.seconds = seconds
        self.traced = traced
        # The cold pass keeps the canonical order: its time depends on
        # the order (one order ran ~15% slower than others on
        # paper-codegen, run after run), which would make seeds differ.
        # The seed permutes the rerun order.
        self.order = list(setup.designs)
        self.rerun_order = list(setup.designs)
        random.Random(seed).shuffle(self.rerun_order)
        self.rec = Recorder() if traced else NullRecorder()
        self.verify_vcycles = setup.config.fastpath_verify_vcycles
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cache_ok = True
        self.cold_emits = 0
        self.boundary: dict[str, tuple[int, int]] = {}

    # -- one run -------------------------------------------------------
    def _finish(self, name: str, program, rec) -> Finish:
        config = self.setup.config
        budget = self.setup.pins[name]["budget"]
        t0 = time.perf_counter()
        if self.shards:
            with rec.span("shard.spawn"):
                machine = ShardedMachine(program, config,
                                         shards=self.shards,
                                         engine=self.engine,
                                         transport="process")
        else:
            with rec.span("machine.new"):
                machine = Machine(program, config, engine=self.engine)
        try:
            with rec.span("machine.verify"):
                first = machine.run(self.verify_vcycles)
                verified = first.vcycles
            t1 = time.perf_counter()
            with rec.span("machine.trusted"):
                result = machine.run(budget)
            t2 = time.perf_counter()
            with rec.span("machine.digest"):
                digest = state_digest(machine)
        finally:
            if self.shards:
                machine.close()
        return Finish(seconds=t2 - t0, verify_vcycles=verified,
                      trusted_vcycles=result.vcycles - verified,
                      trusted_s=t2 - t1, finished=result.finished,
                      counters=result.counters.as_dict(), digest=digest)

    def _check(self, name: str, run: Finish, what: str,
               problems: list[str]) -> None:
        """Check one run to ``$finish`` against the pins."""
        pin = self.setup.pins[name]
        if not self.setup.inputs_ok[name]:
            problems.append("circuit fingerprint differs from the pin")
        if not run.finished:
            problems.append("no $finish within the budget")
        if run.digest != pin["state_digest"]:
            problems.append("state_digest differs from the pin")
        if run.counters != pin["counters"]:
            problems.append(f"counters {run.counters} differ from the pin "
                            f"{pin['counters']}")
        if problems:
            self._failed(name, what, "; ".join(problems))

    def _failed(self, name: str, what: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{name} {what}: {why}")

    def _emitted(self) -> int:
        """Codegen sources published so far (one per emission)."""
        return len(os.listdir(self.setup.codegen_cache))

    def _cache_claim(self, ok: bool, claim: str,
                     problems: list[str]) -> None:
        if not ok:
            self.cache_ok = False
            problems.append(f"cache state: expected {claim}")

    # -- the workload --------------------------------------------------
    def run(self) -> dict:
        """Cold-run each design in turn, then rerun rounds until the
        window is spent.  After each cold run, rerun rounds of the
        designs compiled so far run until they have taken half the time
        the cold runs took: this host's speed swings by
        up to 1.6x over tens of seconds, so reruns spread over the whole
        run vary less than reruns bunched at its end."""
        setup = self.setup
        options = CompilerOptions(config=setup.config,
                                  cache_dir=setup.compile_cache)
        if os.listdir(setup.compile_cache) or self._emitted():
            raise RuntimeError("caches are not empty before the cold pass")
        restore = self._wrap_partition() if self.traced and self.shards \
            else None
        cold: dict[str, tuple] = {}
        rounds: list[dict] = []
        self.traced_walls: list[tuple[float, float]] = []
        minimum = MIN_TRACED_ROUNDS if self.traced else MIN_RERUN_ROUNDS
        try:
            t_start = time.perf_counter()
            cold_s = 0.0
            for i, name in enumerate(self.order, 1):
                t0 = time.perf_counter()
                with self._traced(True):
                    self._cold_run(name, options, cold)
                t1 = time.perf_counter()
                cold_s += t1 - t0
                if self.traced:
                    self.traced_walls.append((t0, t1))
                while cold and sum(r["wall"] for r in rounds) < cold_s / 2:
                    rounds.append(self._rerun_round(
                        cold, len(rounds), full=i == len(self.order)))
            with self._traced(True):
                warm_hits = self._warm_check(options, cold)
            while True:
                full = sum(r["full"] for r in rounds)
                left = self.seconds - (time.perf_counter() - t_start)
                if full >= minimum and left < rounds[-1]["wall"] / 2:
                    break
                rounds.append(self._rerun_round(cold, len(rounds),
                                                full=True))
        finally:
            if restore is not None:
                restore()
        return self._metrics(cold, warm_hits, rounds)

    def _traced(self, traced: bool):
        return use_tracer(self.rec) if self.traced and traced \
            else nullcontext()

    def _cold_run(self, name: str, options, cold: dict) -> None:
        setup, rec = self.setup, self.rec
        emitted = self._emitted()
        settle()
        self.attempted += 1
        try:
            with rec.span("op", op=name, kind="cold"):
                t0 = time.perf_counter()
                compiled = compile_circuit(setup.circuits[name], options)
                compile_s = time.perf_counter() - t0
                run = self._finish(name, compiled.program, rec)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            self._failed(name, "cold", f"{type(exc).__name__}: {exc}")
            return
        problems: list[str] = []
        status = (compiled.report.cache or {}).get("status")
        self._cache_claim(status == "miss", f"a compile miss (got "
                          f"{status})", problems)
        emits = self._emitted() - emitted
        self.cold_emits += emits
        want = 1 if self.engine == "codegen" else 0
        self._cache_claim(emits == want, f"{want} codegen emission(s) "
                          f"(got {emits})", problems)
        if compiled.report.vcpl != setup.pins[name]["vcpl"]:
            problems.append(f"VCPL {compiled.report.vcpl} differs from "
                            f"the pin")
        self._check(name, run, "cold", problems)
        cold[name] = (compile_s + run.seconds, run, compiled)

    def _warm_check(self, options, cold: dict) -> int:
        """One compile-cache lookup per design: the cache must be warm.
        Returns the hits."""
        hits = 0
        with self.rec.span("warm.lookup"):
            for name in cold:
                compiled = compile_circuit(self.setup.circuits[name],
                                           options)
                status = (compiled.report.cache or {}).get("status")
                hits += status == "hit"
                problems: list[str] = []
                self._cache_claim(status == "hit", f"a warm compile hit "
                                  f"(got {status})", problems)
                self.failures.extend(f"{name} lookup: {p}"
                                     for p in problems)
        return hits

    def _rerun_round(self, cold: dict, index: int, full: bool) -> dict:
        """One fresh machine per compiled design, in the seeded order;
        ``full`` once every design had its cold run.  The traced pass
        traces every other round."""
        traced = self.traced and index % 2 == 0
        rec = self.rec if traced else NullRecorder()
        runs = {}
        t0 = time.perf_counter()
        with self._traced(traced):
            for name in self.rerun_order:
                if name not in cold:
                    continue
                emitted = self._emitted()
                gc.collect()
                self.attempted += 1
                try:
                    with rec.span("op", op=name, kind="rerun"):
                        run = self._finish(name, cold[name][2].program, rec)
                except Exception as exc:  # noqa: BLE001
                    self._failed(name, "rerun",
                                 f"{type(exc).__name__}: {exc}")
                    continue
                problems: list[str] = []
                self._cache_claim(self._emitted() == emitted,
                                  "no codegen emission", problems)
                self._check(name, run, "rerun", problems)
                runs[name] = run
        t1 = time.perf_counter()
        if traced:
            self.traced_walls.append((t0, t1))
        return {"wall": t1 - t0, "traced": traced, "runs": runs,
                "full": full}

    # -- metrics -------------------------------------------------------
    def _metrics(self, cold, warm_hits, rounds) -> dict:
        # The best rerun of each design: the host's speed swings by up
        # to 1.6x over tens of seconds, and the fastest rerun moves with
        # it far less than the median does.
        rerun = {name: runs for name in cold
                 if (runs := [r["runs"][name] for r in rounds
                              if name in r["runs"]])}
        e2e = {
            "first_finish_s": sum(c[0] for c in cold.values()),
            "rerun_finish_s": sum(min(f.seconds for f in runs)
                                  for runs in rerun.values()),
            "trusted_vcycles_per_s": geomean([
                max(f.trusted_vcycles / f.trusted_s for f in runs)
                for runs in rerun.values()]),
            "vcpl": geomean([c[2].report.vcpl for c in cold.values()]),
        }
        state = {
            "compile_cache": "cold pass: empty dir, one miss per design; "
                             "warm lookups: one hit per design",
            "codegen_cache": ("cold pass: empty dir, one emission per "
                              "design; reruns: in-process memo, no "
                              "emission" if self.engine == "codegen" else
                              "unused (no emission)"),
            "rerun_rounds": len(rounds),
            "holds": self.cache_ok,
        }
        layers = self._layers(cold, warm_hits, rounds) \
            if self.traced else {}
        return {"e2e": e2e, "layers": layers, "cache_state": state,
                "attempted": self.attempted, "failed": self.failed,
                "failures": self.failures,
                "self_times": (self.rec.self_times()
                               if self.traced else {})}

    def _layers(self, cold, warm_hits, rounds) -> dict:
        rec = self.rec
        per_op = rec.per_root("op")
        cold_ops = [per_op[i] for i, s in enumerate(rec.spans)
                    if s.name == "op" and s.args.get("kind") == "cold"]
        rerun_ops: dict[str, list[dict]] = {}
        for i, s in enumerate(rec.spans):
            if s.name == "op" and s.args.get("kind") == "rerun":
                rerun_ops.setdefault(s.op, []).append(per_op[i])

        def cold_sum(name: str) -> float:
            return sum(op.get(name, 0.0) for op in cold_ops)

        def rerun_pass(name: str) -> float:
            """Per rerun pass: sum over designs of the median."""
            return sum(statistics.median(op.get(name, 0.0) for op in ops)
                       for ops in rerun_ops.values())

        def build_s(op: dict) -> float:
            return (op.get("machine.fastpath.compile", 0.0)
                    + op.get("machine.codegen.compile", 0.0))

        def verify_self(op: dict) -> float:
            # run(verify) builds the compiled artifact at its end
            return op.get("machine.verify", 0.0) - build_s(op)

        traced_walls = [r["wall"] for r in rounds
                        if r["traced"] and r["full"]]
        plain_walls = [r["wall"] for r in rounds
                       if not r["traced"] and r["full"]]
        cold_runs = [c[1] for c in cold.values()]
        reports = [c[2].report for c in cold.values()]
        layers = {
            "compiler.compile_s": cold_sum("compile"),
            "compiler.cache.hits": warm_hits,
            "compiler.cache.misses": sum(
                1 for r in reports if r.cache["status"] == "miss"),
            "compiler.cache.lookup_s": rec.total("compile.cache.lookup"),
            "machine.fastpath.build_s": rerun_pass(
                "machine.fastpath.compile"),
            "machine.codegen.emit_s": cold_sum("machine.codegen.compile"),
            "machine.codegen.emits": self.cold_emits,
            "machine.codegen.memo_hits": sum(
                1 for ops in rerun_ops.values() for op in ops
                if "machine.codegen.compile" in op),
            "machine.verify_s": sum(
                statistics.median(verify_self(op) for op in ops)
                for ops in rerun_ops.values()),
            "machine.verify_vcycles": sum(f.verify_vcycles
                                          for f in cold_runs),
            "machine.trusted_s": rerun_pass("machine.trusted"),
            "machine.trusted_vcycles": sum(f.trusted_vcycles
                                           for f in cold_runs),
            "machine.digest_s": rerun_pass("machine.digest"),
            "shard.partition_s": rerun_pass("shard.partition"),
            "shard.boundary_channels": sum(
                b[0] for b in self.boundary.values()),
            "shard.boundary_sends": sum(b[1] for b in self.boundary.values()),
            "shard.spawn_s": (rerun_pass("shard.spawn")
                              - rerun_pass("shard.partition")),
            "shard.run_s": (rerun_pass("machine.verify")
                            + rerun_pass("machine.trusted")
                            if self.shards else 0.0),
            "trace.accounted_ratio": (
                sum(rec.covered(a, b) for a, b in self.traced_walls)
                / sum(b - a for a, b in self.traced_walls)),
            "trace.overhead_ratio": (statistics.median(traced_walls)
                                     / statistics.median(plain_walls)),
        }
        for phase in COMPILE_PHASES:
            layers[f"compiler.{phase}_s"] = cold_sum(f"compile.{phase}")
        for counter in SIM_COUNTERS:
            layers[f"sim.{counter}"] = sum(f.counters[counter]
                                           for f in cold_runs)
        return layers

    def _wrap_partition(self):
        """Time ``partition()`` inside ``ShardedMachine`` construction
        and keep its boundary counts; returns the undo callable."""
        original = shard_module.partition
        rec, boundary = self.rec, self.boundary

        def timed_partition(program, config, n_shards):
            with rec.span("shard.partition") as s:
                plan = original(program, config, n_shards)
            channels = sum(len(spec.out_channels) for spec in plan.specs)
            if s is not None:
                boundary[s.op] = (channels, plan.boundary_sends())
            return plan

        shard_module.partition = timed_partition

        def restore() -> None:
            shard_module.partition = original
        return restore


def settle() -> None:
    """Collect, then freeze every live object (the circuits, compiled
    programs and kernels made so far) out of the collector's reach, so
    the ``gc.collect()`` before each rerun only walks the previous run's
    garbage (a full collection over the compiled programs costs ~50 ms,
    half a codegen rerun round) and a cold compile does not walk the
    programs compiled before it, as in a process that compiles one
    design."""
    gc.collect()
    gc.freeze()


def geomean(values: list[float]) -> float:
    """Geometric mean, 0.0 when there are no values (every run failed)."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
