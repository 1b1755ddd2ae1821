"""serve-zipf: a multi-tenant load on ``SimulationServer``.

A cold burst (one job per paper-tier ``DEFAULT_CATALOG`` design, all at
once on the server's empty cache) is followed by an open loop on the
warm cache.  The open-loop plan comes from
``repro.serve.client.plan_load`` (zipf 1.1, 4 tenants, tenant-0 at
priority 2).  Arrivals are a seeded Poisson process at a fixed offered
rate, conditioned on the job count, so the whole schedule is known
before the run: each job is submitted at its due time, whatever the
server is doing, and its latency is timed from that due time.  How late
the generator submitted is reported as its lag.
"""

from __future__ import annotations

import asyncio
import os
import random
import statistics
import time

from common import (SERVE_DESIGNS, SERVE_JOBS_PER_DESIGN,
                    SERVE_LATENCY_LIMIT_S, SERVE_RATE_PER_S, SERVE_TENANTS,
                    SERVE_WINDOW_SCALE, SERVE_WORKERS, SERVE_ZIPF_S)
from design_workloads import COMPILE_PHASES, SIM_COUNTERS, geomean
from spans import NullRecorder, Recorder, percentile

from repro.compiler.cache import CompileCache
from repro.obs.trace import use_tracer
from repro.pool import PersistentPool, WorkerLease
from repro.serve import server as server_module
from repro.serve.client import plan_load
from repro.serve.server import SimulationServer

#: How long past the last due time the run waits for stragglers before
#: it counts them as failed.
GRACE_S = 30.0


def arrival_schedule(seed: int, jobs: int, rate: float) -> list[float]:
    """Due offsets (s) of ``jobs`` Poisson arrivals at ``rate``/s,
    conditioned on all of them landing in ``jobs / rate`` seconds: such
    arrivals are independent uniform times over the window, sorted."""
    rng = random.Random(f"serve-arrivals-{seed}")
    window = jobs / rate
    return sorted(rng.uniform(0.0, window) for _ in range(jobs))


class ServeWorkload:
    def __init__(self, setup, seed: int, seconds: float,
                 traced: bool) -> None:
        self.setup = setup
        self.traced = traced
        # One job per catalog design, tenants and priorities as in
        # plan_load: submitted all at once on the empty cache it is the
        # cold burst; mixed SERVE_JOBS_PER_DESIGN times into the open
        # loop it gives every design that many warm latencies, whatever
        # the zipf draws (a seed can draw a design never).
        self.burst = [{"design": design,
                       "tenant": f"tenant-{i % SERVE_TENANTS}",
                       "priority": 2 if i % SERVE_TENANTS == 0 else 1}
                      for i, design in enumerate(SERVE_DESIGNS)]
        forced = self.burst * SERVE_JOBS_PER_DESIGN
        jobs = max(len(forced),
                   round(SERVE_RATE_PER_S * seconds * SERVE_WINDOW_SCALE))
        plan = plan_load(jobs - len(forced), zipf_s=SERVE_ZIPF_S,
                         tenants=SERVE_TENANTS, seed=seed,
                         designs=SERVE_DESIGNS) + forced
        random.Random(seed).shuffle(plan)
        self.plan = plan
        self.due = arrival_schedule(seed, jobs, SERVE_RATE_PER_S)

    def run(self) -> dict:
        untraced = asyncio.run(self._pass(NullRecorder()))
        if not self.traced:
            return untraced | {"layers": {}}
        rec = Recorder()
        restore = _install_wrappers(rec)
        try:
            with use_tracer(rec):
                traced = asyncio.run(self._pass(rec))
        finally:
            restore()
        traced["layers"] = self._layers(rec, traced, untraced)
        traced["self_times"] = rec.self_times()
        traced["attempted"] += untraced["attempted"]
        traced["failed"] += untraced["failed"]
        traced["failures"] += untraced["failures"]
        return traced

    # -- one pass: cold burst, then open loop ---------------------------
    async def _pass(self, rec) -> dict:
        server = SimulationServer(workers=SERVE_WORKERS, mode="process",
                                  config=self.setup.config)
        async with server:
            if any(server.cache_dir.iterdir()):
                raise RuntimeError("serve compile cache is not empty")
            phases = {}
            t0 = time.perf_counter()
            phases["cold"] = (t0, await asyncio.gather(*(
                self._arrive(server, rec, t0, entry, t0 + GRACE_S)
                for entry in self.burst)))
            t0 = time.perf_counter()
            deadline = t0 + self.due[-1] + GRACE_S
            phases["open"] = (t0, await asyncio.gather(*(
                self._arrive(server, rec, t0 + due, entry, deadline)
                for due, entry in zip(self.due, self.plan))))
            artifacts = CompileCache(server.cache_dir)
            keys = {r["cache_key"] for r in phases["cold"][1]
                    if r["cache_key"]}
            vcpls = [artifacts.get(key).report.vcpl for key in keys]
            counter = dict(server.counter)
        return self._summarise(phases, vcpls, counter)

    async def _arrive(self, server, rec, due_at: float, entry: dict,
                      deadline: float) -> dict:
        delay = due_at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        submitted = time.perf_counter()
        design = entry["design"]
        job = await server.submit(
            tenant=entry["tenant"], design=design,
            circuit=self.setup.circuits[design],
            cycles=self.setup.pins[design]["budget"],
            priority=entry["priority"])
        try:
            await server.wait(job.id,
                              timeout=max(0.0, deadline - time.perf_counter()))
        except asyncio.TimeoutError:
            pass
        done = time.perf_counter()
        rec.add("serve.job", due_at, done, op=f"job-{job.id:06d}")
        return {"design": design, "due": due_at, "lag": submitted - due_at,
                "done": done, "state": job.state, "result": job.result,
                "error": job.error, "cache_key": job.cache_key,
                "cache": (job.cache or {}).get("status")}

    def _summarise(self, phases: dict, vcpls: list[int],
                   counter: dict) -> dict:
        """Metrics over the jobs that passed every check; a failed job
        counts in ``failed`` and as over the latency limit."""
        failures: list[str] = []
        sim = dict.fromkeys(SIM_COUNTERS, 0)
        # A warm lookup that overlaps another job's lookup of the same
        # key shares it in flight; either way nothing compiles.
        want = {"cold": ("miss",), "open": ("hit", "shared")}
        cache_ok = True
        passed: dict[str, list[dict]] = {}
        for phase, (_, records) in phases.items():
            passed[phase] = []
            for r in records:
                problems = [p for p in (self._problem(r),) if p]
                if r["cache"] not in want[phase]:
                    cache_ok = False
                    problems.append(f"cache state: expected a compile "
                                    f"{' or '.join(want[phase])} (got "
                                    f"{r['cache']})")
                if problems:
                    failures.append(f"{r['design']} {phase} job: "
                                    + "; ".join(problems))
                    continue
                passed[phase].append(r)
                for key in SIM_COUNTERS:
                    sim[key] += r["result"]["counters"][key]

        cold_t0, cold_records = phases["cold"]
        open_records = phases["open"][1]
        open_lat = [r["done"] - r["due"] for r in passed["open"]]
        by_design: dict[str, list[dict]] = {}
        for r in passed["open"]:
            by_design.setdefault(r["design"], []).append(r)
        first_due = min(r["due"] for r in open_records)
        span = max(r["done"] for r in open_records) - first_due
        # The best warm job of each design, as the design workloads take
        # the best rerun: the median open-loop latency also carries the
        # queue, which this host's speed swings move by more than the
        # bounds allow; it is reported as serve.job_p50_s.
        e2e = {
            "first_finish_s": max(r["done"] for r in cold_records) - cold_t0,
            "rerun_finish_s": sum(
                min(r["done"] - r["due"] for r in jobs)
                for jobs in by_design.values()),
            "trusted_vcycles_per_s": geomean([
                max(r["result"]["vcycles"] / (r["done"] - r["due"])
                    for r in jobs)
                for jobs in by_design.values()]),
            "vcpl": geomean(vcpls),
        }
        open_stats = {
            "serve.job_p50_s": percentile(open_lat, 0.50),
            "serve.job_p75_s": percentile(open_lat, 0.75),
            "serve.jobs_per_s": len(open_lat) / span,
            "serve.jobs_over_limit": (
                len(open_records) - len(open_lat)
                + sum(1 for x in open_lat if x > SERVE_LATENCY_LIMIT_S)),
        }
        return {
            "e2e": e2e,
            "cache_state": {
                "compile_cache": "fresh server dir; cold burst: one miss "
                                 "per design; open loop: every job a hit "
                                 "or a shared in-flight lookup",
                "codegen_cache": "unused (fast engine)",
                "open_loop_jobs": len(open_records), "holds": cache_ok,
                "offered_rate_per_s": SERVE_RATE_PER_S,
                "latency_limit_s": SERVE_LATENCY_LIMIT_S,
            } | open_stats,
            "attempted": len(cold_records) + len(open_records),
            "failed": len(failures),
            "failures": failures,
            "counter": counter, "sim": sim, "open_latencies": open_lat,
            "open_stats": open_stats,
            "lags": [r["lag"] for r in open_records],
            "window": (cold_t0, max(r["done"] for r in open_records)),
        }

    def _problem(self, r: dict) -> str | None:
        pin = self.setup.pins[r["design"]]
        result = r["result"]
        if r["state"] != "done":
            return f"ended {r['state']} ({r['error']})"
        if not self.setup.inputs_ok[r["design"]]:
            return "circuit fingerprint differs from the pin"
        if not result["finished"]:
            return "no $finish within the budget"
        if result["state_sha256"] != pin["state_digest"]:
            return "state_sha256 differs from the pin"
        if result["counters"] != pin["counters"]:
            return (f"counters {result['counters']} differ from the pin "
                    f"{pin['counters']}")
        return None

    # -- traced pass ---------------------------------------------------
    def _layers(self, rec: Recorder, traced: dict, untraced: dict) -> dict:
        counter = traced["counter"]
        miss = [s for s in rec.spans if s.name == "serve.compile"
                and s.args.get("status") == "miss"]
        hits = [s for s in rec.spans if s.name == "serve.compile"
                and s.args.get("status") == "hit"]
        start, end = traced["window"]
        layers = traced["open_stats"] | {
            "compiler.compile_s": sum(s.duration for s in miss),
            "compiler.cache.hits": len(hits),
            "compiler.cache.misses": len(miss),
            "compiler.cache.lookup_s": rec.total("compile.cache.lookup"),
            "serve.submitted": counter["submitted"],
            "serve.compiles": counter["compiles"],
            "serve.cache_hits": counter["cache_hits"],
            "serve.inflight_shared": counter["inflight_shared"],
            "serve.dedupe_ratio": ((counter["cache_hits"]
                                    + counter["inflight_shared"])
                                   / counter["submitted"]),
            "serve.preemptions": counter["preempted"],
            "serve.retries": counter["retried"],
            "serve.generator_lag_p90_s": percentile(traced["lags"], 0.90),
            "pool.lease_wait_s": rec.total("pool.lease"),
            "pool.chunks": rec.count("pool.chunk"),
            "pool.chunk_s": rec.total("pool.chunk"),
            "trace.accounted_ratio": rec.covered(start, end) / (end - start),
            "trace.overhead_ratio": (
                statistics.fmean(traced["open_latencies"])
                / statistics.fmean(untraced["open_latencies"])),
        }
        for phase in COMPILE_PHASES:
            layers[f"compiler.{phase}_s"] = rec.total(f"compile.{phase}")
        for key, value in traced["sim"].items():
            layers[f"sim.{key}"] = value
        return layers


def _install_wrappers(rec: Recorder):
    """Time the ``compile_circuit``, ``PersistentPool.lease`` and
    ``WorkerLease.run`` calls the server makes; returns the undo."""
    compile_circuit = server_module.compile_circuit
    lease = PersistentPool.lease
    lease_run = WorkerLease.run

    def timed_compile(circuit, options=None):
        with rec.span("serve.compile", op=circuit.name) as s:
            result = compile_circuit(circuit, options)
            s.args["status"] = (result.report.cache or {}).get("status")
        return result

    def timed_lease(self):
        with rec.span("pool.lease"):
            return lease(self)

    def timed_run(self, fn, request):
        # the job's checkpoint dir, job-NNNNNN, names the job
        op = os.path.basename(request["ckpt_dir"])
        with rec.span("pool.chunk", op=op):
            return lease_run(self, fn, request)

    server_module.compile_circuit = timed_compile
    PersistentPool.lease = timed_lease
    WorkerLease.run = timed_run

    def restore() -> None:
        server_module.compile_circuit = compile_circuit
        PersistentPool.lease = lease
        WorkerLease.run = lease_run
    return restore
