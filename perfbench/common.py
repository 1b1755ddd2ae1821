"""Constants shared by the benchmark, its workloads and its pin script."""

GRID = (15, 15)
SCALE = "paper"

#: Designs of each design workload.  bc is left out everywhere, and mc
#: is left out of paper-fast, only for run length: a full benchmark
#: round runs every workload 22 times within a fixed time budget, and bc
#: alone costs ~8 s cold plus ~4.5 s per rerun on the fast engine (~21 s
#: of codegen emission).
FAST_DESIGNS = ("vta", "noc", "mm", "rv32r", "cgra", "blur", "jpeg")
CODEGEN_DESIGNS = ("jpeg", "vta", "cgra", "blur")
SHARDED_DESIGNS = ("noc", "mm", "rv32r", "mc")
#: ``repro.serve.client.DEFAULT_CATALOG``, at the paper tier.
SERVE_DESIGNS = ("mm", "cgra", "noc", "mc")

PIN_DESIGNS = tuple(sorted(set(FAST_DESIGNS) | set(CODEGEN_DESIGNS)
                           | set(SHARDED_DESIGNS) | set(SERVE_DESIGNS)))

#: Shards of paper-sharded and pool workers of serve-zipf (nproc = 2).
SHARDS = 2
SERVE_WORKERS = 2

#: Rerun rounds every design workload makes even when its cold pass
#: alone fills the measuring window (the traced pass alternates traced
#: and untraced rounds, so it needs two of each).
MIN_RERUN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4

#: serve-zipf: a cold burst (one job per catalog design on an empty
#: cache, all at once), then open-loop arrivals on the warm cache at
#: this fixed rate, about 45% of the ~2.6 jobs/s the server completes
#: warm when every job is submitted at once, for SERVE_WINDOW_SCALE
#: times the measuring window: at a higher rate or over fewer jobs the
#: latencies of two seeds differ by more than the bounds allow.
SERVE_RATE_PER_S = 1.2
SERVE_WINDOW_SCALE = 1.25
#: Open-loop jobs of each catalog design on top of the zipf draws.
SERVE_JOBS_PER_DESIGN = 3
#: Latency limit on ``job_p75_s`` (a failed job counts as missing it).
SERVE_LATENCY_LIMIT_S = 5.0
#: zipf exponent and tenants of ``plan_load`` (its defaults).
SERVE_ZIPF_S = 1.1
SERVE_TENANTS = 4

#: Circuit builds and pin loads repeated in set-up; ``setup_s`` uses
#: their median.
SETUP_REPEATS = 5
#: Fresh interpreters that time the imports again in set-up; ``setup_s``
#: uses the median import time over them and the benchmark's process.
IMPORT_REPEATS = 2
