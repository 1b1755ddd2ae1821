"""Compute the 15x15 correctness pins the benchmark checks against.

For every design the benchmark runs, build the paper tier, compile it
for the 15x15 machine and run it to ``$finish`` on the strict engine
(the reference engine every other engine must match bit for bit).  The
circuit fingerprint, compiled VCPL, final ``state_digest`` and
``PerfCounters`` go to ``pins.json`` beside this file.  A speed-only
change to the simulator must leave every pinned value identical.

Run once from the repository root, and again only when a change is
meant to alter simulated behaviour::

    python3 perfbench/make_pins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import GRID, PIN_DESIGNS, SCALE  # noqa: E402


def main() -> int:
    from repro.compiler.driver import CompilerOptions, compile_circuit
    from repro.designs import DESIGNS
    from repro.machine.config import MachineConfig
    from repro.machine.grid import Machine
    from repro.serve.jobs import state_digest

    config = MachineConfig(grid_x=GRID[0], grid_y=GRID[1])
    pins = {}
    for name in PIN_DESIGNS:
        info = DESIGNS[name]
        circuit = info.build_at(SCALE)
        compiled = compile_circuit(circuit, CompilerOptions(config=config))
        machine = Machine(compiled.program, config, engine="strict")
        result = machine.run(info.cycles_at(SCALE))
        if not result.finished:
            raise SystemExit(f"{name}: no $finish within "
                             f"{info.cycles_at(SCALE)} Vcycles")
        pins[name] = {
            "fingerprint": circuit.fingerprint(),
            "vcpl": compiled.report.vcpl,
            "budget": info.cycles_at(SCALE),
            "state_digest": state_digest(machine),
            "counters": result.counters.as_dict(),
        }
        print(f"{name}: vcycles={result.vcycles} "
              f"vcpl={compiled.report.vcpl}", file=sys.stderr, flush=True)
    doc = {"grid": list(GRID), "scale": SCALE, "engine": "strict",
           "designs": pins}
    (HERE / "pins.json").write_text(json.dumps(doc, indent=1,
                                               sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
