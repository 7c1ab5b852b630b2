"""Template compilation speedup: bind(theta) vs a full recompile.

The tentpole claim of the template layer: a VQE/QAOA optimizer loop
over one compiled structure should pay the compile once and then only
cheap angle rebinds.  Three measurements back it:

1. **Per-iteration**: wall time of one ``CompiledTemplate.bind(theta)``
   vs one cold ``run_job`` recompile of the same chem:LiH cell (caching
   off — an optimizer changes every angle, so the result cache cannot
   help).
2. **Loop**: K optimizer iterations as 1 parametric compile + K binds
   vs K recompiles (the pre-template serving shape).
3. **Reply**: the work behind one ``/bind`` reply (no QASM, as an
   optimizer loop asks), built from a bound circuit (``bind``, then
   ``measure_circuit``) vs from the template (``slot_values`` and the
   once-measured ``metrics()`` row): ``reply_speedup``.

``--gate`` turns these into CI assertions: bind must be at least
``--min-speedup`` (default 10x) faster than recompile, and
``reply_speedup`` must be at least :data:`MIN_REPLY_SPEEDUP`.

Usage::

    PYTHONPATH=src python benchmarks/bench_templates.py --quick --gate \
        [--out BENCH_templates.json]
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.circuit.metrics import measure_circuit
from repro.service import CompileJob, run_job
from repro.service.jobs import job_blocks

#: Gate: a reply from the template must beat one from a bound circuit
#: by this factor.
MIN_REPLY_SPEEDUP = 5.0


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(job: CompileJob, repeats: int, loop_iters: int) -> dict:
    """Recompile vs compile-once-bind-many on one cell."""
    job_blocks(job)  # warm the workload memo: time compilation, not I/O
    recompile_s = best_of(lambda: run_job(job), repeats)

    from dataclasses import replace

    parametric = replace(job, parametric=True)
    compile_start = time.perf_counter()
    template = run_job(parametric).template
    compile_s = time.perf_counter() - compile_start
    rng = np.random.default_rng(7)
    thetas = rng.uniform(-2.0, 2.0, size=(repeats, template.num_parameters))
    bind_s = min(
        best_of(lambda t=theta: template.bind(t), 3) for theta in thetas
    )

    # One /bind reply: from a bound circuit vs from the template.
    def bound_reply(theta):
        return measure_circuit(template.bind(theta)).as_row()

    def template_reply(theta):
        template.slot_values(theta)
        return template.metrics().as_row()

    bound_reply_s = min(
        best_of(lambda t=theta: bound_reply(t), 3) for theta in thetas
    )
    template_reply_s = min(
        best_of(lambda t=theta: template_reply(t), 3) for theta in thetas
    )

    # The optimizer-loop shape, end to end.
    loop_thetas = rng.uniform(-2.0, 2.0,
                              size=(loop_iters, template.num_parameters))
    loop_bind_start = time.perf_counter()
    loop_template = run_job(parametric).template
    for theta in loop_thetas:
        loop_template.bind(theta)
    loop_bind_s = time.perf_counter() - loop_bind_start
    loop_recompile_s = recompile_s * loop_iters  # measured per-iteration cost

    return {
        "job": job.label(),
        "parameters": template.num_parameters,
        "slots": template.num_slots,
        "gates": len(template.gates),
        "recompile_seconds": recompile_s,
        "parametric_compile_seconds": compile_s,
        "bind_seconds": bind_s,
        "bind_speedup": recompile_s / bind_s if bind_s else float("inf"),
        "bound_reply_seconds": bound_reply_s,
        "template_reply_seconds": template_reply_s,
        "reply_speedup": (
            bound_reply_s / template_reply_s if template_reply_s
            else float("inf")
        ),
        "loop_iterations": loop_iters,
        "loop_recompile_seconds": loop_recompile_s,
        "loop_template_seconds": loop_bind_s,
        "loop_speedup": (
            loop_recompile_s / loop_bind_s if loop_bind_s else float("inf")
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller repeat counts (CI)")
    parser.add_argument("--bench", default="chem:LiH",
                        help="workload spec (default: chem:LiH)")
    parser.add_argument("--device", default="linear",
                        help="device spec (default: linear)")
    parser.add_argument("--scale", default="smoke",
                        help="workload scale (default: smoke)")
    parser.add_argument("--out", default="",
                        help="write the measurements to this JSON file")
    parser.add_argument("--gate", action="store_true",
                        help="exit non-zero when a threshold is exceeded")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="gate: bind must beat recompile by this factor")
    args = parser.parse_args(argv)

    job = CompileJob(bench=args.bench, device=args.device, scale=args.scale)
    repeats = 3 if args.quick else 7
    loop_iters = 200 if args.quick else 1000
    result = measure(job, repeats=repeats, loop_iters=loop_iters)

    print(f"{result['job']}: {result['parameters']} parameters, "
          f"{result['slots']} slots, {result['gates']} gates")
    print(f"recompile: {result['recompile_seconds'] * 1e3:.2f} ms/iter, "
          f"bind: {result['bind_seconds'] * 1e3:.3f} ms/iter "
          f"({result['bind_speedup']:.1f}x)")
    print(f"/bind reply: from the bound circuit "
          f"{result['bound_reply_seconds'] * 1e3:.3f} ms, from the template "
          f"{result['template_reply_seconds'] * 1e3:.3f} ms "
          f"({result['reply_speedup']:.1f}x)")
    print(f"{result['loop_iterations']}-iteration loop: "
          f"recompiles {result['loop_recompile_seconds']:.2f}s vs "
          f"1 compile + binds {result['loop_template_seconds']:.2f}s "
          f"({result['loop_speedup']:.1f}x)")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")

    if args.gate:
        failures = []
        if result["bind_speedup"] < args.min_speedup:
            failures.append(f"bind speedup {result['bind_speedup']:.1f}x "
                            f"< {args.min_speedup:.0f}x")
        if result["reply_speedup"] < MIN_REPLY_SPEEDUP:
            failures.append(f"reply speedup {result['reply_speedup']:.1f}x "
                            f"< {MIN_REPLY_SPEEDUP:.0f}x")
        for failure in failures:
            print(f"bench_templates: FAIL: {failure}")
        if failures:
            return 1
        print("bench_templates: gates OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
