"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the Table I benchmark suite.
``run BENCH``
    Run one benchmark end-to-end (engine + Fig. 13 hardware sweep) and
    print the study tables.  ``--steps``, ``--seed``, ``--clusters``
    control the run.
``similarity BENCH``
    FP32 activation-similarity analysis (paper Figs. 3-4).
``sweep``
    Run every benchmark and print the Fig. 13-style summary matrix.
``serve BENCH``
    Simulate the paper's serving scenario: a request queue with Poisson
    or burst arrivals (``--pattern``) driven at ``--batch-sizes`` (default
    1 2 4 8) through one step-level scheduler whose admission rule is
    ``--scheduler fixed`` (lockstep micro-batches after a ``--window``)
    or ``--scheduler continuous`` (admission at every step boundary, rows
    at their own timesteps); reports throughput, latency percentiles and
    utilization per batch size, and the temporal-mode MAC savings of the
    engine's ExecutionPlan (loaded from the cache or derived once).
    ``--verify`` asserts every request is bit-exact with its seeded
    batch-1 reference.  Fault tolerance (both schedulers): ``--slo`` sets
    per-class latency targets (``--slo default:D`` gives every request
    the deadline D), ``--fault-spec`` (or ``$REPRO_FAULTS``) injects
    deterministic step errors, kills, latency, cancellations, and cache
    corruption; failed steps are retried as exact replays and killed
    sessions recovered.  The report then carries per-class SLO accounting
    (every request completed/cancelled/expired/failed).  Invalid options
    (e.g. a negative ``--window``) are refused with the reason.
``cache info|clear``
    Inspect or reclaim the on-disk result cache.

``run``, ``similarity`` and ``sweep`` accept ``--cache``/``--no-cache`` and
``--cache-dir DIR`` (content-addressed on-disk reuse of results, see
:mod:`repro.runtime`); ``sweep`` additionally accepts ``--jobs N``
(process-pool engine construction).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .analysis import format_table, run_study
from .runtime import EngineRunner, ResultCache, default_cache_dir
from .workloads import SUITE


def _add_runtime_flags(
    parser: argparse.ArgumentParser, jobs: bool = True
) -> None:
    if jobs:
        parser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="build benchmark engines across N worker processes",
        )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache", dest="cache", action="store_true", default=True,
        help="reuse/populate the on-disk engine-result cache (default)",
    )
    cache_group.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="always rebuild engines, never touch the cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/ditto-repro)",
    )


def _make_runner(args: argparse.Namespace) -> EngineRunner:
    return EngineRunner(
        jobs=getattr(args, "jobs", 1),
        cache=args.cache,
        cache_dir=args.cache_dir,
    )

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ditto (HPCA 2025) reproduction - benchmarks and studies",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table I benchmarks")

    run_p = sub.add_parser("run", help="run one benchmark study")
    run_p.add_argument("benchmark", choices=list(SUITE))
    run_p.add_argument("--steps", type=int, default=None, help="override step count")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--clusters", type=int, default=1,
        help="timestep-clustered quantization (TDQ synergy); 1 = global scale",
    )
    run_p.add_argument(
        "--batch-size", type=int, default=1, metavar="N",
        help="samples per generation batch (batch-N is bit-exact with N batch-1 runs)",
    )
    # A single-benchmark run builds one engine, so --jobs has nothing to
    # parallelize; only the cache flags apply.
    _add_runtime_flags(run_p, jobs=False)

    sim_p = sub.add_parser("similarity", help="Fig. 3/4 similarity analysis")
    sim_p.add_argument("benchmark", choices=list(SUITE))
    sim_p.add_argument("--steps", type=int, default=12)
    _add_runtime_flags(sim_p, jobs=False)

    sweep_p = sub.add_parser("sweep", help="run all benchmarks (Fig. 13 summary)")
    sweep_p.add_argument(
        "--batch-size", type=int, default=1, metavar="N",
        help="generation batch size for every benchmark run",
    )
    _add_runtime_flags(sweep_p)

    serve_p = sub.add_parser(
        "serve", help="simulate the serving scenario (queue + micro-batching)"
    )
    serve_p.add_argument("benchmark", choices=list(SUITE))
    serve_p.add_argument(
        "--batch-sizes", type=int, nargs="+", default=[1, 2, 4, 8],
        metavar="N",
        help="session capacities (the maximum micro-batch size under "
             "fixed) to sweep",
    )
    serve_p.add_argument(
        "--scheduler", choices=["fixed", "continuous"], default="fixed",
        help="fixed: lockstep micro-batches; continuous: iteration-level "
             "scheduling (rows admitted/evicted at step boundaries, each at "
             "its own timestep)",
    )
    serve_p.add_argument(
        "--sampler", choices=["ddim", "ddpm", "plms", "dpmpp"], default=None,
        help="override the benchmark's sampler (e.g. ddpm for stochastic "
             "ancestral sampling)",
    )
    serve_p.add_argument(
        "--eta", type=float, default=None, metavar="ETA",
        help="stochastic DDIM eta (> 0 draws per-request posterior noise)",
    )
    serve_p.add_argument(
        "--requests", type=int, default=16, metavar="N",
        help="number of requests in the simulated queue",
    )
    serve_p.add_argument(
        "--rate", type=float, default=4.0, metavar="RPS",
        help="mean request arrival rate (requests/second)",
    )
    serve_p.add_argument(
        "--pattern", choices=["poisson", "burst"], default="poisson",
        help="arrival pattern of the request trace",
    )
    serve_p.add_argument(
        "--window", type=float, default=0.25, metavar="SECONDS",
        help="micro-batching window: max wait after the first queued request",
    )
    serve_p.add_argument("--steps", type=int, default=None, help="override step count")
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument(
        "--guidance", type=float, default=None, metavar="SCALE",
        help="classifier-free guidance scale (needs an uncond branch, e.g. SDM)",
    )
    serve_p.add_argument(
        "--verify", action="store_true",
        help="re-run every served request batch-1 and assert bit-exactness",
    )
    serve_p.add_argument(
        "--slo", default=None, metavar="SPEC",
        help="per-class SLOs 'name:deadline[:weight],...' (empty/none "
             "deadline = no target; 'default:D' gives every request the "
             "deadline D); requests are assigned to classes "
             "weight-proportionally and reported per class",
    )
    serve_p.add_argument(
        "--fault-spec", default=None, metavar="SPEC",
        help="deterministic fault plan, e.g. "
             "'error@req=1,step=2;kill@req=2,step=3;delay@req=5,step=1,"
             "ms=30000' (default: $REPRO_FAULTS; see README 'Robustness & "
             "failure model' for the grammar)",
    )
    serve_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the serving report as JSON",
    )

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_p.add_argument("action", choices=["info", "clear"])
    cache_p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/ditto-repro)",
    )
    return parser


def _cmd_list() -> int:
    rows = [
        [name, spec.sampler, spec.num_steps, spec.paper_steps,
         "x".join(map(str, spec.sample_shape)), spec.dataset]
        for name, spec in SUITE.items()
    ]
    print(format_table(
        ["name", "sampler", "steps", "paper", "shape", "dataset"], rows
    ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    result = runner.run_benchmark(
        args.benchmark,
        num_steps=args.steps,
        step_clusters=args.clusters,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    study = run_study(args.benchmark, engine_result=result)
    print(study.summary())
    print("\nBOPs (paper Fig. 6):")
    print(study.bops_table())
    print("\nHardware (paper Fig. 13, normalized to ITC):")
    print(study.hardware_table())
    if args.cache:
        print(f"\n[{runner.stats.summary()}]")
    return 0


def _cmd_similarity(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    report = runner.similarity(args.benchmark, num_steps=args.steps)
    print(report.summary())
    rows = sorted(
        (
            (layer, float(np.mean(sims)), report.spatial.get(layer, float("nan")))
            for layer, sims in report.temporal.items()
        ),
        key=lambda r: r[1],
        reverse=True,
    )
    if len(rows) > 24:
        rows = rows[:12] + [("...", float("nan"), float("nan"))] + rows[-12:]
    print(format_table(["layer", "temporal", "spatial"], rows))
    if args.cache:
        print(f"\n[{runner.stats.summary()}]")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    results = runner.run_suite(batch_size=args.batch_size)
    rows = []
    for name in SUITE:
        study = run_study(name, engine_result=results[name])
        itc = study.design_results["ITC"].report
        ditto = study.design_results["Ditto"].report
        ditto_plus = study.design_results["Ditto+"].report
        rows.append(
            [
                name,
                itc.total_cycles / ditto.total_cycles,
                ditto.total_energy_pj / itc.total_energy_pj,
                itc.total_cycles / ditto_plus.total_cycles,
                100.0 * study.design_results["Ditto"].defo.changed_fraction,
            ]
        )
    print(format_table(
        ["bench", "Ditto spd", "Ditto energy", "Ditto+ spd", "Defo chg%"], rows
    ))
    if args.cache:
        print(f"\n[{runner.stats.summary()}]")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .runtime.serving import simulate_serving

    try:
        report = simulate_serving(
            args.benchmark,
            batch_sizes=args.batch_sizes,
            num_requests=args.requests,
            rate_rps=args.rate,
            pattern=args.pattern,
            window_s=args.window,
            num_steps=args.steps,
            seed=args.seed,
            guidance_scale=args.guidance,
            verify_invariance=args.verify,
            scheduler=args.scheduler,
            sampler=args.sampler,
            sampler_eta=args.eta,
            slo=args.slo,
            fault_spec=args.fault_spec,
        )
    except ValueError as exc:
        raise SystemExit(f"repro serve: error: {exc}") from None
    print(report.summary())
    if args.out:
        import json
        from pathlib import Path

        Path(args.out).write_text(json.dumps(report.to_json(), indent=1) + "\n")
        print(f"\nwrote {args.out}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.cache_dir}")
        return 0
    print(f"dir:     {cache.cache_dir}")
    print(f"entries: {cache.entry_count()}")
    print(f"size:    {cache.size_bytes() / 1e6:.1f} MB")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "similarity":
        return _cmd_similarity(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cache":
        return _cmd_cache(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
