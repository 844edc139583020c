"""Command-line interface: run scenarios, traces, online loops, simulations.

Examples
--------
python -m repro trace
python -m repro scenario --level chunk --algorithms alternating,sp,ksp10
python -m repro scenario --topology tinet --edge-nodes 5 --runs 2
python -m repro online --hours 6 --algorithm alternating
python -m repro simulate --scale 1e-4 --horizon 2.0
python -m repro serve --algorithm sp --requests 1e6 --shards 4
python -m repro predict --video dNCWe_6HAM8 --hours 8
python -m repro adaptive --topology deltacom --requests 2e5 --policies lce,static_alg1
python -m repro robustness --topology gadget
python -m repro robustness --failures single-link --algorithm greedy --repair
python -m repro robustness --topology deltacom --timeline --horizon 50 --flap-prob 0.2
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Joint caching and routing in cache networks (ICDCS'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="print the Table-1 trace statistics")
    trace.add_argument("--seed", type=int, default=0)

    scenario = sub.add_parser("scenario", help="compare algorithms on one scenario")
    _add_scenario_args(scenario)
    scenario.add_argument(
        "--algorithms",
        default="alternating,sp,ksp1,ksp10",
        help="comma list: alternating, sp, ksp<k>, alg1, greedy, fcfr",
    )
    scenario.add_argument("--runs", type=int, default=2)

    online = sub.add_parser("online", help="hourly re-optimization loop")
    _add_scenario_args(online)
    online.add_argument("--hours", type=int, default=6)
    online.add_argument("--algorithm", default="alternating")
    online.add_argument(
        "--predict", action="store_true", help="plan on GPR-predicted demand"
    )

    simulate = sub.add_parser(
        "simulate", help="event-driven validation of a solved scenario"
    )
    _add_scenario_args(simulate)
    simulate.add_argument("--algorithm", default="alternating")
    simulate.add_argument("--scale", type=float, default=1e-4,
                          help="joint demand/capacity scale factor")
    simulate.add_argument("--horizon", type=float, default=1.0)

    serve = sub.add_parser(
        "serve", help="streaming request-level replay of a solved scenario"
    )
    _add_scenario_args(serve)
    serve.add_argument("--algorithm", default="alternating")
    serve.add_argument("--requests", type=float, default=1e6,
                       help="expected number of requests to replay")
    serve.add_argument("--shards", type=int, default=1,
                       help="independent stream shards, replayed in shard order "
                            "(results depend on the count)")

    sweep = sub.add_parser("sweep", help="sweep one scenario knob (figure-style)")
    _add_scenario_args(sweep)
    sweep.add_argument("--parameter", required=True,
                       help="one of: cache_capacity, link_capacity_fraction, "
                            "num_videos, chunk_mb, num_edge_nodes")
    sweep.add_argument("--values", required=True,
                       help="comma list of values, e.g. 6,12,18")
    sweep.add_argument(
        "--algorithms",
        default="alternating,sp",
        help="comma list: alternating, sp, ksp<k>, alg1, greedy, fcfr",
    )
    sweep.add_argument("--runs", type=int, default=2)

    predict = sub.add_parser("predict", help="GPR demand prediction demo")
    predict.add_argument("--video", default="dNCWe_6HAM8")
    predict.add_argument("--hours", type=int, default=8)
    predict.add_argument("--seed", type=int, default=0)

    adaptive = sub.add_parser(
        "adaptive",
        help="online adaptive serving: reactive strategies vs adaptive placement",
    )
    adaptive.add_argument("--topology", default="abovenet",
                          choices=("abovenet", "abvt", "tinet", "deltacom"))
    adaptive.add_argument("--items", type=int, default=30)
    adaptive.add_argument("--alpha", type=float, default=0.8,
                          help="Zipf popularity skew")
    adaptive.add_argument("--rate", type=float, default=500.0,
                          help="total request rate")
    adaptive.add_argument("--cache", type=float, default=4.0)
    adaptive.add_argument("--requests", type=float, default=2e5,
                          help="requests to replay through each policy")
    adaptive.add_argument("--chunk", type=int, default=8192)
    adaptive.add_argument("--replan-every", type=int, default=8,
                          help="periodic planner epoch length in chunks")
    adaptive.add_argument("--eviction", default="lru", choices=("lru", "lfu"))
    adaptive.add_argument("--policies", default=None,
                          help="comma list (default: all); see repro.adaptive")
    adaptive.add_argument("--seed", type=int, default=0)

    robustness = sub.add_parser(
        "robustness",
        help="inject failures, recover, and print a survivability report",
    )
    robustness.add_argument(
        "--topology", default="abovenet",
        choices=("abovenet", "abvt", "tinet", "deltacom", "gadget"),
        help="'gadget' runs the self-contained 4-node Fig. 9 demo",
    )
    robustness.add_argument("--level", default="chunk", choices=("chunk", "file"))
    robustness.add_argument("--videos", type=int, default=5)
    robustness.add_argument("--cache", type=float, default=None)
    robustness.add_argument("--link-fraction", type=float, default=0.0,
                            help="link capacity fraction; 0 = unlimited")
    robustness.add_argument("--edge-nodes", type=int, default=None)
    robustness.add_argument("--seed", type=int, default=0)
    robustness.add_argument("--algorithm", default="greedy")
    robustness.add_argument(
        "--failures", default="single-link",
        choices=("single-link", "single-node", "random"),
    )
    robustness.add_argument("--k", type=int, default=1,
                            help="links per random scenario")
    robustness.add_argument("--samples", type=int, default=10,
                            help="number of random scenarios")
    robustness.add_argument("--repair", action="store_true",
                            help="greedily refill residual cache space")
    robustness.add_argument("--max-scenarios", type=int, default=None,
                            help="truncate the scenario list (big topologies)")
    robustness.add_argument(
        "--timeline", action="store_true",
        help="replay a discrete-event failure timeline instead of a static sweep",
    )
    robustness.add_argument("--horizon", type=float, default=50.0,
                            help="timeline horizon (time units)")
    robustness.add_argument("--link-mtbf", type=float, default=80.0)
    robustness.add_argument("--link-mttr", type=float, default=3.0)
    robustness.add_argument("--node-mtbf", type=float, default=None,
                            help="enable node failures with this MTBF")
    robustness.add_argument("--node-mttr", type=float, default=6.0)
    robustness.add_argument("--flap-prob", type=float, default=0.2,
                            help="probability a link failure is a short flap")
    robustness.add_argument("--detection-delay", type=float, default=0.5,
                            help="controller delay before reacting to a failure")
    robustness.add_argument("--backoff", type=float, default=0.25,
                            help="initial re-check backoff after an absorbed flap")
    robustness.add_argument("--retries", type=int, default=2,
                            help="backoff re-checks before forcing re-optimization")
    robustness.add_argument("--min-dwell", type=float, default=0.0,
                            help="minimum time between re-optimizations (hysteresis)")
    robustness.add_argument(
        "--serve", action="store_true",
        help="with --timeline: also stream sampled requests through the "
        "degraded tables and report streamed vs analytic cost",
    )
    robustness.add_argument("--serve-requests", "--requests", dest="requests",
                            type=float, default=2e5,
                            help="expected request arrivals for --serve")
    robustness.add_argument("--shards", type=int, default=1,
                            help="request-stream shards for --serve")

    return parser


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default="abovenet",
                        choices=("abovenet", "abvt", "tinet", "deltacom"))
    parser.add_argument("--level", default="chunk", choices=("chunk", "file"))
    parser.add_argument("--videos", type=int, default=10)
    parser.add_argument("--cache", type=float, default=None,
                        help="cache size (chunks / avg-size files); default 12 / 2")
    parser.add_argument("--link-fraction", type=float, default=0.007,
                        help="link capacity as a fraction of total rate; 0 = unlimited")
    parser.add_argument("--edge-nodes", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)


def _scenario_config(args: argparse.Namespace):
    from repro.experiments import ScenarioConfig

    cache = args.cache
    if cache is None:
        cache = 12.0 if args.level == "chunk" else 2.0
    fraction = None if not args.link_fraction else args.link_fraction
    return ScenarioConfig(
        topology=args.topology,
        level=args.level,
        num_videos=args.videos,
        cache_capacity=cache,
        link_capacity_fraction=fraction,
        num_edge_nodes=args.edge_nodes,
        seed=args.seed,
    )


def _resolve_algorithm(name: str):
    from repro.experiments import algorithms as alg

    name = name.strip().lower()
    if name == "alternating":
        return alg.alternating(mmufp_method="best")
    if name == "sp":
        return alg.sp
    if name == "alg1":
        return alg.alg1
    if name == "greedy":
        return alg.greedy
    if name == "fcfr":
        return alg.fcfr
    if name.startswith("ksp"):
        return alg.ksp(int(name[3:] or 10))
    raise SystemExit(f"unknown algorithm {name!r}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments import format_sweep
    from repro.workload import TABLE1_VIDEOS, TraceConfig, split_train_eval, synthesize_trace

    config = TraceConfig(seed=args.seed)
    trace = synthesize_trace(config=config)
    _train, evaluation = split_train_eval(trace, config)
    rows = [
        {
            "video_id": v.video_id,
            "size_mb": v.size_mb,
            "chunks": v.num_chunks(),
            "total_views": evaluation.total_views(v.video_id),
        }
        for v in TABLE1_VIDEOS
    ]
    print(format_sweep(rows, ["video_id", "size_mb", "chunks", "total_views"],
                       title="Table 1 (synthetic trace)"))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.experiments import (
        MonteCarloConfig,
        aggregate,
        format_aggregates,
        run_monte_carlo,
    )

    config = _scenario_config(args)
    algorithms = {
        name.strip(): _resolve_algorithm(name)
        for name in args.algorithms.split(",")
        if name.strip()
    }
    records = run_monte_carlo(config, algorithms, MonteCarloConfig(n_runs=args.runs))
    print(
        format_aggregates(
            aggregate(records),
            title=f"{config.topology} / {config.level} level / {args.runs} runs",
        )
    )
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    from repro.experiments import PredictionConfig, format_sweep
    from repro.experiments.online import run_online

    config = _scenario_config(args)
    prediction = PredictionConfig() if args.predict else None
    result = run_online(
        config,
        _resolve_algorithm(args.algorithm),
        name=args.algorithm,
        hours=args.hours,
        prediction=prediction,
    )
    rows = [
        {
            "hour": h.hour,
            "cost": h.cost,
            "congestion": h.congestion,
            "planned_rate": h.predicted_total_rate,
            "true_rate": h.true_total_rate,
        }
        for h in result.hours
    ]
    print(
        format_sweep(
            rows,
            ["hour", "cost", "congestion", "planned_rate", "true_rate"],
            title=f"online {args.algorithm} over {args.hours}h "
            f"({'GPR-predicted' if args.predict else 'oracle'} demand)",
        )
    )
    print(f"\ntotal cost {result.total_cost:,.0f}, "
          f"worst congestion {result.worst_congestion:.3f}, "
          f"failures {result.failures}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments import build_scenario
    from repro.simulation import SimulationConfig, scale_problem, simulate

    config = _scenario_config(args)
    scenario = build_scenario(config)
    solution = _resolve_algorithm(args.algorithm)(scenario)
    problem = scale_problem(scenario.problem, args.scale)
    report = simulate(
        problem, solution.routing, SimulationConfig(horizon=args.horizon, seed=args.seed)
    )
    print(f"requests generated/delivered: {report.generated}/{report.delivered}")
    print(f"mean latency: {report.mean_latency:.4f}  p95: {report.p95_latency:.4f}")
    print(f"max link utilization: {report.max_utilization:.3f}")
    print(f"late deliveries (backlog): {report.late_deliveries}")
    worst = sorted(
        report.utilization.items(), key=lambda kv: -kv[1]
    )[:5]
    for edge, util in worst:
        print(f"  {edge}: utilization {util:.3f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments import build_scenario
    from repro.serving import (
        ServingConfig,
        compile_tables,
        horizon_for_requests,
        replay,
    )

    config = _scenario_config(args)
    scenario = build_scenario(config)
    solution = _resolve_algorithm(args.algorithm)(scenario)
    tables = compile_tables(
        scenario.problem, solution.routing, allow_unrouted=True
    )
    horizon = horizon_for_requests(tables, args.requests)
    serving = ServingConfig(
        horizon=horizon, seed=args.seed, n_shards=args.shards
    )
    report = replay(tables, serving)
    print(f"replayed {report.generated:,} requests over horizon {horizon:.4g} "
          f"({report.n_shards} shard(s))")
    print(f"served: {report.served:,} ({report.served_fraction:.2%}), "
          f"unrouted types: {report.unrouted_types}")
    print(f"delivered cost rate: {report.delivered_cost / horizon:,.0f} "
          f"(analytic {tables.expected_cost_rate():,.0f})")
    print(f"throughput: {report.requests_per_sec:,.0f} requests/sec")
    worst = sorted(report.empirical_loads.items(), key=lambda kv: -kv[1])[:5]
    for edge, load in worst:
        print(f"  {edge}: empirical load {load:,.1f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import (
        MonteCarloConfig,
        format_sweep,
        sweep_parameter,
    )

    config = _scenario_config(args)
    algorithms = {
        name.strip(): _resolve_algorithm(name)
        for name in args.algorithms.split(",")
        if name.strip()
    }
    values = []
    for token in args.values.split(","):
        token = token.strip()
        values.append(int(token) if token.isdigit() else float(token))
    rows = sweep_parameter(
        config,
        args.parameter,
        values,
        algorithms,
        MonteCarloConfig(n_runs=args.runs),
    )
    print(
        format_sweep(
            rows,
            [args.parameter, "algorithm", "cost", "congestion", "occupancy"],
            title=f"sweep {args.parameter} on {config.topology} ({args.runs} runs)",
        )
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.prediction import DemandPredictor, mape
    from repro.workload import TraceConfig, synthesize_trace

    config = TraceConfig(seed=args.seed)
    trace = synthesize_trace(config=config)
    series = trace.series(args.video)
    predictor = DemandPredictor(
        train_hours=config.train_hours, history_window=150, n_restarts=0
    )
    predicted = predictor.predict_series(series, eval_hours=args.hours)
    truth = series[config.train_hours : config.train_hours + args.hours]
    print(f"{'hour':>6}{'truth':>14}{'predicted':>14}{'rel err':>10}")
    for h in range(args.hours):
        rel = abs(predicted[h] - truth[h]) / truth[h]
        print(f"{h:>6}{truth[h]:>14,.0f}{predicted[h]:>14,.0f}{rel:>10.1%}")
    print(f"\nMAPE over {args.hours}h: {mape(truth, predicted):.1%}")
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.experiments import build_scenario
    from repro.robustness import (
        sample_failures,
        single_link_failures,
        single_node_failures,
        survivability_report,
    )

    if args.topology == "gadget":
        from repro.robustness.demo import gadget_placement, gadget_problem

        problem = gadget_problem()
        placement = gadget_placement()
        origin = "vs"
        title = "gadget"
    else:
        scenario = build_scenario(_scenario_config(args))
        problem = scenario.problem
        placement = _resolve_algorithm(args.algorithm)(scenario).placement
        origin = scenario.origin
        title = f"{args.topology} / {args.algorithm}"

    if args.timeline:
        from repro.core.context import SolverContext
        from repro.robustness import (
            RecoveryPolicy,
            TimelineConfig,
            generate_timeline,
            replay_timeline,
        )

        timeline = generate_timeline(
            problem,
            TimelineConfig(
                horizon=args.horizon,
                link_mtbf=args.link_mtbf,
                link_mttr=args.link_mttr,
                node_mtbf=args.node_mtbf,
                node_mttr=args.node_mttr,
                flap_probability=args.flap_prob,
                exclude_nodes=(origin,),
            ),
            seed=args.seed,
            name=title,
        )
        policy = RecoveryPolicy(
            detection_delay=args.detection_delay,
            flap_backoff=args.backoff,
            max_retries=args.retries,
            min_dwell=args.min_dwell,
            repair=args.repair,
        )
        context = SolverContext.from_problem(problem)
        print(f"timeline: {len(timeline.events)} events over horizon {args.horizon:g}")
        if args.serve:
            from repro.robustness import replay_timeline_streaming
            from repro.serving import ServingConfig

            rate_scale = args.requests / (problem.total_demand * args.horizon)
            streamed = replay_timeline_streaming(
                problem,
                placement,
                timeline,
                policy,
                config=ServingConfig(
                    horizon=args.horizon, seed=args.seed, n_shards=args.shards
                ),
                rate_scale=rate_scale,
                context=context,
            )
            report = streamed.analytic
            print(streamed.format())
            print(
                f"serve: {streamed.generated} requests over "
                f"{len(streamed.segments)} segments in "
                f"{streamed.elapsed_seconds:.3f}s "
                f"({streamed.requests_per_sec:,.0f} req/s, "
                f"{args.shards} shard{'s' if args.shards != 1 else ''})"
            )
            print(
                "cost integral: streamed "
                f"{streamed.streamed_cost_integral:.6g} vs analytic "
                f"{report.cost_integral:.6g} "
                f"(expected {streamed.expected_cost / streamed.rate_scale:.6g}, "
                f"sampling sigma {streamed.cost_variance ** 0.5 / streamed.rate_scale:.3g})"
            )
            print(
                f"served fraction: streamed {streamed.served_fraction:.4%} "
                f"vs analytic availability {report.availability:.4%}"
            )
            return 0
        report = replay_timeline(
            problem,
            placement,
            timeline,
            policy,
            context=context,
        )
        print(report.format())
        return 0

    if args.failures == "single-link":
        scenarios = single_link_failures(problem)
    elif args.failures == "single-node":
        scenarios = single_node_failures(problem, exclude=(origin,))
    else:
        scenarios = sample_failures(
            problem,
            n_scenarios=args.samples,
            links_per_scenario=args.k,
            seed=args.seed,
        )
    if args.max_scenarios is not None:
        scenarios = scenarios[: args.max_scenarios]

    report = survivability_report(
        problem, placement, scenarios, repair=args.repair
    )
    print(report.format(
        title=f"survivability: {title} under {args.failures} failures"
        f"{' with repair' if args.repair else ''}"
    ))
    return 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    from repro.adaptive import ALL_POLICIES, run_online_adaptive
    from repro.experiments import build_zipf_scenario, format_sweep

    scenario = build_zipf_scenario(
        topology=args.topology,
        num_items=args.items,
        alpha=args.alpha,
        total_rate=args.rate,
        cache_capacity=args.cache,
        link_capacity_fraction=None,
        seed=args.seed,
    )
    policies = ALL_POLICIES
    if args.policies:
        policies = tuple(
            name.strip() for name in args.policies.split(",") if name.strip()
        )
    report = run_online_adaptive(
        scenario.problem,
        n_requests=int(args.requests),
        chunk_size=args.chunk,
        seed=args.seed,
        policies=policies,
        eviction_policy=args.eviction,
        replan_every=args.replan_every,
    )
    base = report.traces.get("static_alg1")
    rows = [
        {
            "policy": name,
            "cost_rate": trace.cost_rate,
            "vs_static": (
                trace.cost_rate / base.cost_rate if base else float("nan")
            ),
            "edge_hit_ratio": trace.edge_hit_ratio,
            "updates": trace.updates,
        }
        for name, trace in report.traces.items()
    ]
    print(
        format_sweep(
            rows,
            ["policy", "cost_rate", "vs_static", "edge_hit_ratio", "updates"],
            title=(
                f"online adaptive: {args.topology} / Zipf({args.alpha}) / "
                f"{report.n_requests:,} requests, chunk {report.chunk_size}"
            ),
        )
    )
    return 0


_COMMANDS = {
    "trace": _cmd_trace,
    "scenario": _cmd_scenario,
    "online": _cmd_online,
    "simulate": _cmd_simulate,
    "serve": _cmd_serve,
    "sweep": _cmd_sweep,
    "predict": _cmd_predict,
    "adaptive": _cmd_adaptive,
    "robustness": _cmd_robustness,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
