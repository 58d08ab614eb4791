"""Command-line interface: ``python -m repro <command>``.

Runs scaled-down versions of the paper's experiments and prints the same
reports the benchmark suite produces.  The full-size regenerations live
in ``benchmarks/`` (``pytest benchmarks/ --benchmark-only``); the CLI is
for quick interactive exploration.
"""

import argparse
import os
import statistics
import sys

from repro.analysis.cdf import Cdf
from repro.analysis.render import (
    Table, fmt_mean_ci, render_boxplot_row, render_cdf,
)
from repro.analysis.stats import SummaryStats
from repro.phone.profiles import PHONES
from repro.testbed.environment import environment_keys
from repro.testbed.experiments import (
    acutemon_experiment, ping2_experiment, ping_experiment, tool_comparison,
)
from repro.testbed.scenario import tool_keys


def cmd_table2(args):
    table = Table(["Phone", "RTT", "Intv.", "du (ms)", "dk (ms)", "dn (ms)"],
                  title="Multi-layer ping RTTs (Table 2 shape)")
    for phone in ("nexus4", "nexus5"):
        for rtt_ms in (30, 60):
            for label, interval in (("10ms", 0.010), ("1s", 1.0)):
                result = ping_experiment(
                    phone, emulated_rtt=rtt_ms * 1e-3, interval=interval,
                    count=args.count, seed=args.seed)
                stats = {layer: SummaryStats(result.layers[layer])
                         for layer in ("du", "dk", "dn")}
                table.add_row(phone, f"{rtt_ms}ms", label,
                              fmt_mean_ci(stats["du"]),
                              fmt_mean_ci(stats["dk"]),
                              fmt_mean_ci(stats["dn"]))
    print(table)


def cmd_table3(args):
    table = Table(["Type", "Bus sleep", "Interval", "Min", "Mean", "Max"],
                  title="Driver delays dvsend/dvrecv in ms (Table 3 shape)")
    for enabled in (True, False):
        for label, interval in (("10ms", 0.010), ("1s", 1.0)):
            result = ping_experiment(
                "nexus5", emulated_rtt=0.060, interval=interval,
                count=args.count, seed=args.seed, bus_sleep=enabled)
            for kind in ("send", "recv"):
                stats = SummaryStats(result.phone.driver.samples_of(kind))
                table.add_row(f"dv{kind}",
                              "Enabled" if enabled else "Disabled", label,
                              f"{stats.minimum * 1e3:.3f}",
                              f"{stats.mean * 1e3:.3f}",
                              f"{stats.maximum * 1e3:.3f}")
    print(table)


def cmd_table5(args):
    table = Table(["Phone", "20ms", "50ms", "85ms", "135ms"],
                  title="AcuteMon actual nRTT dn, mean±CI ms (Table 5 shape)")
    for phone in PHONES:
        cells = []
        for rtt_ms in (20, 50, 85, 135):
            result = acutemon_experiment(
                phone, emulated_rtt=rtt_ms * 1e-3, count=args.count,
                seed=args.seed)
            cells.append(fmt_mean_ci(SummaryStats(result.layers["dn"])))
        table.add_row(phone, *cells)
    print(table)


def cmd_overheads(args):
    print("AcuteMon overheads per emulated RTT (Figure 7 shape)")
    for rtt_ms in (20, 50, 85, 135):
        result = acutemon_experiment(
            args.phone, emulated_rtt=rtt_ms * 1e-3, count=args.count,
            seed=args.seed)
        print(render_boxplot_row(f"{rtt_ms}ms du_k", result.overheads.box("du_k")))
        print(render_boxplot_row(f"{rtt_ms}ms dk_n", result.overheads.box("dk_n")))


def cmd_compare(args):
    results = tool_comparison(
        args.phone, emulated_rtt=args.rtt * 1e-3, count=args.count,
        seed=args.seed, cross_traffic=args.cross_traffic)
    print(f"Tool comparison on {args.phone}, emulated RTT {args.rtt} ms"
          f"{' with cross traffic' if args.cross_traffic else ''} "
          "(Figure 8 shape, ms)")
    for name, rtts in results.items():
        print(render_cdf(Cdf(rtts), label=name))


def cmd_ping2(args):
    print("ping2 vs AcuteMon median error (ms) across path lengths")
    for rtt_ms in (20, 50, 85, 135):
        rtt = rtt_ms * 1e-3
        ping2 = ping2_experiment(args.phone, emulated_rtt=rtt,
                                 count=args.count, seed=args.seed)
        acute = acutemon_experiment(args.phone, emulated_rtt=rtt,
                                    count=args.count, seed=args.seed)
        ping2_err = statistics.median(ping2.tool.rtts()) - rtt
        acute_err = statistics.median(acute.user_rtts) - rtt
        print(f"  {rtt_ms:4d}ms: ping2 {ping2_err * 1e3:+6.2f}   "
              f"acutemon {acute_err * 1e3:+6.2f}")


def cmd_campaign(args):
    from repro.analysis.decompose import decompose_campaign, write_report
    from repro.obs import write_snapshot
    from repro.testbed.campaign import Campaign

    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    campaign = Campaign(
        envs=tuple(args.env),
        phones=tuple(args.phones), rtts=tuple(r * 1e-3 for r in args.rtts),
        tools=tuple(args.tools), count=args.count, base_seed=args.seed,
    )
    workers = args.workers if args.workers > 0 else None
    verb = "running" if workers == 1 and args.shards is None else "finished"
    reported = []

    def progress(spec):
        reported.append(spec)
        print(f"  {verb} {spec.describe()}...")

    # ``Campaign.run`` checks the grid and the run options before any
    # cell runs: a ValueError ahead of the first progress line is bad
    # input, not a failed run.
    try:
        campaign.run(
            workers=workers,
            collect_metrics=bool(args.metrics_out or args.report_out),
            checkpoint=args.checkpoint, resume=args.resume,
            cell_timeout=args.cell_timeout, retries=args.retries,
            retry_backoff=args.retry_backoff,
            shards=args.shards, store=args.store, progress=progress)
    except ValueError as exc:
        if reported:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = Table(["Env", "Phone", "RTT", "Tool", "median (ms)",
                   "error (ms)", "n"],
                  title="Campaign results")
    for result in campaign.results:
        stats = result.summary()
        table.add_row(result.env, result.phone,
                      f"{result.rtt * 1e3:.0f}ms",
                      result.tool, f"{stats.median * 1e3:.2f}",
                      f"{result.error() * 1e3:.2f}", stats.n)
    print(table)
    counters = {metric["name"]: metric["value"]
                for metric in campaign.run_metrics["metrics"]}
    resumed = counters.get("campaign.cells_resumed", 0)
    retries = counters.get("campaign.retries", 0)
    if resumed or retries:
        print(f"resumed {resumed} cell(s) from checkpoint, "
              f"{retries} retr{'y' if retries == 1 else 'ies'}")
    hits = counters.get("campaign.cache_hits", 0)
    misses = counters.get("campaign.cache_misses", 0)
    stolen = counters.get("campaign.shards_stolen", 0)
    if args.store:
        print(f"store cache: {hits} hit(s), {misses} miss(es)")
    if args.shards is not None:
        planned = counters.get("campaign.shards_planned", 0)
        print(f"shards: {planned} dispatched, {stolen} stolen")
    if campaign.quarantine:
        bad = Table(["Env", "Phone", "RTT", "Tool", "kind", "attempts",
                     "error"],
                    title="Quarantined cells")
        for failure in campaign.quarantine:
            bad.add_row(failure.env, failure.phone,
                        f"{failure.rtt * 1e3:.0f}ms", failure.tool,
                        failure.kind, failure.attempts, failure.error)
        print(bad)
    if args.out:
        campaign.save(args.out)
        print(f"saved to {args.out}")
    if args.metrics_out:
        merged = campaign.merged_metrics()
        fmt = write_snapshot(args.metrics_out, merged)
        print(f"wrote merged metrics ({fmt}) to {args.metrics_out}")
    if args.report_out:
        report = decompose_campaign(campaign)
        if report is None:
            print("no decomposition data (no observed probes completed)")
        else:
            fmt = write_report(args.report_out, report)
            print(f"wrote decomposition report ({fmt}) to {args.report_out}")
    # A sweep that quarantined cells is incomplete: exit nonzero so CI
    # and shell pipelines notice (the tables above still show the rest).
    return 1 if campaign.quarantine else 0


def cmd_cache(args):
    from repro.testbed.store import ResultStore

    store = ResultStore(args.store)
    if args.cache_command == "stats":
        stats = store.stats()
        print(f"store {stats['path']}: {stats['live']} live cell(s), "
              f"{stats['records']} record(s) in {stats['segments']} "
              f"segment(s), {stats['bytes']} bytes")
        if stats["skipped"]:
            print(f"  {stats['skipped']} unreadable/stale line(s) skipped")
        return 0
    summary = store.gc()
    print(f"gc: kept {summary['live']} live cell(s), removed "
          f"{summary['removed_segments']} segment(s), dropped "
          f"{summary['dropped']} stale or superseded record(s)")
    return 0


def cmd_report(args):
    from repro.analysis.decompose import decompose_campaign, render_report
    from repro.testbed.campaign import Campaign

    try:
        report = decompose_campaign(Campaign.load(args.campaign))
    except ValueError as exc:  # an unreadable file or unmergeable cells
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report is None:
        print("error: no decomposition data in this campaign — re-run "
              "with `repro campaign --metrics-out/--report-out` so cells "
              "record metrics")
        return 1
    text = render_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_obs(args):
    from repro.obs import write_chrome_trace, write_snapshot
    from repro.testbed.experiments import tool_experiment

    result = tool_experiment(
        args.tool, args.phone, emulated_rtt=args.rtt * 1e-3,
        count=args.count, seed=args.seed, observe=True)
    snapshot = result.metrics_snapshot()
    sim = result.testbed.sim
    print(f"observed one {args.tool} cell on {args.phone} @ "
          f"{args.rtt:.0f}ms: {sim.events_fired} events fired, "
          f"{len(sim.spans)} spans")
    for metric in sim.metrics.metrics():
        if metric.kind != "histogram" or not metric.count:
            continue
        labels = "".join(f" {k}={v}" for k, v in sorted(metric.labels))
        print(f"  {metric.name}{labels}: n={metric.count} "
              f"p50={metric.p50 * 1e3:.3f}ms p95={metric.p95 * 1e3:.3f}ms "
              f"p99={metric.p99 * 1e3:.3f}ms")
    if args.out:
        prefix = args.out
        written = [
            write_snapshot(f"{prefix}.prom", snapshot),
            write_snapshot(f"{prefix}.jsonl", snapshot),
        ]
        write_chrome_trace(f"{prefix}.trace.json", sim.spans)
        written.append("chrome-trace")
        print(f"wrote {prefix}.prom, {prefix}.jsonl and {prefix}.trace.json "
              f"({', '.join(written)})")


def cmd_scenario(args):
    from repro.testbed.environment import ENVIRONMENTS, environment_keys
    from repro.testbed.scenario import TOOLS, ScenarioSpec, run_scenario

    if args.scenario_command == "list":
        envs = Table(["Key", "Capabilities", "Description"],
                     title="Environments")
        for key in environment_keys():
            entry = ENVIRONMENTS[key]
            envs.add_row(key, ", ".join(sorted(entry.capabilities)) or "-",
                         entry.description)
        print(envs)
        tools = Table(["Key", "Side", "Description"], title="Tools")
        for key in sorted(TOOLS):
            entry = TOOLS[key]
            tools.add_row(key, entry.side, entry.description)
        print(tools)
        print("Phones: " + ", ".join(sorted(PHONES)))
        return

    try:
        if args.spec:
            with open(args.spec, encoding="utf-8") as handle:
                spec = ScenarioSpec.from_json(handle.read())
        else:
            spec = ScenarioSpec(
                env=args.env, phone=args.phone, tool=args.tool,
                emulated_rtt=args.rtt * 1e-3, count=args.count,
                interval=args.interval, seed=args.seed,
                cross_traffic=args.cross_traffic,
                bus_sleep=not args.no_bus_sleep, observe=args.observe,
            )
    # OSError: an unreadable file; ValueError: not UTF-8, not JSON, or
    # not a valid spec (ScenarioError).
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.save_spec:
        with open(args.save_spec, "w", encoding="utf-8") as handle:
            handle.write(spec.to_json(indent=2) + "\n")
        print(f"saved spec to {args.save_spec}")
    print(f"running {spec.describe()} (seed {spec.seed})")
    result = run_scenario(spec)
    rtts = result.user_rtts
    stats = SummaryStats(rtts)
    lost = len(result.samples) - len(rtts)
    print(f"  probes: {len(result.samples)} ({lost} lost)")
    print(f"  user RTT: median {stats.median * 1e3:.2f}ms "
          f"mean {stats.mean * 1e3:.2f}ms "
          f"[{stats.minimum * 1e3:.2f}, {stats.maximum * 1e3:.2f}]")
    print(f"  error vs emulated: "
          f"{(stats.median - spec.emulated_rtt) * 1e3:+.2f}ms")
    if spec.observe:
        sim = result.testbed.sim
        print(f"  observed: {sim.events_fired} events fired, "
              f"{len(sim.spans)} spans")


def cmd_lint(args):
    import pathlib

    import repro
    from repro.lint import LintResult, render, run_lint

    if args.paths:
        roots = [pathlib.Path(path) for path in args.paths]
        # Explicit paths get the static rules only: the registry
        # contract is process-global, not a property of those files.
        include_project = False
    else:
        roots = [pathlib.Path(repro.__file__).resolve().parents[1]]
        include_project = True
    result = LintResult()
    for index, root in enumerate(roots):
        result.merge(run_lint(
            root, include_project_rules=include_project and index == 0))
    print(render(result, args.format))
    return result.exit_code


def cmd_analytic(args):
    from repro.analysis.analytic import AnalyticError, predict_for_profile
    from repro.sim.units import tu

    try:
        prediction = predict_for_profile(
            args.phone,
            beacon_interval=tu(args.beacon_interval_tu),
            offered_load=args.load,
            base_rtt=args.rtt * 1e-3,
            listen_interval=args.listen_interval,
        )
    except AnalyticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"Closed-form PSM predictions for {prediction['phone']} "
          "(docs/ANALYTIC.md)")
    table = Table(["Quantity", "Value"], title=None)
    rows = (
        ("beacon interval", f"{prediction['beacon_interval'] * 1e3:.1f}ms"),
        ("listen interval L", prediction["listen_interval"]),
        ("offered load", f"{prediction['offered_load']:g}/s"),
        ("Tip (PSM timeout)", f"{prediction['tip'] * 1e3:.0f}ms"),
        ("Tis (bus idle)", f"{prediction['tis'] * 1e3:.0f}ms"),
        ("Tprom (bus wake)", f"{prediction['tprom'] * 1e3:.1f}ms"),
        ("listen period", f"{prediction['psm_listen_period'] * 1e3:.1f}ms"),
        ("mean beacon wait",
         f"{prediction['psm_mean_beacon_wait'] * 1e3:.1f}ms"),
        ("P(dozing)", f"{prediction['psm_doze_probability']:.3f}"),
        ("P(bus asleep)", f"{prediction['bus_sleep_probability']:.3f}"),
        ("mean delay E[du]", f"{prediction['psm_mean_delay'] * 1e3:.1f}ms"),
    )
    for label, value in rows:
        table.add_row(label, value)
    print(table)


def cmd_phones(_args):
    table = Table(["Key", "Model", "WNIC", "Tis", "Tip", "L assoc"],
                  title="Phone profiles (Table 1 + Table 4)")
    for key, profile in PHONES.items():
        table.add_row(
            key, profile.name, profile.chipset.name,
            f"{profile.sdio_idle_window * 1e3:.0f}ms",
            f"~{profile.psm_timeout * 1e3:.0f}ms",
            profile.listen_interval_assoc,
        )
    print(table)


COMMANDS = {
    "table2": (cmd_table2, "multi-layer ping RTTs (Table 2)"),
    "table3": (cmd_table3, "driver dvsend/dvrecv delays (Table 3)"),
    "table5": (cmd_table5, "AcuteMon actual nRTT (Table 5)"),
    "overheads": (cmd_overheads, "AcuteMon overhead box stats (Figure 7)"),
    "compare": (cmd_compare, "tool comparison CDFs (Figure 8)"),
    "ping2": (cmd_ping2, "ping2 vs AcuteMon error sweep"),
    "campaign": (cmd_campaign, "run an env x phone x RTT x tool grid"),
    "cache": (cmd_cache, "inspect or compact a persistent result store "
                         "(docs/FABRIC.md)"),
    "report": (cmd_report, "delay-decomposition breakdown of a saved "
                           "campaign (which mechanism dominates where)"),
    "scenario": (cmd_scenario, "run one declarative scenario, or list "
                               "the registries"),
    "obs": (cmd_obs, "run one observed cell and export its metrics"),
    "analytic": (cmd_analytic, "closed-form PSM delay predictions for a "
                               "phone profile (docs/ANALYTIC.md)"),
    "phones": (cmd_phones, "list the modelled phone profiles"),
    "lint": (cmd_lint, "static-analysis engine: determinism, obs-guard, "
                       "API and registry contracts (docs/STATIC_ANALYSIS.md)"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Demystifying and Puncturing the "
                    "Inflated Delay in Smartphone-based WiFi Network "
                    "Measurement' (CoNEXT 2016)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default 0)")
    parser.add_argument("--count", type=int, default=30,
                        help="probes per cell (default 30; the paper uses "
                             "100, as do the benchmarks)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, help_text) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        if name in ("overheads", "compare", "ping2", "obs"):
            cmd.add_argument("--phone", default="nexus5",
                             choices=sorted(PHONES))
        if name == "compare":
            cmd.add_argument("--rtt", type=float, default=30.0,
                             help="emulated RTT in ms (default 30)")
            cmd.add_argument("--cross-traffic", action="store_true",
                             help="congest the WLAN with iPerf load")
        if name == "obs":
            cmd.add_argument("--rtt", type=float, default=30.0,
                             help="emulated RTT in ms (default 30)")
            cmd.add_argument("--tool", default="acutemon",
                             help="tool to observe (default acutemon)")
            cmd.add_argument("--out", default=None, metavar="PREFIX",
                             help="write PREFIX.prom, PREFIX.jsonl and "
                                  "PREFIX.trace.json")
        if name == "analytic":
            cmd.add_argument("--phone", default="nexus5",
                             choices=sorted(PHONES))
            cmd.add_argument("--rtt", type=float, default=0.0,
                             help="base (wired + awake-path) RTT in ms "
                                  "(default 0)")
            cmd.add_argument("--load", type=float, default=0.0,
                             help="offered probe load in arrivals/s "
                                  "(default 0 = always idle)")
            cmd.add_argument("--listen-interval", type=int, default=None,
                             metavar="L",
                             help="listen interval override (default: the "
                                  "profile's actual value)")
            cmd.add_argument("--beacon-interval-tu", type=int, default=100,
                             metavar="TU",
                             help="AP beacon interval in Time Units "
                                  "(default 100 = 102.4 ms)")
        if name == "scenario":
            scenario_sub = cmd.add_subparsers(dest="scenario_command",
                                              required=True)
            scenario_sub.add_parser(
                "list", help="list registered environments, tools, phones")
            run = scenario_sub.add_parser(
                "run", help="execute one scenario cell")
            run.add_argument("--env", default="wifi",
                             choices=environment_keys(),
                             help="environment key (default wifi)")
            run.add_argument("--tool", default="acutemon",
                             choices=tool_keys(),
                             help="registered tool (default acutemon)")
            run.add_argument("--phone", default="nexus5",
                             choices=sorted(PHONES))
            run.add_argument("--rtt", type=float, default=30.0,
                             help="emulated RTT in ms (default 30)")
            run.add_argument("--interval", type=float, default=1.0,
                             help="probe interval in s (default 1)")
            run.add_argument("--cross-traffic", action="store_true",
                             help="congest the WLAN with iPerf load "
                                  "(WiFi only)")
            run.add_argument("--no-bus-sleep", action="store_true",
                             help="disable SDIO bus sleep (WiFi only)")
            run.add_argument("--observe", action="store_true",
                             help="record metrics and spans")
            run.add_argument("--spec", default=None, metavar="PATH",
                             help="load the scenario from a JSON spec "
                                  "file (overrides the flags above)")
            run.add_argument("--save-spec", default=None, metavar="PATH",
                             help="write the resolved spec JSON before "
                                  "running")
        if name == "cache":
            cache_sub = cmd.add_subparsers(dest="cache_command",
                                           required=True)
            stats_cmd = cache_sub.add_parser(
                "stats", help="print store occupancy (segments, live "
                              "cells, bytes)")
            gc_cmd = cache_sub.add_parser(
                "gc", help="compact live records into one segment and "
                           "drop stale entries")
            for sub_cmd in (stats_cmd, gc_cmd):
                sub_cmd.add_argument("--store", required=True,
                                     metavar="DIR",
                                     help="result store directory")
        if name == "report":
            cmd.add_argument("campaign", metavar="CAMPAIGN.json",
                             help="campaign result file saved by "
                                  "`repro campaign --out` (cells must "
                                  "carry metrics)")
            cmd.add_argument("--format", default="text",
                             choices=("text", "json", "prom"),
                             help="report format (default text)")
            cmd.add_argument("--out", default=None, metavar="PATH",
                             help="write the report instead of printing")
        if name == "lint":
            cmd.add_argument("paths", nargs="*", metavar="PATH",
                             help="files or directories to lint (default: "
                                  "the installed repro package source; "
                                  "explicit paths skip the registry rule)")
            cmd.add_argument("--format", default="text",
                             choices=("text", "json"),
                             help="report format (default text)")
        if name == "campaign":
            cmd.add_argument("--env", nargs="+", default=["wifi"],
                             choices=environment_keys(),
                             help="environment keys to sweep "
                                  "(default wifi)")
            cmd.add_argument("--phones", nargs="+", default=["nexus5"],
                             choices=sorted(PHONES))
            cmd.add_argument("--rtts", nargs="+", type=float,
                             default=[20.0, 50.0],
                             help="emulated RTTs in ms")
            cmd.add_argument("--tools", nargs="+",
                             default=["acutemon", "ping"])
            cmd.add_argument("--out", default=None,
                             help="save results to a JSON file")
            cmd.add_argument("--workers", type=int, default=1,
                             metavar="N",
                             help="worker processes for the grid "
                                  "(default 1 = serial; 0 or negative = "
                                  "one per CPU; results are bit-identical "
                                  "either way)")
            cmd.add_argument("--metrics-out", default=None, metavar="PATH",
                             help="run cells observed and write the merged "
                                  "metrics snapshot (.jsonl = JSON lines, "
                                  "anything else = Prometheus text)")
            cmd.add_argument("--report-out", default=None, metavar="PATH",
                             help="run cells observed and write the delay-"
                                  "decomposition report (.json / .prom / "
                                  "anything else = text)")
            cmd.add_argument("--checkpoint", default=None, metavar="PATH",
                             help="journal each completed cell to this "
                                  "JSONL file (see docs/RESILIENCE.md)")
            cmd.add_argument("--resume", action="store_true",
                             help="skip cells already in --checkpoint and "
                                  "re-emit their cached results")
            cmd.add_argument("--cell-timeout", type=float, default=None,
                             metavar="S",
                             help="wall-clock budget per cell attempt in "
                                  "seconds (default: unlimited)")
            cmd.add_argument("--retries", type=int, default=0, metavar="N",
                             help="re-run a failing cell up to N times "
                                  "before quarantining it (default 0)")
            cmd.add_argument("--retry-backoff", type=float, default=0.0,
                             metavar="S",
                             help="base of the deterministic backoff "
                                  "between attempts: attempt i waits "
                                  "S * 2**i seconds (default 0)")
            cmd.add_argument("--shards", type=int, default=None,
                             metavar="N",
                             help="partition the grid into N fingerprint-"
                                  "keyed shards with work stealing "
                                  "(docs/FABRIC.md); --workers caps the "
                                  "pool")
            cmd.add_argument("--store", default=None, metavar="DIR",
                             help="persistent cross-campaign result "
                                  "store: cells cached there are re-"
                                  "emitted without executing, fresh "
                                  "cells are recorded for next time")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # Commands return an exit code or None (success).
    try:
        code = COMMANDS[args.command][0](args) or 0
        sys.stdout.flush()
    except BrokenPipeError:
        if not _stdout_broken():
            raise
        # The reader went away (``repro ... | head``).  Point stdout at
        # devnull so the interpreter's final flush cannot raise again,
        # and exit non-zero without a traceback, as the Python docs
        # recommend for SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _stdout_broken():
    """Whether stdout is a pipe whose reader has gone: such a pipe polls
    as an error.  A broken pipe raised by any other stream leaves stdout
    healthy; without ``poll`` (or a real stdout) it is never stdout's."""
    import select

    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
    except (AttributeError, OSError, ValueError):
        return False
    return any(events & select.POLLERR for _fd, events in poller.poll(0))


if __name__ == "__main__":
    sys.exit(main())
