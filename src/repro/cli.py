"""Command-line interface.

`python -m repro <command>` (or the `repro` console script):

* ``repro demo`` -- build a system, run a workload, print the metrics;
* ``repro experiment <name>...`` -- regenerate paper tables/figures
  (fig3, fig4, fig5, fig6, table2, maintenance, ...) at a chosen scale
  through one executor; ``--out DIR`` also writes ``DIR/<name>.txt``;
* ``repro sweep`` -- sweep p_s over a grid and print the metric trio
  (latency / failure ratio / connum) per point;

``experiment`` and ``sweep`` fan their cells out over worker processes
(``--jobs``, default ``REPRO_JOBS`` or all cores) and memoize results
in the content-addressed cell cache (``~/.cache/repro-cells/`` or
``$REPRO_CELL_CACHE``; ``--no-cache`` disables) -- see
:mod:`repro.exec` and EXPERIMENTS.md "Running paper scale fast";
* ``repro analyze`` -- print the Section 4 closed-form tables.

Live-runtime verbs (real TCP; see :mod:`repro.runtime`):

* ``repro serve`` -- run the bootstrap/directory daemon;
* ``repro node --join HOST:PORT`` -- run one live peer;
* ``repro put KEY VALUE --node HOST:PORT`` / ``repro get KEY --node
  HOST:PORT`` -- store/fetch through a running node;
* ``repro put-file KEY FILE`` / ``repro get-file KEY`` -- chunked bulk
  transfer over the tracker-mode swarm plane (needs nodes started with
  ``--set snetwork_style=bittorrent``; every piece is hash-verified);
* ``repro status --node HOST:PORT`` -- JSON snapshot of a node or the
  bootstrap directory (``--pretty`` indents, ``--metrics`` folds in the
  node's metrics-registry snapshot);
* ``repro top --node HOST:PORT`` -- refreshing table of frame/lookup
  rates and hop/latency p50/p99 scraped from the node's ``/metrics.json``
  endpoint (see docs/OBSERVABILITY.md);
* ``repro bench-clients --node HOST:PORT`` -- open/closed-loop load
  generator against running nodes (:mod:`repro.loadgen`).

Every simulator command takes ``--seed``; runs are bit-reproducible.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import List, Optional, Tuple

from .core import HybridConfig, HybridSystem
from .experiments import Scale
from .metrics import format_table
from .workloads import KeyWorkload

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'An Efficient Hybrid Peer-to-Peer System for "
            "Distributed Data Sharing' (Yang & Yang)"
        ),
    )
    from . import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="build a system and run a workload")
    demo.add_argument("--peers", type=int, default=200)
    demo.add_argument("--ps", type=float, default=0.7, help="fraction of s-peers")
    demo.add_argument("--delta", type=int, default=3)
    demo.add_argument("--ttl", type=int, default=4)
    demo.add_argument("--keys", type=int, default=600)
    demo.add_argument("--lookups", type=int, default=600)
    demo.add_argument("--zipf", type=float, default=0.0)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--placement", choices=["direct", "spread"], default="spread")
    demo.add_argument("--bittorrent", action="store_true")
    demo.add_argument("--cache", action="store_true")

    exp = sub.add_parser("experiment", help="regenerate paper tables/figures")
    exp.add_argument(
        "names",
        metavar="name",
        nargs="+",
        choices=[
            "fig3", "fig4", "fig5", "fig6", "table2",
            "maintenance", "comparison", "stress", "churn", "replication",
            "swarm",
        ],
        help="one or more experiments, run through one executor so cells "
        "shared between them run once",
    )
    exp.add_argument("--scale", choices=["quick", "medium", "paper"], default="quick")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--out",
        metavar="DIR",
        type=pathlib.Path,
        default=None,
        help="also write each table to DIR/<name>.txt, stamped with the "
        "scale and wall time (how results/ is regenerated)",
    )
    _add_executor_args(exp)

    sweep = sub.add_parser("sweep", help="sweep p_s and print the metric trio")
    sweep.add_argument("--peers", type=int, default=120)
    sweep.add_argument("--keys", type=int, default=360)
    sweep.add_argument("--lookups", type=int, default=360)
    sweep.add_argument("--ttl", type=int, default=4)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--grid",
        type=float,
        nargs="+",
        default=[0.0, 0.2, 0.4, 0.6, 0.8, 0.9],
    )
    _add_executor_args(sweep)

    analyze = sub.add_parser("analyze", help="print the Section 4 closed forms")
    analyze.add_argument("--peers", type=int, default=1000)
    analyze.add_argument("--points", type=int, default=11)

    serve = sub.add_parser("serve", help="run the live bootstrap daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7401)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--ps", type=float, default=0.5, help="fraction of s-peers")
    serve.add_argument("--set", action="append", metavar="KEY=VALUE",
                       dest="overrides", default=None,
                       help="override a HybridConfig field (repeatable), "
                       "e.g. --set replication_factor=3 --set write_quorum=2")

    node = sub.add_parser("node", help="run one live peer")
    node.add_argument("--join", required=True, metavar="HOST:PORT",
                      help="bootstrap daemon endpoint")
    node.add_argument("--host", default="127.0.0.1")
    node.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    node.add_argument("--seed", type=int, default=0)
    node.add_argument("--capacity", type=float, default=1.0)
    node.add_argument("--set", action="append", metavar="KEY=VALUE",
                      dest="overrides", default=None,
                      help="override a HybridConfig field (repeatable), "
                      "e.g. --set replication_factor=3 --set write_quorum=2")

    put = sub.add_parser("put", help="store KEY=VALUE through a live node")
    put.add_argument("key")
    put.add_argument("value")
    put.add_argument("--node", required=True, metavar="HOST:PORT")
    put.add_argument("--timeout", type=float, default=10.0)

    get = sub.add_parser("get", help="look KEY up through a live node")
    get.add_argument("key")
    get.add_argument("--node", required=True, metavar="HOST:PORT")
    get.add_argument("--timeout", type=float, default=15.0)

    put_file = sub.add_parser(
        "put-file",
        help="publish FILE under KEY as hashed pieces + manifest (swarm)",
    )
    put_file.add_argument("key")
    put_file.add_argument("path", help="file to publish ('-' reads stdin)")
    put_file.add_argument("--node", required=True, metavar="HOST:PORT")
    put_file.add_argument("--piece-size", type=int, default=65536,
                          help="bytes per piece (default 64 KiB)")
    put_file.add_argument("--timeout", type=float, default=30.0)

    get_file = sub.add_parser(
        "get-file",
        help="fetch KEY's content via the swarm plane, verify every piece",
    )
    get_file.add_argument("key")
    get_file.add_argument("--node", required=True, metavar="HOST:PORT")
    get_file.add_argument("--out", metavar="FILE", default=None,
                          help="write the bytes here (default: stdout)")
    get_file.add_argument("--timeout", type=float, default=60.0)

    status = sub.add_parser("status", help="JSON status of a live node/server")
    status.add_argument("--node", required=True, metavar="HOST:PORT")
    status.add_argument("--timeout", type=float, default=10.0)
    status.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    status.add_argument("--metrics", action="store_true",
                        help="include the node's full metrics snapshot")

    top = sub.add_parser(
        "top", help="refreshing rates/latency table for a live node"
    )
    top.add_argument("--node", required=True, metavar="HOST:PORT")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between scrapes")
    top.add_argument("--count", type=int, default=0,
                     help="number of frames to render (0 = until ^C)")

    bench = sub.add_parser(
        "bench-clients",
        help="drive concurrent clients against live nodes, report latency",
    )
    bench.add_argument(
        "--node", action="append", metavar="HOST:PORT", required=True,
        help="target node (repeatable)",
    )
    bench.add_argument("--clients", type=int, default=4,
                       help="persistent client connections")
    bench.add_argument("--pipeline", type=int, default=16,
                       help="concurrent in-flight ops per connection "
                       "(closed loop)")
    bench.add_argument("--duration", type=float, default=5.0,
                       help="measured seconds (after warmup)")
    bench.add_argument("--warmup", type=float, default=0.5,
                       help="seconds driven but not recorded")
    bench.add_argument("--get-fraction", type=float, default=0.9,
                       help="fraction of ops that are gets (rest are puts)")
    bench.add_argument("--keyspace", type=int, default=256,
                       help="distinct keys (pre-stored before the run)")
    bench.add_argument("--rate", type=float, default=None,
                       help="open-loop dispatch rate in total ops/s "
                       "(default: closed loop)")
    bench.add_argument("--timeout", type=float, default=10.0)
    bench.add_argument("--seed", type=int, default=0)

    return parser


def _add_executor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep cells (default: REPRO_JOBS or all "
        "cores; 1 = inline, no subprocesses)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell instead of using the on-disk cell cache "
        "(~/.cache/repro-cells or $REPRO_CELL_CACHE)",
    )


def _make_executor(args: argparse.Namespace):
    from .exec import CellCache, CellExecutor

    return CellExecutor(
        jobs=args.jobs,
        cache=None if args.no_cache else CellCache(),
        progress=sys.stderr.isatty(),
    )


def _report_executor(name: str, executor) -> None:
    """Summary line on stderr (parsed by scripts/sweep_smoke.py)."""
    if executor.stats.cells_total:
        print(f"[sweep] {name}: {executor.summary()}", file=sys.stderr)


def _parse_endpoint(text: str) -> Tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", int(port)


def _cmd_demo(args: argparse.Namespace) -> int:
    config = HybridConfig(
        p_s=args.ps,
        delta=args.delta,
        ttl=args.ttl,
        placement=args.placement,
        snetwork_style="bittorrent" if args.bittorrent else "gnutella",
        cache_enabled=args.cache,
    )
    system = HybridSystem(config, n_peers=args.peers, seed=args.seed)
    system.build()
    peers = [p.address for p in system.alive_peers()]
    workload = KeyWorkload.uniform(
        args.keys, peers, system.rngs.stream("cli"), zipf_s=args.zipf
    )
    system.populate(workload.store_plan())
    system.run_lookups(workload.sample_lookups(args.lookups, peers))
    stats = system.query_stats()
    print(
        format_table(
            ["metric", "value"],
            [
                ["peers (t / s)", f"{len(system.t_peers())} / {len(system.s_peers())}"],
                ["items stored", system.total_items()],
                ["lookups", stats.total],
                ["failure ratio", f"{stats.failure_ratio:.4f}"],
                ["mean latency (ms)", f"{stats.mean_latency:.1f}"],
                ["median latency (ms)", f"{stats.median_latency:.1f}"],
                ["connum", stats.connum],
                ["local lookups", f"{stats.local_fraction:.1%}"],
            ],
            title=f"hybrid P2P demo (p_s={args.ps}, seed={args.seed})",
        )
    )
    return 0


def _render_experiment(name: str, scale: Scale, executor) -> str:
    """The table of one named experiment at ``scale`` (seed included)."""
    seed = scale.seed
    if name == "fig3":
        from .experiments import fig3_analysis

        return fig3_analysis.main(points=11)
    if name == "fig4":
        from .experiments import fig4_distribution

        return fig4_distribution.main(scale, executor=executor)
    if name == "fig5":
        from .experiments import fig5_failure

        return fig5_failure.main(scale, executor=executor)
    if name == "fig6":
        from .experiments import fig6_latency

        return fig6_latency.main(scale, executor=executor)
    if name == "table2":
        from .experiments import table2_connum

        return table2_connum.main(scale, executor=executor)
    if name == "maintenance":
        from .experiments import ext_maintenance

        return ext_maintenance.main(
            n_peers=scale.n_peers, seed=seed, executor=executor
        )
    if name == "comparison":
        from .experiments import ext_comparison

        return ext_comparison.main(
            n_peers=scale.n_peers, seed=seed, executor=executor
        )
    if name == "stress":
        from .experiments import ext_stress

        return ext_stress.main(n_peers=scale.n_peers, seed=seed, executor=executor)
    if name == "churn":
        from .experiments import ext_churn

        return ext_churn.main(
            n_peers=min(scale.n_peers, 100), seed=seed, executor=executor
        )
    if name == "replication":
        from .experiments import ext_replication

        return ext_replication.main(
            n_peers=min(scale.n_peers, 120), seed=seed, executor=executor
        )
    from .experiments import ext_swarm

    return ext_swarm.main(n_peers=min(scale.n_peers, 60), seed=seed)


def _cmd_experiment(args: argparse.Namespace) -> int:
    scale = {"quick": Scale.quick, "medium": Scale.medium, "paper": Scale.paper}[
        args.scale
    ](seed=args.seed)
    executor = _make_executor(args)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    for name in args.names:
        t0 = time.perf_counter()
        text = _render_experiment(name, scale, executor)
        print(text, flush=True)
        if args.out is not None:
            elapsed = time.perf_counter() - t0
            (args.out / f"{name}.txt").write_text(
                f"{text}\n\n[scale={args.scale}, {elapsed:.1f}s]\n"
            )
    _report_executor(" ".join(args.names), executor)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .exec import CellSpec

    executor = _make_executor(args)
    scale = Scale(
        n_peers=args.peers,
        n_keys=args.keys,
        n_lookups=args.lookups,
        seed=args.seed,
    )
    specs = [
        CellSpec(HybridConfig(p_s=p_s, ttl=args.ttl), scale, tag="sweep")
        for p_s in args.grid
    ]
    rows = [
        [
            f"{cell.p_s:.1f}",
            f"{cell.mean_latency:.0f}",
            f"{cell.failure_ratio:.3f}",
            cell.connum,
        ]
        for cell in executor.map(specs)
    ]
    print(
        format_table(
            ["p_s", "latency (ms)", "failure", "connum"],
            rows,
            title=f"p_s sweep (N={args.peers}, TTL={args.ttl})",
        )
    )
    _report_executor("sweep", executor)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .experiments import fig3_analysis

    print(fig3_analysis.main(n_peers=args.peers, points=args.points))
    return 0


# ----------------------------------------------------------------------
# Live-runtime verbs
# ----------------------------------------------------------------------
def _run_daemon(daemon) -> int:
    import asyncio

    async def _serve() -> None:
        await daemon.start()
        print(f"listening on {daemon.host}:{daemon.port}", flush=True)
        try:
            await asyncio.Event().wait()  # run until interrupted
        finally:
            await daemon.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _apply_config_overrides(config: HybridConfig, pairs) -> HybridConfig:
    """Apply repeatable ``--set KEY=VALUE`` flags to a config.

    Values are coerced by the target field's declared type (bool accepts
    true/false/yes/no/on/off/1/0), so subprocess daemons -- the
    failover-smoke harness, localnet scripts -- can receive any
    replication/liveness knob without a dedicated CLI flag each.
    """
    if not pairs:
        return config
    import dataclasses

    types = {f.name: f.type for f in dataclasses.fields(HybridConfig)}
    changes = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"error: --set expects KEY=VALUE, got {pair!r}")
        if key not in types:
            raise SystemExit(f"error: unknown config field {key!r}")
        ftype = types[key]
        if ftype in ("bool", bool):
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                changes[key] = True
            elif low in ("0", "false", "no", "off"):
                changes[key] = False
            else:
                raise SystemExit(f"error: {key} expects a boolean, got {raw!r}")
        elif ftype in ("int", int):
            changes[key] = int(raw)
        elif ftype in ("float", float):
            changes[key] = float(raw)
        else:
            changes[key] = raw
    try:
        return config.with_changes(**changes)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from .runtime import BootstrapNode

    config = _apply_config_overrides(
        HybridConfig(p_s=args.ps), getattr(args, "overrides", None)
    )
    return _run_daemon(BootstrapNode(args.host, args.port, config, seed=args.seed))


def _cmd_node(args: argparse.Namespace) -> int:
    import asyncio

    from .runtime import PeerNode, pack_endpoint

    host, port = _parse_endpoint(args.join)
    config = _apply_config_overrides(
        HybridConfig(server_address=pack_endpoint(host, port)),
        getattr(args, "overrides", None),
    )
    daemon = PeerNode(
        args.host, args.port, config, seed=args.seed, capacity=args.capacity
    )

    async def _serve() -> None:
        await daemon.start()
        await daemon.join()
        print(
            f"listening on {daemon.host}:{daemon.port} "
            f"(role={daemon.peer.role}, p_id={daemon.peer.p_id})",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await daemon.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _client_verb(args: argparse.Namespace, msg, pretty: bool = True) -> int:
    from .runtime import call

    host, port = _parse_endpoint(args.node)
    try:
        reply = call(host, port, msg, timeout=args.timeout)
    except (OSError, ConnectionError, TimeoutError) as exc:
        print(f"error: cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 1
    if not reply.ok:
        print(f"error: {reply.error}", file=sys.stderr)
        return 1
    print(json.dumps(reply.payload, indent=2 if pretty else None, sort_keys=True))
    return 0


def _cmd_put(args: argparse.Namespace) -> int:
    from .runtime import ClientPut

    return _client_verb(args, ClientPut(key=args.key, value=args.value))


def _cmd_get(args: argparse.Namespace) -> int:
    from .runtime import ClientGet

    return _client_verb(args, ClientGet(key=args.key))


def _cmd_put_file(args: argparse.Namespace) -> int:
    import asyncio

    from .runtime import ClientConnection, put_file

    if args.path == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(args.path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
            return 1
    host, port = _parse_endpoint(args.node)

    async def _run():
        async with ClientConnection(host, port) as conn:
            return await put_file(
                conn, args.key, data,
                piece_size=args.piece_size, timeout=args.timeout,
            )

    try:
        reply = asyncio.run(_run())
    except (OSError, ConnectionError, TimeoutError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(reply.payload, indent=2, sort_keys=True))
    return 0


def _cmd_get_file(args: argparse.Namespace) -> int:
    import asyncio

    from .runtime import ClientConnection, get_file

    host, port = _parse_endpoint(args.node)

    async def _run():
        async with ClientConnection(host, port) as conn:
            return await get_file(conn, args.key, timeout=args.timeout)

    try:
        data = asyncio.run(_run())
    except (OSError, ConnectionError, TimeoutError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
        print(f"wrote {len(data)} bytes to {args.out}", file=sys.stderr)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .runtime import ClientStatus

    return _client_verb(
        args,
        ClientStatus(include_metrics=args.metrics),
        pretty=args.pretty,
    )


def _cmd_bench_clients(args: argparse.Namespace) -> int:
    from .loadgen import LoadSpec, run_load_sync

    result = run_load_sync(LoadSpec(
        endpoints=[_parse_endpoint(text) for text in args.node],
        clients=args.clients,
        pipeline=args.pipeline,
        duration=args.duration,
        warmup=args.warmup,
        get_fraction=args.get_fraction,
        keyspace=args.keyspace,
        rate=args.rate,
        timeout=args.timeout,
        seed=args.seed,
    ))
    print(result)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs import run_top

    host, port = _parse_endpoint(args.node)
    try:
        run_top(host, port, interval=args.interval, count=args.count)
    except OSError as exc:
        print(f"error: cannot scrape {host}:{port}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "demo": _cmd_demo,
        "experiment": _cmd_experiment,
        "sweep": _cmd_sweep,
        "analyze": _cmd_analyze,
        "serve": _cmd_serve,
        "node": _cmd_node,
        "put": _cmd_put,
        "get": _cmd_get,
        "put-file": _cmd_put_file,
        "get-file": _cmd_get_file,
        "status": _cmd_status,
        "top": _cmd_top,
        "bench-clients": _cmd_bench_clients,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
