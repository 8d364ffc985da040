"""``python -m repro serve`` / ``python -m repro loadgen``.

``serve`` boots the always-on advisor daemon: it builds (or loads) a
trained model exactly like ``repro advise`` does, generates the
resident corpus tier, and serves until SIGTERM/SIGINT, draining
queued requests before exit.  ``loadgen`` generates a seeded
zipf/bursty trace (:mod:`repro.serve.loadgen`) and replays it
open-loop against a running daemon, printing the client-side SLO
report.  Both honor the global ``--quiet``/``--verbose`` flags the
same way ``sweep``/``report`` do: data on stdout, status through the
``repro`` logger on stderr.
"""

from __future__ import annotations

import asyncio
import json
import os

from ..obs.log import get_logger
from ..spmv.registry import KERNELS

log = get_logger("cli")


def _load_or_train_model(args):
    """The ``advise`` CLI's model recipe, shared by ``serve``."""
    from ..advisor import AdvisorModel, train_model
    from ..harness.runner import OrderingCache
    from ..machine import get_architecture

    if args.model and os.path.exists(args.model):
        model = AdvisorModel.load(args.model)
        log.info("loaded model from %s (%s training rows)", args.model,
                 model.trained_on.get("rows", "?"))
        return model
    arch = get_architecture(args.arch)
    orderings = args.orderings.split(",") if args.orderings else None
    cache = OrderingCache(path=args.cache) if args.cache else None
    model = train_model(tier=args.train_tier, architectures=[arch],
                        orderings=orderings, cache=cache,
                        seed=args.seed, limit=args.train_limit)
    log.info("trained on %d rows (%s tier, %s)",
             model.trained_on["rows"], args.train_tier, arch.name)
    if args.model:
        model.save(args.model)
        log.info("saved model to %s", args.model)
    return model


def _cmd_serve(args) -> int:
    from ..advisor import Advisor
    from ..generators import build_corpus
    from ..obs import trace as obs_trace
    from .daemon import AdvisorDaemon, ServeConfig

    corpus = build_corpus(args.tier, seed=args.seed)
    if args.limit:
        corpus = corpus[:args.limit]
    model = _load_or_train_model(args)
    advisor = Advisor(model, iterations=args.iterations)
    config = ServeConfig(
        host=args.host, port=args.port, default_arch=args.arch,
        max_batch=args.max_batch, queue_depth=args.queue_depth,
        rate=args.rate if args.rate > 0 else None, burst=args.burst,
        drain_timeout=args.drain_timeout)
    if args.trace:
        obs_trace.enable(jsonl_path=obs_trace.sidecar_path(args.trace))

    async def main() -> None:
        daemon = AdvisorDaemon(advisor, corpus, config)
        await daemon.start()
        daemon.install_signal_handlers()
        # the actual bound port (port 0 picks a free one) is *data* —
        # wrappers parse it to find the daemon
        print(f"listening on http://{config.host}:{daemon.port}",
              flush=True)
        await daemon.serve_forever()

    asyncio.run(main())
    if args.trace:
        nevents = obs_trace.TRACER.save(args.trace)
        obs_trace.disable()
        obs_trace.TRACER.clear()
        log.info("wrote %s (%d events; merge with the loadgen trace "
                 "via 'repro perf merge-trace')", args.trace, nevents)
    return 0


def _cmd_loadgen(args) -> int:
    from ..generators import build_corpus
    from ..obs import trace as obs_trace
    from .loadgen import generate_trace, replay

    if args.matrices:
        names = args.matrices.split(",")
    else:
        names = [e.name for e in build_corpus(args.tier,
                                              seed=args.seed)]
        if args.limit:
            names = names[:args.limit]
    trace = generate_trace(
        names, n=args.requests, seed=args.seed, rate=args.rate,
        zipf_s=args.zipf, burst_factor=args.burst_factor,
        burst_period=args.burst_period, burst_duty=args.burst_duty,
        clients=args.clients)
    log.info("replaying %d requests over %.2fs against %s:%d",
             len(trace), trace[-1].t, args.host, args.port)
    if args.trace_out:
        obs_trace.enable()
    report = replay(trace, host=args.host, port=args.port,
                    arch=args.arch, kernel=args.kernel,
                    iterations=args.iterations, top=args.top,
                    timeout=args.timeout)
    if args.trace_out:
        nevents = obs_trace.TRACER.save(args.trace_out)
        obs_trace.disable()
        obs_trace.TRACER.clear()
        log.info("wrote %s (%d client spans; merge with the server "
                 "trace via 'repro perf merge-trace')", args.trace_out,
                 nevents)
    print(report.render())
    if args.json:
        with open(args.json, "wt") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        log.info("wrote %s", args.json)
    # transport failures mean the daemon was unreachable or hung;
    # structured rejects are the daemon working as designed
    return 1 if report.transport_failures else 0


def add_serve_parsers(sub) -> None:
    """Attach ``serve`` and ``loadgen`` to the main CLI subparsers."""
    p = sub.add_parser(
        "serve",
        help="run the always-on advisor daemon (micro-batching, "
             "admission control, /healthz + /metricsz)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8377,
                   help="listen port (0 picks a free port)")
    p.add_argument("--tier", default="tiny",
                   choices=("tiny", "small", "medium"),
                   help="resident corpus tier the daemon advises on")
    p.add_argument("--limit", type=int, default=None,
                   help="cap the number of resident matrices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arch", default="Milan B",
                   help="default architecture for requests that omit "
                        "one")
    p.add_argument("--model", default=None,
                   help="JSON model artifact to load (or save after "
                        "training)")
    p.add_argument("--train-tier", default="tiny",
                   choices=("tiny", "small", "medium"))
    p.add_argument("--train-limit", type=int, default=None,
                   help="cap the number of training matrices")
    p.add_argument("--orderings", default="",
                   help="comma-separated candidate orderings "
                        "(default: all six)")
    p.add_argument("--iterations", type=float, default=None,
                   help="default SpMV iteration budget for cost "
                        "gating")
    p.add_argument("--cache", default=None,
                   help="directory for the training ordering cache")
    p.add_argument("--max-batch", type=int, default=32,
                   help="largest micro-batch advised in one executor hop")
    p.add_argument("--queue-depth", type=int, default=128,
                   help="queued requests beyond this are shed (429)")
    p.add_argument("--rate", type=float, default=50.0,
                   help="per-client admission tokens/second "
                        "(0 disables rate limiting)")
    p.add_argument("--burst", type=float, default=20.0,
                   help="per-client token-bucket capacity")
    p.add_argument("--drain-timeout", type=float, default=5.0,
                   help="grace seconds for queued work on "
                        "SIGTERM/SIGINT")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record request/queue/advisor spans and write "
                        "a Chrome trace (plus .jsonl sidecar) on exit")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="replay a seeded zipf/bursty trace against a running "
             "daemon (open loop)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8377)
    p.add_argument("--tier", default="tiny",
                   choices=("tiny", "small", "medium"),
                   help="corpus tier to draw matrix names from "
                        "(must match the daemon's)")
    p.add_argument("--limit", type=int, default=None,
                   help="cap the number of matrix names")
    p.add_argument("--matrices", default="",
                   help="comma-separated matrix names (overrides "
                        "--tier)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--requests", type=int, default=200,
                   help="trace length")
    p.add_argument("--rate", type=float, default=200.0,
                   help="base arrival rate, requests/second")
    p.add_argument("--zipf", type=float, default=1.1,
                   help="zipf popularity exponent")
    p.add_argument("--burst-factor", type=float, default=4.0,
                   help="arrival-rate multiplier inside burst windows")
    p.add_argument("--burst-period", type=float, default=0.5,
                   help="seconds per burst cycle")
    p.add_argument("--burst-duty", type=float, default=0.5,
                   help="fraction of each cycle spent bursting")
    p.add_argument("--clients", type=int, default=4,
                   help="distinct admission-control identities")
    p.add_argument("--arch", default=None,
                   help="architecture for every request (default: "
                        "the daemon's default)")
    p.add_argument("--kernel", default="1d", choices=KERNELS)
    p.add_argument("--iterations", type=float, default=None)
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--timeout", type=float, default=10.0,
                   help="per-request client timeout in seconds")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the machine-readable report")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="record one client span per request and write "
                        "a Chrome trace to merge with the server's")
    p.set_defaults(func=_cmd_loadgen)
