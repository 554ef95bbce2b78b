"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``mine``
    Mine frequent itemsets from a transaction file (one space-separated
    transaction per line) or a built-in generated dataset.
``generate``
    Write a generated dataset to a ``.dat`` file.
``compare``
    Run the YAFIM-vs-MRApriori comparison on a generated dataset and
    print the per-pass table (the paper's Fig. 3 view).
``serve``
    Run the multi-tenant mining service (job queue + caches) behind the
    JSON/HTTP front-end, in the foreground.
``submit``
    Submit a mining job to a running server, poll it to completion, and
    print the result like ``mine`` does.

Examples::

    python -m repro generate --dataset mushroom --scale 0.1 --out m.dat
    python -m repro mine --input m.dat --support 0.35 --algorithm yafim
    python -m repro mine --dataset chess --support 0.85 --rules 0.9
    python -m repro compare --dataset medical --support 0.03
    python -m repro serve --port 8080 --workers 4
    python -m repro submit --url http://127.0.0.1:8080 --dataset chess --support 0.85
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from repro.common.errors import ReproError


def _dataset_from_args(args) -> "object":
    from repro.datasets import (
        chess_like,
        medical_cases,
        mushroom_like,
        pumsb_star_like,
        t10i4d100k_like,
    )

    makers = {
        "mushroom": lambda: mushroom_like(scale=args.scale, seed=args.seed),
        "chess": lambda: chess_like(scale=args.scale, seed=args.seed),
        "pumsb_star": lambda: pumsb_star_like(scale=args.scale, seed=args.seed),
        "t10i4d100k": lambda: t10i4d100k_like(scale=args.scale, seed=args.seed),
        "medical": lambda: medical_cases(
            n_cases=max(200, int(5000 * args.scale)), seed=args.seed
        ),
    }
    try:
        return makers[args.dataset]()
    except KeyError:
        raise SystemExit(
            f"unknown dataset {args.dataset!r}; choose from {sorted(makers)}"
        ) from None


def _load_transactions(args) -> tuple[str, list]:
    if args.input:
        from repro.datasets import from_lines

        with open(args.input) as f:
            ds = from_lines(args.input, f)
        return ds.name, ds.transactions
    if args.dataset:
        ds = _dataset_from_args(args)
        return ds.name, ds.transactions
    raise SystemExit("provide --input FILE or --dataset NAME")


def _write_trace(traces, path: str) -> None:
    from repro.engine.tracing import export_chrome_trace

    try:
        export_chrome_trace([t for t in traces if t is not None], path)
    except OSError as err:
        raise ReproError(f"cannot write trace file {path!r}: {err}") from err
    print(f"wrote chrome://tracing JSON to {path}")


#: Algorithms with a paper dataflow to switch to.
_DATAFLOW_ALGORITHMS = ("yafim", "rapriori")


def _dataflow_options(args) -> dict:
    """Translate ``--paper-dataflow`` into miner options."""
    if not args.paper_dataflow:
        return {}
    if getattr(args, "algorithm", "yafim") not in _DATAFLOW_ALGORITHMS:
        raise ReproError(
            f"--paper-dataflow applies to "
            f"{'/'.join(_DATAFLOW_ALGORITHMS)}, not {args.algorithm!r}"
        )
    return {"paper_dataflow": True}


def _config_from_args(args):
    """The :class:`MiningConfig` the mining knobs of ``mine`` / ``submit``
    spell: every field but two is the flag of the same name."""
    from repro.core.registry import MiningConfig

    knobs = {
        f.name: getattr(args, f.name)
        for f in fields(MiningConfig)
        if f.name not in ("min_support", "options")
    }
    return MiningConfig(min_support=args.support, options=_dataflow_options(args), **knobs)


def _print_top_itemsets(itemsets: dict, top: int) -> None:
    shown = sorted(itemsets.items(), key=lambda kv: (-kv[1], kv[0]))
    for itemset, count in shown[:top]:
        print(f"  {' '.join(map(str, itemset)):40s} {count}")
    if len(shown) > top:
        print(f"  ... and {len(shown) - top} more")


def _read_delta(path: str) -> list:
    from repro.datasets import from_lines

    with open(path) as f:
        return from_lines(path, f).transactions


def _mine_with_appends(args, txns) -> int:
    """``mine --append-file``: build incremental state over the base
    window, fold each delta file in (one delta pass per affected level),
    and report update cost against a cold re-mine of the final window."""
    import time

    from repro.core.incremental import IncrementalMiner

    t0 = time.perf_counter()
    miner = IncrementalMiner(txns, args.support, max_length=args.max_length)
    build_s = time.perf_counter() - t0
    print(f"built incremental state over {miner.n_transactions} txns in {build_s:.3f}s")
    window = list(txns)
    update_total = 0.0
    for path in args.append_file:
        delta = _read_delta(path)
        window.extend(delta)
        t0 = time.perf_counter()
        miner.append(delta)
        update_s = time.perf_counter() - t0
        update_total += update_s
        up = miner.last_update
        mode = (
            f"full rebuild: {up.rebuild_reason}"
            if up.full_rebuild
            else f"{up.levels_delta} delta / {up.levels_remined} re-mined levels"
        )
        print(
            f"append {path}: +{len(delta)} txns -> v{up.version} "
            f"in {update_s:.3f}s ({mode})"
        )
    result = miner.result()
    print(result.summary())
    _print_top_itemsets(result.itemsets, args.top)
    t0 = time.perf_counter()
    IncrementalMiner(window, args.support, max_length=args.max_length)
    cold_s = time.perf_counter() - t0
    print(
        f"updates {update_total:.3f}s vs full re-mine {cold_s:.3f}s "
        f"({cold_s / max(update_total, 1e-9):.1f}x)"
    )
    if args.trace_out:
        _write_trace([result.trace], args.trace_out)
    return 0


def cmd_mine(args) -> int:
    from repro.core.api import mine_frequent_itemsets

    name, txns = _load_transactions(args)
    if args.append_file:
        return _mine_with_appends(args, txns)
    result = mine_frequent_itemsets(txns, config=_config_from_args(args))
    print(result.summary())
    _print_top_itemsets(result.itemsets, args.top)
    if args.rules is not None:
        from repro.core.rules import generate_rules, top_rules

        rules = generate_rules(
            result.itemsets, result.n_transactions, min_confidence=args.rules
        )
        print(f"\n{len(rules)} rules at confidence >= {args.rules:g}:")
        for rule in top_rules(rules, args.top):
            print(f"  {rule}")
    if args.trace_out:
        _write_trace([result.trace], args.trace_out)
    return 0


def cmd_generate(args) -> int:
    ds = _dataset_from_args(args)
    with open(args.out, "w") as f:
        for line in ds.to_lines():
            f.write(line + "\n")
    print(f"wrote {ds.n_transactions} transactions to {args.out}  ({ds.stats()})")
    return 0


def cmd_compare(args) -> int:
    from repro.bench.harness import replay_mr, replay_yafim, run_comparison
    from repro.bench.reporting import format_table
    from repro.cluster import PAPER_CLUSTER

    ds = _dataset_from_args(args)
    print(f"running YAFIM and MRApriori on {ds.name} at minsup={args.support:g} ...")
    store_kwargs = {"candidate_store": args.candidate_store}
    run = run_comparison(
        ds, args.support, num_partitions=args.parallelism or 8,
        max_length=args.max_length,
        yafim_kwargs={**_dataflow_options(args), **store_kwargs},
        mr_kwargs=store_kwargs,
    )
    rows = [(k, mr, ya, x) for k, mr, ya, x in run.per_pass()]
    print(format_table(["pass", "MRApriori (s)", "YAFIM (s)", "speedup"], rows))
    mr_c = replay_mr(run.mrapriori, PAPER_CLUSTER)
    ya_c = replay_yafim(run.yafim, PAPER_CLUSTER)
    print(
        f"outputs identical: {run.outputs_match}   "
        f"measured speedup {run.total_speedup:.2f}x   "
        f"paper-cluster replay {mr_c / ya_c:.1f}x"
    )
    if args.trace_out:
        _write_trace(run.traces, args.trace_out)
    return 0


def cmd_serve(args) -> int:
    from repro.serve.http import MiningServer

    # nothing that starts a thread may come before this: the server forks
    # its job workers while the process is single-threaded
    server = MiningServer(
        host=args.host,
        port=args.port,
        quiet=args.quiet,
        shards=args.shards,
        queue_limit=args.queue_limit,
        planner=args.planner,
        n_workers=args.workers,
        dataset_cache_bytes=args.dataset_cache_bytes,
        result_cache_entries=args.result_cache_entries,
        result_ttl_s=args.result_ttl,
        default_timeout_s=args.job_timeout,
    )
    print(
        f"serving on {server.url}  "
        f"(shards={args.shards}, workers/shard={args.workers}, "
        f"queue_limit={args.queue_limit}, planner={'on' if args.planner else 'off'}, "
        f"result_ttl={args.result_ttl:g}s; Ctrl-C to stop)",
        flush=True,
    )
    server.serve_forever()
    return 0


def cmd_submit(args) -> int:
    from repro.serve.client import HttpClient
    from repro.serve.http import itemsets_from_payload
    from repro.serve.jobs import ApiError

    if args.append and not args.dataset_id:
        raise ReproError("--append requires --dataset-id")
    client = HttpClient(args.url)
    config = _config_from_args(args)
    submit_kwargs = dict(
        priority=args.priority,
        timeout_s=args.timeout,
        max_retries=args.max_retries,
        tenant=args.tenant,
    )
    if args.dataset_id:
        try:
            client.dataset_info(args.dataset_id)
        except ApiError as err:
            if err.code != "unknown_dataset":
                raise
            _, txns = _load_transactions(args)
            info = client.create_dataset(
                args.dataset_id,
                txns,
                max_window=args.max_window,
                max_age_s=args.max_age,
                flush_rows=args.flush_rows,
                flush_age_s=args.flush_age,
            )
            policy = ", ".join(
                f"{k}={v}" for k, v in info.get("policy", {}).items() if v is not None
            )
            print(
                f"registered dataset {args.dataset_id!r} "
                f"(v{info['version']}, {info['n_transactions']} txns"
                + (f", {policy}" if policy else "") + ")"
            )
        if args.append:
            info = client.append_dataset(
                args.dataset_id, _read_delta(args.append), flush=args.flush
            )
            if info.get("flushed", True):
                print(
                    f"appended -> v{info['version']} "
                    f"({info['n_transactions']} txns, "
                    f"{info['invalidated_results']} stale cached result(s) dropped)"
                )
            else:
                print(
                    f"buffered ({info['buffered']} staged row(s), "
                    f"window still v{info['version']})"
                )
        snapshot = client.submit(None, config, dataset=args.dataset_id, **submit_kwargs)
    else:
        _, txns = _load_transactions(args)
        snapshot = client.submit(txns, config, **submit_kwargs)
    job_id = snapshot["job_id"]
    print(f"submitted {job_id} (state={snapshot['state']}, via={snapshot['via']})")
    if args.no_wait:
        return 0
    final = client.wait(job_id, timeout=args.poll_timeout)
    if final["state"] != "done":
        print(f"error: job {job_id} ended {final['state']}: {final.get('error')}",
              file=sys.stderr)
        return 2
    payload = client.result_detail(job_id)
    print(
        f"{payload['algorithm']}: {payload['num_itemsets']} frequent itemsets "
        f"(minsup={payload['min_support']:g}, |D|={payload['n_transactions']}, "
        f"via={payload['via']}, run={final.get('run_seconds')}s)"
    )
    _print_top_itemsets(itemsets_from_payload(payload), args.top)
    return 0


def cmd_watch(args) -> int:
    """``watch``: follow a dataset's frequent-itemset family over the
    ``/changes`` long-poll, printing one line per version transition."""
    from repro.serve.client import HttpClient

    client = HttpClient(args.url)
    info = client.dataset_info(args.dataset_id)
    since = args.since if args.since is not None else info["version"]
    print(
        f"watching {args.dataset_id!r} from v{since} "
        f"(support={args.support:g}, poll={args.poll_timeout:g}s)"
    )
    polls = 0
    while args.max_polls is None or polls < args.max_polls:
        polls += 1
        payload = client.dataset_changes(
            args.dataset_id,
            since=since,
            min_support=args.support,
            max_length=args.max_length,
            timeout_s=args.poll_timeout,
        )
        version = payload["version"]
        if payload.get("reset"):
            family = payload["family"]
            print(f"v{version}: reset — full family, {len(family)} itemsets")
            for itemset, count in family[: args.top]:
                print(f"  = {' '.join(map(str, itemset)):40s} {count}")
        elif version == since:
            print(f"v{version}: no change after {args.poll_timeout:g}s")
        else:
            added, removed, changed = (
                payload["added"], payload["removed"], payload["changed"]
            )
            print(
                f"v{since} -> v{version}: +{len(added)} -{len(removed)} "
                f"~{len(changed)} itemsets ({payload['n_transactions']} txns)"
            )
            for itemset, count in added[: args.top]:
                print(f"  + {' '.join(map(str, itemset)):40s} {count}")
            for itemset, count in removed[: args.top]:
                print(f"  - {' '.join(map(str, itemset)):40s} {count}")
            for itemset, old, new in changed[: args.top]:
                print(f"  ~ {' '.join(map(str, itemset)):40s} {old} -> {new}")
        since = version
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="YAFIM reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dataset", help="generated dataset name")
        p.add_argument("--scale", type=float, default=0.05, help="dataset scale")
        p.add_argument("--seed", type=int, default=0)

    # CLI choices derive from the registries (algorithms, candidate
    # stores, and the engine's BACKENDS tuple), so `register_algorithm` /
    # `register_store` plug new names into the flags without touching
    # this file, and a typo fails at parse time with the valid choices.
    from repro.core.candidatestore import store_names
    from repro.core.registry import MiningConfig, algorithm_names
    from repro.engine.executors import BACKENDS

    # ... and every mining flag's default is the dataclass's, spelled there
    defaults = {f.name: f.default for f in fields(MiningConfig)}

    def counting_knobs(p):
        p.add_argument(
            "--paper-dataflow", action="store_true",
            help="run the paper's literal Fig. 1-2 dataflow instead of the "
            "counting fast path (YAFIM/R-Apriori; same itemsets)",
        )
        p.add_argument(
            "--candidate-store", default=defaults["candidate_store"], choices=store_names(),
            help="candidate store for Phase-II counting "
            "(bitmap = vertical tid-bitmap kernel)",
        )

    def mining_knobs(p):
        p.add_argument("--support", type=float, required=True)
        p.add_argument("--algorithm", default=defaults["algorithm"], choices=algorithm_names())
        p.add_argument("--max-length", type=int, default=None)
        p.add_argument("--backend", default=defaults["backend"], choices=BACKENDS)
        p.add_argument("--parallelism", type=int, default=None)
        counting_knobs(p)
        p.add_argument(
            "--num-partitions", type=int, default=None,
            help="partitions for the transaction RDD and shuffles",
        )
        p.add_argument(
            "--incremental", action="store_true",
            help="incremental tier: delta-maintained counts with "
            "border-bounded re-mining (runs in-process on bitmaps: "
            "--backend and --candidate-store are inert)",
        )
        p.add_argument("--top", type=int, default=15, help="itemsets/rules to print")

    mine = sub.add_parser("mine", help="mine frequent itemsets")
    common(mine)
    mine.add_argument("--input", help="transaction file (one txn per line)")
    mining_knobs(mine)
    mine.add_argument(
        "--append-file", action="append", default=None, metavar="FILE",
        help="after mining the base window incrementally, append this "
        "file's transactions as a delta update (repeatable; reports "
        "update cost vs a full re-mine)",
    )
    mine.add_argument(
        "--rules", type=float, default=None, metavar="CONF",
        help="also emit association rules at this confidence",
    )
    mine.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the run's chrome://tracing JSON here",
    )
    mine.set_defaults(func=cmd_mine)

    gen = sub.add_parser("generate", help="write a generated dataset to a file")
    common(gen)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    cmp_ = sub.add_parser("compare", help="YAFIM vs MRApriori per-pass comparison")
    common(cmp_)
    cmp_.add_argument("--support", type=float, required=True)
    cmp_.add_argument("--max-length", type=int, default=None)
    cmp_.add_argument("--parallelism", type=int, default=None)
    counting_knobs(cmp_)
    cmp_.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write both runs' chrome://tracing JSON here",
    )
    cmp_.set_defaults(func=cmd_compare)

    serve = sub.add_parser("serve", help="run the mining service over HTTP")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080, help="0 = ephemeral")
    serve.add_argument(
        "--workers", type=int, default=4,
        help="concurrent running jobs per shard (a worker thread + its job-worker process each)",
    )
    serve.add_argument(
        "--shards", type=int, default=1,
        help="mining-service shards behind a consistent-hash router "
        "(each gets --workers threads and its own caches)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=32,
        help="bounded queue per shard; a full queue answers 429 (default 32)",
    )
    serve.add_argument(
        "--planner", action="store_true",
        help="run each job the caller left unpinned on the bitmap store "
        "(one partition on serial); never picks a backend",
    )
    serve.add_argument(
        "--dataset-cache-bytes", type=int, default=64 * 1024 * 1024,
        help="byte budget for the cross-job dataset cache",
    )
    serve.add_argument(
        "--result-cache-entries", type=int, default=256,
        help="LRU size of the result memoizer",
    )
    serve.add_argument(
        "--result-ttl", type=float, default=300.0,
        help="seconds a memoized result stays fresh",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None,
        help="default per-job timeout in seconds (none = unbounded)",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logs",
    )
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser("submit", help="submit a job to a running server")
    common(submit)
    submit.add_argument("--input", help="transaction file (one txn per line)")
    submit.add_argument(
        "--url", default="http://127.0.0.1:8080", help="server base URL",
    )
    mining_knobs(submit)
    submit.add_argument(
        "--dataset-id", default=None, metavar="NAME",
        help="submit against a named server-side dataset (registered "
        "from the local transactions on first use); appends keep its "
        "warm incremental state on one home shard",
    )
    submit.add_argument(
        "--append", default=None, metavar="FILE",
        help="with --dataset-id: append this file's transactions to the "
        "dataset (new version, stale cached results dropped) before "
        "submitting",
    )
    submit.add_argument(
        "--max-window", type=int, default=None, metavar="N",
        help="with --dataset-id (on first registration): retire the "
        "oldest transactions whenever the window exceeds N",
    )
    submit.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="with --dataset-id (on first registration): retire "
        "transactions older than this many seconds",
    )
    submit.add_argument(
        "--flush-rows", type=int, default=None, metavar="N",
        help="with --dataset-id (on first registration): buffer appends "
        "and fold them into one update every N staged rows",
    )
    submit.add_argument(
        "--flush-age", type=float, default=None, metavar="SECONDS",
        help="with --dataset-id (on first registration): flush the "
        "ingest buffer when its oldest staged row is this old",
    )
    submit.add_argument(
        "--flush", action="store_true",
        help="with --append: force the ingest buffer through now instead "
        "of waiting for a flush trigger",
    )
    submit.add_argument("--priority", type=int, default=0, help="lower runs first")
    submit.add_argument(
        "--tenant", default="default",
        help="tenant label for fair-share scheduling and per-tenant metrics",
    )
    submit.add_argument(
        "--timeout", type=float, default=None, help="server-side job timeout (s)",
    )
    submit.add_argument(
        "--max-retries", type=int, default=0,
        help="retries for transient engine faults",
    )
    submit.add_argument(
        "--no-wait", action="store_true", help="print the job id and exit",
    )
    submit.add_argument(
        "--poll-timeout", type=float, default=300.0,
        help="seconds to poll before giving up",
    )
    submit.set_defaults(func=cmd_submit)

    watch = sub.add_parser(
        "watch", help="follow a dataset's itemset-family change feed"
    )
    watch.add_argument(
        "--url", default="http://127.0.0.1:8080", help="server base URL",
    )
    watch.add_argument(
        "--dataset-id", required=True, metavar="NAME",
        help="named server-side dataset to watch",
    )
    watch.add_argument("--support", type=float, required=True)
    watch.add_argument("--max-length", type=int, default=None)
    watch.add_argument(
        "--since", type=int, default=None, metavar="VERSION",
        help="start from this version (default: the current one)",
    )
    watch.add_argument(
        "--poll-timeout", type=float, default=20.0,
        help="seconds each long-poll waits for the next version",
    )
    watch.add_argument(
        "--max-polls", type=int, default=None,
        help="stop after this many polls (default: forever)",
    )
    watch.add_argument("--top", type=int, default=15, help="itemsets to print per diff")
    watch.set_defaults(func=cmd_watch)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
