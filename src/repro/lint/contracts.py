"""The pipeline contracts reprolint enforces, as shared vocabulary.

Every rule family checks some slice of the same small set of
methodology contracts (paper §III-E and the streaming-equivalence
guarantee); this module is the single home for the names those
contracts are anchored on, so the per-module rules and the
whole-program passes (call graph, concurrency, schema and unit
checking) cannot drift apart on what counts as "enrichment" or "edge
construction".
"""

#: defining or importing either of these marks a grouping module —
#: exactly the campaign core (core/aggregation.py) and its sharded
#: front-end (scale/shards.py) today, and automatically any future
#: module that takes on edge construction.
GROUPING_FUNCTIONS = frozenset({"record_attachments", "build_campaign"})

#: modules whose outputs are enrichment-only (prefix matched): values
#: produced by them are *informative* annotations and must never feed
#: campaign grouping.
TAINTED_MODULES = frozenset({
    "repro.core.enrichment",
    "repro.osint.stock_tools",
    "repro.binfmt.packers",
    "repro.binfmt.entropy",
    "repro.botnet",
})

#: attributes owned by the enrichment stage (on records or campaigns).
#: Reads of these — as ``.attr`` or as constant ``["attr"]`` keys on
#: record-shaped dicts — inside a grouping module are TAINT002.
TAINTED_ATTRIBUTES = frozenset({
    "uses_ppi", "ppi_botnets", "stock_tools", "stock_tool_matches",
    "obfuscated", "packers", "packer", "entropy",
})

#: module stems that anchor dead-symbol reachability: the CLI layer.
#: DEAD001 only runs when the analyzed project contains at least one
#: entrypoint module, so linting a lone module stays conservative.
ENTRYPOINT_STEMS = frozenset({"cli", "__main__"})

# -- concurrency discipline (FORK/ASYNC/THR families) ----------------------

#: constructor names (last dotted segment) that start an OS thread.
THREAD_SPAWN_CALLS = frozenset({"Thread", "Timer"})

#: constructor names (last dotted segment) that fork worker processes.
#: ``os.fork`` is matched by its full dotted text (see FORK_POINT_TEXTS)
#: because a bare ``fork`` attribute is too ambiguous.
FORK_POINT_CALLS = frozenset({"ProcessPoolExecutor", "Pool", "Process"})
FORK_POINT_TEXTS = frozenset({"os.fork"})

#: method names that retire a live thread (or drain its owner).  A
#: thread spawned at line S is considered live until the first such
#: call after S in the same function.
THREAD_RELEASE_CALLS = frozenset({"close", "join", "stop", "shutdown"})

#: call texts that block the calling thread — poison inside a
#: coroutine body (ASYNC001).  Dotted texts match exactly; prefixes
#: match whole leading segments ("subprocess" covers subprocess.run).
BLOCKING_CALL_TEXTS = frozenset({
    "time.sleep", "socket.create_connection", "select.select",
    "urllib.request.urlopen", "input", "open",
})
BLOCKING_CALL_PREFIXES = frozenset({"subprocess"})

#: method names (attribute calls only) that block: raw socket I/O and
#: synchronous file reads.  An *awaited* call is never blocking — the
#: async stream APIs share these names.
BLOCKING_METHODS = frozenset({
    "recv", "recv_into", "accept", "connect", "sendall",
    "read", "readinto", "readlines",
})

#: executor hand-off calls: work scheduled through these runs off the
#: event loop, so their callable arguments are not coroutine-reachable.
EXECUTOR_HOP_CALLS = frozenset({"run_in_executor", "to_thread"})

#: call names that *schedule* a coroutine object (ASYNC002 accepts a
#: coroutine call appearing as an argument to any of these in lieu of
#: ``await``).
COROUTINE_SCHEDULE_CALLS = frozenset({
    "create_task", "ensure_future", "gather", "run",
    "run_until_complete", "wait", "wait_for",
    "run_coroutine_threadsafe", "shield",
})

#: loop-marshalling calls: a callback handed to these runs on the
#: event-loop thread, so loop-affine flips inside count as on-loop.
LOOP_MARSHAL_CALLS = frozenset({"call_soon", "call_soon_threadsafe",
                                "call_later"})

#: method names that flip lock-free hot-swap state readers race on.
#: Calls resolving to one of these on a class that also defines
#: coroutines must come from the loop thread (async caller or a
#: LOOP_MARSHAL_CALLS callback) — ASYNC002's affinity half.
LOOP_AFFINE_METHODS = frozenset({"swap"})

#: module-level mutable initialisers exempt from THR001: these types
#: are the sanctioned cross-thread channels.
THREAD_SAFE_TYPES = frozenset({
    "Queue", "LifoQueue", "PriorityQueue", "SimpleQueue", "Event",
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Barrier", "deque", "local",
})

# -- domain kinds & quantity units (UNIT/KIND families) ---------------------

#: Per-field semantic declarations for the paper's record schemas:
#: ``class name -> field name -> (unit, kind)``, where either slot may
#: be None.  Units are quantity dimensions ("XMR", the generic "coin",
#: "USD", the "usd_per_coin" rate, "hs" hashrate, cumulative "hashes",
#: "shares", simulated "date"); kinds are identifier namespaces
#: ("sha256", "wallet", "domain", "campaign-id", "pool-url", "email").
#: This table is the single source of truth the SCHEMA pass checks for
#: drift against the real dataclasses and the UNIT/KIND pass flattens
#: into its seed maps (:mod:`repro.lint.units`).
RECORD_FIELD_CONTRACTS = {
    # core/records.py — Table I
    "MinerRecord": {
        "sha256": (None, "sha256"),
        "user": (None, "wallet"),
        "url_pool": (None, "pool-url"),
        "first_seen": ("date", None),
        "identifiers": (None, "wallet"),
    },
    # core/records.py — Table II
    "WalletRecord": {
        "user": (None, "wallet"),
        "hashes": ("hashes", None),
        "hashrate": ("hs", None),
        "last_share": ("date", None),
        "balance": ("coin", None),
        "total_paid": ("coin", None),
        "date_query": ("date", None),
        "usd": ("USD", None),
    },
    # pools/pool.py — the public API view and the internal ledger
    "WalletStats": {
        "identifier": (None, "wallet"),
        "hashes": ("hashes", None),
        "last_hashrate": ("hs", None),
        "last_share": ("date", None),
        "balance": ("coin", None),
        "total_paid": ("coin", None),
    },
    "_WalletAccount": {
        "identifier": (None, "wallet"),
        "hashes": ("hashes", None),
        "balance": ("coin", None),
        "total_paid": ("coin", None),
        "last_share": ("date", None),
        "last_hashrate": ("hs", None),
        "banned_on": ("date", None),
    },
    # core/profit.py
    "WalletProfile": {
        "identifier": (None, "wallet"),
    },
    # core/aggregation.py
    "Campaign": {
        "campaign_id": (None, "campaign-id"),
        "sample_hashes": (None, "sha256"),
        "identifiers": (None, "wallet"),
        "total_xmr": ("XMR", None),
        "total_usd": ("USD", None),
        "first_seen": ("date", None),
        "last_seen": ("date", None),
        "last_share": ("date", None),
    },
}

#: Mapping names (``self._attr`` attributes or well-known locals)
#: whose *keys* live in one identifier namespace — the serve-layer
#: IntelIndex tables and the aggregation/index joins.  KIND002 flags a
#: key of a different kind flowing into one of these.
MAPPING_KEY_KINDS = {
    # serve/index.py — IntelIndex tables
    "_hashes": "sha256",
    "_wallets": "wallet",
    "_campaigns": "campaign-id",
    "_domains": "domain",
    # serve/index.py — build_index joins and payload tables
    "campaign_of_sample": "sha256",
    "campaign_of_wallet": "wallet",
    "wallet_samples": "wallet",
    "wallet_coin": "wallet",
    "hashes": "sha256",
    "domains": "domain",
    "campaigns": "campaign-id",
    # pools/pool.py — the per-wallet ledger
    "_accounts": "wallet",
    # core/aggregation.py — per-identifier coin attribution
    "identifier_coins": "wallet",
}

#: Functions (matched on the qualname's last segment, or the full
#: dotted call text) with seeded parameter semantics:
#: ``name -> {param name: (unit, kind)}``.
FUNCTION_PARAM_CONTRACTS = {
    "to_usd": {"amount": ("coin", None)},
    "hash_intel": {"sha256": (None, "sha256")},
    "wallet_intel": {"identifier": (None, "wallet")},
    "campaign_intel": {"campaign_id": (None, "campaign-id")},
    "domain_intel": {"name": (None, "domain")},
    "api_wallet_stats": {"identifier": (None, "wallet")},
    "credit_mining_day": {"hashrate_hs": ("hs", None)},
}

#: Functions whose *return value* has a seeded unit or kind (the
#: conversion witnesses among them make UNIT002's "converted" edge:
#: a value produced by ``to_usd`` *is* USD).
FUNCTION_RETURN_CONTRACTS = {
    "to_usd": ("USD", None),
    "rate": ("usd_per_coin", None),
    "credit_mining_day": ("coin", None),
    "daily_emission": ("coin", None),
    "network_hashrate_hs": ("hs", None),
}

#: Module-level constants with a seeded unit (matched on the bare
#: name or the last dotted segment of a read).
CONSTANT_UNITS = {
    "AVERAGE_XMR_USD": "usd_per_coin",
}
