"""repro.fleet — the distributed sweep subsystem.

Why this package exists
-----------------------
The paper's headline workload is large design-space exploration: tuning
mapping/configuration spaces over STONNE cycle models, thousands of
simulations per layer.  :mod:`repro.engine` made that loop cached and
batched; its executor backends made it parallel *within* one machine.
This package is the next tier out — the same batch of cache misses, fanned
across machines:

:mod:`repro.fleet.protocol`
    The wire format: length-prefixed JSON frames carrying an engine
    spec (config + params + controller type + fingerprint), structural
    ``(pos, layer, mapping)`` items, and per-item stats/error results.
    Truncated and oversized frames raise
    :class:`~repro.fleet.protocol.ProtocolError` instead of yielding
    partial batches.

:mod:`repro.fleet.daemon`
    The daemon skeleton both TCP daemons (the worker below and the
    :mod:`repro.serve` sweep service) and their clients share: hello,
    optional HMAC auth, the request loop and its error policy, the
    blocking entry point, and :class:`~repro.fleet.daemon.DaemonLink`,
    the client connection.

:mod:`repro.fleet.worker`
    The daemon (``repro worker --listen HOST:PORT``): a threading TCP
    server that rebuilds one evaluation engine per engine spec —
    verifying the fingerprint, so fleet version skew fails loudly —
    runs each batch through it, deriving its own cache keys for an
    optional local stats cache (the SQLite tier shares it with
    co-located peers), and streams results back.

:mod:`repro.fleet.remote_backend`
    The client: an executor backend registered as ``"remote"``.  The
    engine's ``evaluate_many`` hands it a miss batch; it shards the
    batch round-robin across configured workers, retries dead workers'
    shards on survivors, and degrades to inline serial execution when
    the fleet is unreachable.  Because it is just another backend,
    ``Tuner.tune → measure_batch → evaluate_many`` distributes a GA
    generation with zero tuner changes — and results stay bit-identical
    to serial execution (the acceptance bar).

Workers and drivers sharing one
:class:`~repro.engine.sqlite_cache.SqliteStatsCache` see each other's
discoveries *mid-sweep*: worker A's measurement is worker B's cache hit
within the same tuning run.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fleet.protocol": (
        "PROTOCOL_VERSION", "ProtocolError", "decode_frame", "encode_frame",
    ),
    "repro.fleet.remote_backend": ("RemoteBackend",),
    "repro.fleet.daemon": ("parse_address",),
    "repro.fleet.worker": ("FleetWorker", "serve", "start_worker"),
})
