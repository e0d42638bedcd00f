"""Serving one archive to many concurrent analysts through a shared cache.

Corresponds to: no single paper figure — this is the repo's extension of
the paper's progressive economy (incremental fragments per analyst,
§VI-C sessions) to the multi-user setting: a
:class:`repro.RetrievalService` multiplexes concurrent client sessions
over one sharded on-disk archive behind a shared LRU fragment cache, so
fragments read from disk for one client are served from memory to all
others.

Expected output: the archive size, then a two-row comparison — N
concurrent clients through the shared cache vs. N independent sessions,
each opening the archive lazily on its own —
where the shared configuration reads several times fewer bytes from the
store at a cache hit rate of about 75%, followed by a per-client line
confirming every client's QoI guarantee held.

Run:  python examples/service_multiclient.py
"""

import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import repro
from repro.parallel import blockwise_archive, blockwise_refactor
from repro.storage.archive import Archive

N_CLIENTS = 6
TOLERANCES = [1e-2, 1e-3, 1e-4]


def main():
    # -- 1. Archive a dataset once, into a sharded on-disk store ------------
    fields = repro.data.ge_cfd(num_nodes=20_000, seed=11)
    velocities = {k: v for k, v in fields.items() if k.startswith("velocity")}
    blocked = repro.parallel.BlockedDataset.from_fields(velocities, 1)
    refactored = blockwise_refactor(blocked, lambda: repro.make_refactorer("pmgard_hb"))

    root = tempfile.mkdtemp(prefix="repro-archive-")
    store = repro.ShardedDiskStore(root)
    blockwise_archive(blocked, refactored, Archive(store), method="pmgard_hb")
    print(f"archived {store.nbytes() / 1e6:.2f} MB of fragments -> {root}")

    qoi = repro.total_velocity(*(repro.parallel.block_variable(v, 0) for v in velocities))
    truth = np.sqrt(sum(v ** 2 for v in velocities.values()))
    qrange = float(truth.max() - truth.min())

    def ladder(session):
        """One analyst: loose request first, then tighten (incremental)."""
        for tol in TOLERANCES:
            result = session.retrieve([repro.QoIRequest("VTOT", qoi, tol, qrange)])
            assert result.all_satisfied
        return session.bytes_retrieved()

    # -- 2. N concurrent clients through one service + shared cache ---------
    shared_store = repro.ShardedDiskStore(root)
    service = repro.RetrievalService(shared_store)
    with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
        per_client = list(pool.map(
            lambda _: ladder(service.open_session()), range(N_CLIENTS)
        ))
    stats = service.stats()

    # -- 3. The same clients as fully independent sessions -------------------
    indep_store = repro.ShardedDiskStore(root)
    ranges = {repro.parallel.block_variable(k, 0): float(v.max() - v.min())
              for k, v in velocities.items()}

    def independent(_):
        # an Archive of its own: no fragment source (and so no fetched
        # payload) is shared with the other clients; the open is lazy,
        # one store trip for every variable
        loaded = Archive(indep_store).load_dataset(list(ranges))
        return ladder(repro.QoIRetriever(loaded, ranges).session())

    with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
        list(pool.map(independent, range(N_CLIENTS)))

    print(f"\n{N_CLIENTS} clients, tolerance ladder {TOLERANCES}:")
    print(f"  shared cache : {shared_store.bytes_read / 1e6:8.2f} MB from store "
          f"(hit rate {stats.cache.hit_rate:.1%})")
    print(f"  independent  : {indep_store.bytes_read / 1e6:8.2f} MB from store")
    print(f"  -> {indep_store.bytes_read / max(shared_store.bytes_read, 1):.1f}x "
          f"less store traffic with the shared cache")
    print(f"\nall {N_CLIENTS} clients satisfied their guarantees; per-client "
          f"session bytes: {sorted(set(per_client))}")
    assert shared_store.bytes_read < indep_store.bytes_read


if __name__ == "__main__":
    main()
