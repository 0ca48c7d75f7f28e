"""repro -- reproduction of "An Efficient Hybrid Peer-to-Peer System for
Distributed Data Sharing" (Min Yang & Yuanyuan Yang, IPPS 2008; journal
version IEEE Trans. Computers 2010).

The package implements the paper's hybrid overlay -- a Chord-like
structured *t-network* ring anchoring many Gnutella-like unstructured
*s-network* trees -- together with every substrate its NS2/GT-ITM
evaluation relied on, rebuilt in pure Python:

* :mod:`repro.sim` -- discrete-event engine, timers, RNG streams;
* :mod:`repro.net` -- transit-stub topologies, routing, link capacities;
* :mod:`repro.overlay` -- ID space, messages, transport;
* :mod:`repro.core` -- the hybrid system itself;
* :mod:`repro.enhance` -- Section 5 enhancements;
* :mod:`repro.analysis` -- Section 4 closed-form models (Fig. 3);
* :mod:`repro.workloads` -- key/churn/scenario generators;
* :mod:`repro.metrics` -- distribution and report helpers;
* :mod:`repro.experiments` -- one driver per paper table/figure;
* :mod:`repro.runtime` -- the same protocol over real asyncio TCP
  (live nodes, bootstrap daemon, wire codec, localnet harness);
* :mod:`repro.obs` -- unified observability: metrics registry, trace
  bridge, Prometheus ``/metrics`` endpoint, ``repro top``.

Quickstart::

    from repro import HybridConfig, HybridSystem

    system = HybridSystem(HybridConfig(p_s=0.7, delta=3, ttl=4), n_peers=200, seed=1)
    system.build()
    origin = system.s_peers()[0].address
    system.populate([(origin, "song.mp3", b"...")])
    system.run_lookups([(system.s_peers()[-1].address, "song.mp3")])
    print(system.query_stats())
"""

from .core import HybridConfig, HybridPeer, HybridSystem, QueryStats

try:  # installed: single source of truth is the package metadata
    from importlib.metadata import PackageNotFoundError, version

    __version__ = version("repro")
except PackageNotFoundError:  # running from a source checkout
    __version__ = "1.1.0"

__all__ = ["HybridConfig", "HybridPeer", "HybridSystem", "QueryStats", "__version__"]
