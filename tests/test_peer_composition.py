"""The peer class is composed from its config, by construction.

``peer_class(config)`` is the core ``HybridPeer`` plus exactly the
mixins of the features the config turns on, in one fixed order; a
feature that is off has no handler on the class, so its messages are
loud in the simulator and counted drops on a live node.
"""

from __future__ import annotations

import itertools
import os
import re
from types import SimpleNamespace

import pytest

from repro.core import HybridConfig, HybridPeer
from repro.core.hybridpeer import FEATURES, peer_class
from repro.obs.registry import MetricsRegistry
from repro.overlay import messages as messages_mod
from repro.overlay.idspace import IdSpace
from repro.overlay.messages import CachePush
from repro.runtime.node import RuntimePeer
from repro.sim.engine import Engine

from .conftest import build_system

# One config per feature that turns it (and nothing else) on.
FEATURE_KWARGS = {
    "liveness": {"heartbeats_enabled": True},
    "replication": {"replication_factor": 2},
    "swarm": {"snetwork_style": "bittorrent"},
    "cache": {"cache_enabled": True},
    "bypass": {"bypass_links": True},
    "mesh": {"mesh_extra_links": 1},
    "walk": {"search_mode": "walk"},
}
MIXINS = {name: mixin for name, mixin, _on in FEATURES}


def config_with(*names: str) -> HybridConfig:
    kwargs = {}
    for name in names:
        kwargs.update(FEATURE_KWARGS[name])
    return HybridConfig(**kwargs)


def every_peer_class():
    """(feature names, class) for all 2**7 feature sets (the handler-name
    hygiene test in test_overlay_peer.py runs over these)."""
    names = list(FEATURE_KWARGS)
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            yield combo, peer_class(config_with(*combo))


def test_features_are_the_configurable_ones():
    assert list(MIXINS) == list(FEATURE_KWARGS)
    # The tracker's search must win over walks when both are on.
    assert list(MIXINS).index("swarm") < list(MIXINS).index("walk")


def test_default_config_is_the_core():
    assert peer_class(HybridConfig()) is HybridPeer
    assert peer_class(HybridConfig(), RuntimePeer) is RuntimePeer


@pytest.mark.parametrize("name", list(FEATURE_KWARGS))
def test_each_flag_adds_exactly_its_own_mixin(name):
    cls = peer_class(config_with(name))
    assert cls.__mro__ == (cls, MIXINS[name], *HybridPeer.__mro__)
    live = peer_class(config_with(name), RuntimePeer)
    assert live.__mro__ == (live, MIXINS[name], *RuntimePeer.__mro__)


def test_mro_is_the_fixed_feature_order():
    cls = peer_class(config_with(*FEATURE_KWARGS))
    assert cls.__mro__ == (cls, *MIXINS.values(), *HybridPeer.__mro__)
    # Same features, listed in another order: the same class.
    assert peer_class(config_with(*reversed(list(FEATURE_KWARGS)))) is cls


def test_one_class_per_feature_set():
    a = peer_class(HybridConfig(replication_factor=2, p_s=0.3))
    b = peer_class(HybridConfig(replication_factor=3, write_quorum=2))
    assert a is b
    assert peer_class(HybridConfig(cache_enabled=True)) is not a


def test_default_peer_has_only_core_handlers():
    system = build_system(p_s=0.5, n_peers=12)
    handlers = {k for k in type(system.peers[1])._dispatch if isinstance(k, str)}
    assert len(handlers) == 30
    off = {
        "Hello", "Ack", "ReplicaWrite", "ReplicaSyncRequest",
        "ReplicaSyncResponse", "AnnounceRequest", "AnnounceResponse",
        "HaveAnnounce", "PieceRequest", "PieceResponse", "BTLookupReply",
        "WalkQuery", "CachePush", "StoreAck",
    }
    assert not handlers & off
    everything = {
        attr[3:] for attr in dir(peer_class(config_with(*FEATURE_KWARGS)))
        if attr.startswith("on_")
    }
    assert everything == handlers | off


def test_message_for_an_off_feature_is_loud():
    system = build_system(p_s=0.5, n_peers=12)
    peer = system.t_peers()[0]
    with pytest.raises(NotImplementedError, match="CachePush"):
        peer.receive(CachePush(key="k", value=1, d_id=5))


def test_live_peer_counts_and_drops_an_off_feature_message():
    registry = MetricsRegistry()
    transport = SimpleNamespace(
        send=lambda *args: True, registry=registry,
        messages_delivered=0, messages_dropped=0,
    )
    peer = peer_class(HybridConfig(), RuntimePeer)(
        address=7, host=0, engine=Engine(), transport=transport,
        idspace=IdSpace(), config=HybridConfig(), rng=None, queries=None,
    )
    peer.receive(CachePush(key="k", value=1, d_id=5))
    samples = registry.snapshot()["repro_inbound_rejected_total"]["samples"]
    assert [(s["labels"], s["value"]) for s in samples] == [({"reason": "unhandled"}, 1.0)]
    assert transport.messages_delivered == 1 and peer.alive


# Feature flags: the config fields that pick the peer class.
FLAGS = (
    "heartbeats_enabled", "replication_factor", "cache_enabled",
    "bypass_links", "mesh_extra_links", "search_mode", "snetwork_style",
)
# Who may read them: the composition, each owning mixin's module, and
# the system-level wiring.
FLAG_READERS = {
    "core/config.py": set(FLAGS),
    "core/hybridpeer.py": set(FLAGS),  # peer_class
    "core/failures.py": {"heartbeats_enabled"},
    "replica/__init__.py": {"replication_factor"},
    "replica/protocol.py": {"replication_factor"},
    "enhance/caching.py": {"cache_enabled"},
    "enhance/bypass.py": {"bypass_links"},
    "core/snetwork.py": {"mesh_extra_links"},
    "core/hybrid.py": {"heartbeats_enabled", "mesh_extra_links"},
    "shard/runner.py": set(FLAGS),
    "cli.py": set(FLAGS),
}


def test_feature_flags_are_read_only_where_allowed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(messages_mod.__file__)))
    pattern = re.compile(r"\.(%s)\b" % "|".join(FLAGS))
    readers = {}
    for root, _dirs, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    found = set(pattern.findall(fh.read()))
                if found:
                    readers[os.path.relpath(path, src).replace(os.sep, "/")] = found
    for path, flags in readers.items():
        assert flags <= FLAG_READERS.get(path, set()), (path, flags)
