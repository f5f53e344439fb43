"""Spectrum model: per-node channel sets under primary-user activity.

Every node starts with a local channel set (LCS) drawn from the global
channel set and one tuned channel.  A primary user appearing on a
channel removes it from every LCS that lists it; a node whose LCS goes
empty is affected: it cannot transmit or receive until some occupied
channel frees up again.  Nodes that lose only their tuned channel hop
to the lowest-numbered channel still in their LCS.

Being affected is one of three causes that take a node off the air.
The other two are the engine's: a failure, which lasts until the node's
recover event, and a crash, which lasts for good.  Engine._sync_dark
keeps a node dark exactly while at least one cause holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import ChannelId, NodeId


@dataclass
class ChannelWorld:
    gcs: frozenset[ChannelId]
    lcs: dict[NodeId, set[ChannelId]]
    tuned: dict[NodeId, ChannelId]
    original: dict[NodeId, frozenset[ChannelId]] = field(init=False)

    def __post_init__(self):
        self.original = {n: frozenset(c) for n, c in self.lcs.items()}

    def affected(self, nid: NodeId) -> bool:
        """The spectrum cause of darkness: no free channel in the LCS."""
        return not self.lcs[nid]

    def pu_appear(self, channel: ChannelId) -> tuple[list[NodeId], list[NodeId]]:
        """Occupy a channel. Returns (newly affected nodes, retuned nodes)."""
        hit, retuned = [], []
        for nid in sorted(self.lcs):
            before = bool(self.lcs[nid])
            self.lcs[nid].discard(channel)
            if before and not self.lcs[nid]:
                hit.append(nid)
            elif self.lcs[nid] and self.tuned[nid] == channel:
                self.tuned[nid] = min(self.lcs[nid])
                retuned.append(nid)
        return hit, retuned

    def pu_disappear(self, channel: ChannelId) -> list[NodeId]:
        """Free a channel; nodes that originally listed it get it back.

        Returns the nodes that stop being affected.
        """
        back = []
        for nid in sorted(self.lcs):
            if channel in self.original[nid]:
                was_empty = not self.lcs[nid]
                self.lcs[nid].add(channel)
                if was_empty:
                    self.tuned[nid] = min(self.lcs[nid])
                    back.append(nid)
        return back
