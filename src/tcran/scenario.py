"""Scenario text format: what to simulate, stated declaratively.

A scenario file is the complete, reproducible description of one run:
spectrum, topology, workload durations, the credit fanout each node
performs when it first activates, and the timed outside-world events
(primary users, node failures).  The format is line-oriented with
bracketed sections:

    tcran-scenario v1

    [params]
    credit = 1
    t_e = 5
    weak-wait = 50

    [channels]
    1 2 3 5

    [nodes]
    1: 2 3 5 @5        # LCS, then the tuned channel
    2: 3 5 @5

    [topology]
    1-2

    [start]
    at 0 node 1

    [workload]
    1: 12              # seconds of local computation once activated
    2: 13

    [plan]
    1: 2=9/10          # at activation, send 9/10 to node 2

    [events]
    at 4 pu-appear 5
    at 70 pu-disappear 5

`load_scenario(render_scenario(s))` reproduces `s` exactly; traces embed
the rendered text so replays are self-contained.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable

from .core import ChannelId, NodeId
from .credit import Credit, ZERO, credit, credit_sum, parse_credit, render_credit, split_credit
from .errors import ParseError, ValidationError

VERSION_LINE = "tcran-scenario v1"

EVENT_KINDS = ("pu-appear", "pu-disappear", "fail", "recover", "crash")
CHOICES = ("lowest", "random")


@dataclass(frozen=True)
class Event:
    at: float
    kind: str
    arg: int  # channel for pu-*, node id otherwise


def _adjacency(
    nodes: Iterable[NodeId], edges: Iterable[tuple[NodeId, NodeId]]
) -> dict[NodeId, frozenset[NodeId]]:
    """Every node's neighbors, from one pass over the edges."""
    adj: dict[NodeId, set[NodeId]] = {nid: set() for nid in nodes}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return {nid: frozenset(nbrs) for nid, nbrs in adj.items()}


@dataclass
class Scenario:
    credit_total: Credit
    channels: frozenset[ChannelId]
    lcs: dict[NodeId, frozenset[ChannelId]]
    tuned: dict[NodeId, ChannelId]
    edges: frozenset[tuple[NodeId, NodeId]]  # each sorted (a < b)
    start_node: NodeId
    start_at: float
    workload: dict[NodeId, float]
    plan: dict[NodeId, tuple[tuple[NodeId, Credit], ...]]
    events: tuple[Event, ...]
    t_e: float = 5.0
    weak_wait: float = 50.0
    d_detect: float = 1.0
    d_ack: float = 0.5
    delay: tuple[float, float] = (1.0, 1.0)
    horizon: float | None = None
    choice: str = "lowest"
    work_while_dark: bool = False

    def nodes(self) -> list[NodeId]:
        return sorted(self.lcs)

    def adjacency(self) -> dict[NodeId, frozenset[NodeId]]:
        return _adjacency(self.lcs, self.edges)

    def validate(self) -> "Scenario":
        nodes = set(self.lcs)
        if self.start_node not in nodes:
            raise ValidationError(f"start node {self.start_node} not declared")
        if self.credit_total <= ZERO:
            raise ValidationError("total credit must be positive")
        for nid in sorted(nodes):
            if not self.lcs[nid] <= self.channels:
                bad = sorted(self.lcs[nid] - self.channels)
                raise ValidationError(f"node {nid}: unknown channels {bad}")
            if self.tuned.get(nid) not in self.lcs[nid]:
                raise ValidationError(f"node {nid}: tuned channel not in LCS")
        for a, b in sorted(self.edges):
            if a not in nodes or b not in nodes:
                raise ValidationError(f"edge {a}-{b} references unknown node")
            if a == b:
                raise ValidationError(f"self-loop on node {a}")
            if not self.lcs[a] & self.lcs[b]:
                raise ValidationError(
                    f"edge {a}-{b}: endpoints share no channel at start"
                )
        adj = self.adjacency()
        for nid, entries in sorted(self.plan.items()):
            if nid not in nodes:
                raise ValidationError(f"plan for unknown node {nid}")
            nbrs = adj[nid]
            seen: set[NodeId] = set()
            for target, share in entries:
                if target not in nbrs:
                    raise ValidationError(
                        f"node {nid} plans a grant to non-neighbor {target}"
                    )
                if target in seen:
                    raise ValidationError(
                        f"node {nid} plans two grants to {target}"
                    )
                if share <= ZERO:
                    raise ValidationError(f"node {nid}: grant must be positive")
                seen.add(target)
        initiator_plan = self.plan.get(self.start_node, ())
        if credit_sum(c for _, c in initiator_plan) >= self.credit_total:
            raise ValidationError("initiator must retain some credit")
        for nid, dur in sorted(self.workload.items()):
            if nid not in nodes:
                raise ValidationError(f"workload for unknown node {nid}")
            check_time(f"workload on node {nid}", dur)
        for what, value in (
            ("start time", self.start_at),
            ("t_e", self.t_e),
            ("weak-wait", self.weak_wait),
            ("d-detect", self.d_detect),
            ("d-ack", self.d_ack),
        ):
            check_time(what, value)
        if self.horizon is not None:
            check_time("horizon", self.horizon)
        for ev in self.events:
            check_time(f"time of {ev.kind} {ev.arg}", ev.at)
            if ev.kind.startswith("pu-"):
                if ev.arg not in self.channels:
                    raise ValidationError(f"{ev.kind} on unknown channel {ev.arg}")
            elif ev.arg not in nodes:
                raise ValidationError(f"{ev.kind} on unknown node {ev.arg}")
        if self.choice not in CHOICES:
            raise ValidationError(f"unknown choice policy {self.choice!r}")
        if not 0 < self.delay[0] <= self.delay[1] < math.inf:
            raise ValidationError("delay range must be positive, finite and ordered")
        return self


def check_time(what: str, value: float):
    """Reject a time or duration that is negative, infinite or NaN."""
    if not math.isfinite(value):
        raise ValidationError(f"non-finite {what}: {value}")
    if value < 0:
        raise ValidationError(f"negative {what}: {value:g}")


# --- parsing -----------------------------------------------------------------


def _float(text: str, lineno: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", lineno) from None
    return v


def _int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad integer {text!r}", lineno) from None


def _credit(text: str, lineno: int) -> Credit:
    try:
        return parse_credit(text)
    except ValueError as e:
        raise ParseError(str(e), lineno) from None


def load_scenario(text: str) -> Scenario:
    params: dict[str, str] = {}
    param_lines: dict[str, int] = {}
    channels: set[int] = set()
    lcs: dict[int, frozenset[int]] = {}
    tuned: dict[int, int] = {}
    edges: set[tuple[int, int]] = set()
    start: tuple[float, int] | None = None
    workload: dict[int, float] = {}
    plan: dict[int, tuple[tuple[int, Credit], ...]] = {}
    events: list[Event] = []

    section = None
    saw_version = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_version:
            if line != VERSION_LINE:
                raise ParseError(f"expected {VERSION_LINE!r} header", lineno)
            saw_version = True
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in (
                "params",
                "channels",
                "nodes",
                "topology",
                "start",
                "workload",
                "plan",
                "events",
            ):
                raise ParseError(f"unknown section [{section}]", lineno)
            continue
        if section is None:
            raise ParseError("content before any section", lineno)

        if section == "params":
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError("expected key = value", lineno)
            params[key.strip()] = value.strip()
            param_lines[key.strip()] = lineno
        elif section == "channels":
            channels.update(_int(tok, lineno) for tok in line.split())
        elif section == "nodes":
            head, sep, rest = line.partition(":")
            if not sep:
                raise ParseError("expected 'node: channels @tuned'", lineno)
            nid = _int(head.strip(), lineno)
            if nid in lcs:
                raise ParseError(f"node {nid} declared twice", lineno)
            toks = rest.split()
            tuned_toks = [t for t in toks if t.startswith("@")]
            if len(tuned_toks) != 1:
                raise ParseError("each node needs exactly one @tuned", lineno)
            tuned[nid] = _int(tuned_toks[0][1:], lineno)
            lcs[nid] = frozenset(
                _int(t, lineno) for t in toks if not t.startswith("@")
            )
        elif section == "topology":
            for tok in line.split():
                a, sep, b = tok.partition("-")
                if not sep:
                    raise ParseError(f"expected edge a-b, got {tok!r}", lineno)
                x, y = _int(a, lineno), _int(b, lineno)
                edges.add((min(x, y), max(x, y)))
        elif section == "start":
            toks = line.split()
            if len(toks) != 4 or toks[0] != "at" or toks[2] != "node":
                raise ParseError("expected 'at TIME node ID'", lineno)
            if start is not None:
                raise ParseError("second start line", lineno)
            start = (_float(toks[1], lineno), _int(toks[3], lineno))
        elif section == "workload":
            head, sep, rest = line.partition(":")
            if not sep:
                raise ParseError("expected 'node: duration'", lineno)
            nid = _int(head.strip(), lineno)
            if nid in workload:
                raise ParseError(f"workload for {nid} given twice", lineno)
            workload[nid] = _float(rest.strip(), lineno)
        elif section == "plan":
            head, sep, rest = line.partition(":")
            if not sep:
                raise ParseError("expected 'node: target=credit ...'", lineno)
            nid = _int(head.strip(), lineno)
            if nid in plan:
                raise ParseError(f"plan for {nid} given twice", lineno)
            entries = []
            for tok in rest.split():
                t, sep, c = tok.partition("=")
                if not sep:
                    raise ParseError(f"expected target=credit, got {tok!r}", lineno)
                entries.append((_int(t, lineno), _credit(c, lineno)))
            plan[nid] = tuple(entries)
        elif section == "events":
            toks = line.split()
            if len(toks) != 4 or toks[0] != "at":
                raise ParseError("expected 'at TIME KIND ARG'", lineno)
            if toks[2] not in EVENT_KINDS:
                raise ParseError(f"unknown event kind {toks[2]!r}", lineno)
            events.append(Event(_float(toks[1], lineno), toks[2], _int(toks[3], lineno)))

    if not saw_version:
        raise ParseError(f"empty input; expected {VERSION_LINE!r} header", 1)
    if start is None:
        raise ParseError("missing [start] section", 1)
    if not lcs:
        raise ParseError("missing [nodes] section", 1)

    def fparam(key: str, default: float) -> float:
        if key not in params:
            return default
        return _float(params[key], param_lines[key])

    delay_lo, delay_hi = 1.0, 1.0
    if "delay" in params:
        txt = params["delay"]
        lo, sep, hi = txt.partition("..")
        delay_lo = _float(lo, param_lines["delay"])
        delay_hi = _float(hi, param_lines["delay"]) if sep else delay_lo

    horizon = None
    if "horizon" in params:
        horizon = _float(params["horizon"], param_lines["horizon"])

    scn = Scenario(
        credit_total=(
            _credit(params["credit"], param_lines["credit"])
            if "credit" in params
            else credit(1)
        ),
        channels=frozenset(channels),
        lcs=lcs,
        tuned=tuned,
        edges=frozenset(edges),
        start_node=start[1],
        start_at=start[0],
        workload=workload,
        plan=plan,
        events=tuple(sorted(events, key=lambda e: (e.at, e.kind, e.arg))),
        t_e=fparam("t_e", 5.0),
        weak_wait=fparam("weak-wait", 50.0),
        d_detect=fparam("d-detect", 1.0),
        d_ack=fparam("d-ack", 0.5),
        delay=(delay_lo, delay_hi),
        horizon=horizon,
        choice=params.get("choice", "lowest"),
        work_while_dark=params.get("work-while-dark", "no") == "yes",
    )
    return scn.validate()


# --- rendering ---------------------------------------------------------------


def _num(v: float) -> str:
    return f"{v:g}"


def render_scenario(s: Scenario) -> str:
    lines = [VERSION_LINE, "", "[params]"]
    lines.append(f"credit = {render_credit(s.credit_total)}")
    lines.append(f"t_e = {_num(s.t_e)}")
    lines.append(f"weak-wait = {_num(s.weak_wait)}")
    lines.append(f"d-detect = {_num(s.d_detect)}")
    lines.append(f"d-ack = {_num(s.d_ack)}")
    if s.delay[0] == s.delay[1]:
        lines.append(f"delay = {_num(s.delay[0])}")
    else:
        lines.append(f"delay = {_num(s.delay[0])}..{_num(s.delay[1])}")
    if s.horizon is not None:
        lines.append(f"horizon = {_num(s.horizon)}")
    lines.append(f"choice = {s.choice}")
    if s.work_while_dark:
        lines.append("work-while-dark = yes")
    lines += ["", "[channels]", " ".join(str(c) for c in sorted(s.channels))]
    lines += ["", "[nodes]"]
    for nid in s.nodes():
        chans = " ".join(str(c) for c in sorted(s.lcs[nid]))
        lines.append(f"{nid}: {chans} @{s.tuned[nid]}")
    lines += ["", "[topology]"]
    for a, b in sorted(s.edges):
        lines.append(f"{a}-{b}")
    lines += ["", "[start]", f"at {_num(s.start_at)} node {s.start_node}"]
    if s.workload:
        lines += ["", "[workload]"]
        for nid in sorted(s.workload):
            lines.append(f"{nid}: {_num(s.workload[nid])}")
    if s.plan:
        lines += ["", "[plan]"]
        for nid in sorted(s.plan):
            entries = " ".join(
                f"{t}={render_credit(c)}" for t, c in s.plan[nid]
            )
            lines.append(f"{nid}: {entries}")
    if s.events:
        lines += ["", "[events]"]
        for ev in s.events:
            lines.append(f"at {_num(ev.at)} {ev.kind} {ev.arg}")
    return "\n".join(lines) + "\n"


# --- random generation ---------------------------------------------------------


def gen_random_scenario(
    seed: int,
    n_nodes: int = 6,
    g_channels: int = 4,
    pu_rate: float = 0.3,
    fail_rate: float = 0.2,
    failure_free: bool = False,
) -> Scenario:
    """Build a valid random scenario, deterministically from the seed.

    Topology is a random spanning tree plus extra edges; one channel is
    shared by every node so all edges validate.  The fanout plans form a
    random grant tree with exact rational shares plus occasional lends
    across non-tree edges.  Unless failure_free, primary users and node
    failures are sprinkled over the run.
    """
    rng = random.Random(seed)
    n_nodes = max(2, n_nodes)
    nodes = list(range(1, n_nodes + 1))
    chans = list(range(1, max(2, g_channels) + 1))
    common = rng.choice(chans)

    lcs = {}
    tuned = {}
    for nid in nodes:
        extra = rng.sample(chans, k=rng.randint(0, len(chans) - 1))
        mine = frozenset([common, *extra])
        lcs[nid] = mine
        tuned[nid] = rng.choice(sorted(mine))

    edges: set[tuple[int, int]] = set()
    order = nodes[:]
    rng.shuffle(order)
    for i, nid in enumerate(order[1:], start=1):
        other = rng.choice(order[:i])
        edges.add((min(nid, other), max(nid, other)))
    for _ in range(rng.randint(0, n_nodes)):
        a, b = rng.sample(nodes, 2)
        edges.add((min(a, b), max(a, b)))

    adj = _adjacency(nodes, edges)

    start_node = rng.choice(nodes)
    total = credit(1)

    # Random grant tree over the topology, exact shares at every level.
    plan: dict[int, tuple[tuple[int, Credit], ...]] = {}
    granted: dict[int, Credit] = {start_node: total}
    frontier = [start_node]
    reached = {start_node}
    while frontier:
        nid = frontier.pop(0)
        kids = [k for k in sorted(adj[nid]) if k not in reached]
        rng.shuffle(kids)
        kids = kids[: rng.randint(0, min(3, len(kids)))]
        if not kids:
            continue
        parts = split_credit(granted[nid], len(kids))
        entries = []
        for k, share in zip(kids, parts[1:]):
            entries.append((k, share))
            granted[k] = share
            reached.add(k)
            frontier.append(k)
        plan[nid] = tuple(entries)

    # Occasional lends: an extra plan entry toward an already-reached
    # neighbor, funded by shrinking the retained part.
    for nid in sorted(reached):
        if rng.random() > 0.3:
            continue
        retained = granted[nid] - credit_sum(
            c for _, c in plan.get(nid, ())
        )
        targets = [k for k in sorted(adj[nid]) if k in reached]
        if not targets or retained == ZERO:
            continue
        t = rng.choice(targets)
        entries = dict(plan.get(nid, ()))
        if t in entries:
            continue
        lend = retained / 2
        if lend == ZERO:
            continue
        entries[t] = lend
        plan[nid] = tuple(sorted(entries.items()))

    workload = {
        nid: round(rng.uniform(0.5, 15.0), 1) for nid in nodes
    }

    events: list[Event] = []
    if not failure_free:
        t = 0.0
        if rng.random() < pu_rate:
            ch = rng.choice(chans)
            t = round(rng.uniform(1.0, 20.0), 1)
            events.append(Event(t, "pu-appear", ch))
            if rng.random() < 0.7:
                events.append(
                    Event(round(t + rng.uniform(5.0, 40.0), 1), "pu-disappear", ch)
                )
        if rng.random() < fail_rate:
            victim = rng.choice([n for n in nodes if n != start_node])
            t0 = round(rng.uniform(1.0, 25.0), 1)
            if rng.random() < 0.3:
                events.append(Event(t0, "crash", victim))
            else:
                events.append(Event(t0, "fail", victim))
                events.append(
                    Event(round(t0 + rng.uniform(5.0, 30.0), 1), "recover", victim)
                )

    scn = Scenario(
        credit_total=total,
        channels=frozenset(chans),
        lcs=lcs,
        tuned=tuned,
        edges=frozenset(edges),
        start_node=start_node,
        start_at=0.0,
        workload=workload,
        plan=plan,
        events=tuple(sorted(events, key=lambda e: (e.at, e.kind, e.arg))),
        delay=(1.0, 1.0) if rng.random() < 0.5 else (0.5, 2.0),
        horizon=500.0,
        choice=rng.choice(CHOICES),
    )
    return scn.validate()
