"""TI-LFA fast reroute: precomputed backup routes, armed on carrier loss.

Reconvergence after a failure costs a hello dead-interval (detecting),
a flood (telling everyone) and an SPF (reprogramming) — during which
traffic toward the failure blackholes.  The paper's premise (SRv6 as a
programmable steering layer) is exactly what makes the classic fix
expressible: *precompute* a repair path that provably avoids the failed
link, encode it as a segment list over the nodes' SIDs, and install it
as an ordinary ``encap seg6`` route the instant the local interface
loses carrier.  A protected destination detours immediately, while the
IGP reconverges in the background and eventually replaces the repair
with the post-convergence route.  A destination with no node-SID repair
waits for that reconvergence: its plan lists it as ``unprotected``.

All repair state is precomputed into literal iproute2 command strings
(:class:`FrrManager.plans`), so the carrier handler — the fast path —
just replays them through the node's textual config plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .spf import make_oracle, run_spf, tilfa_repair


@dataclass
class FrrPlan:
    """Everything to execute when one local device loses carrier."""

    dev: str
    # (prefix, route body) pairs, in installation order; each becomes a
    # ``route replace <body>`` and the body is recorded as the prefix's
    # programmed state.
    routes: list = field(default_factory=list)
    prefixes: list[str] = field(default_factory=list)  # destinations this plan covers
    repaired: int = 0  # via TI-LFA segment lists
    rerouted: int = 0  # via surviving ECMP nexthops
    unprotected: list[str] = field(default_factory=list)  # bare until reconvergence

    @property
    def commands(self) -> list[str]:
        """The plan as literal iproute2 command strings."""
        return [f"route replace {body}" for _prefix, body in self.routes]


class FrrManager:
    """Per-speaker backup computation and carrier-triggered activation."""

    def __init__(self, speaker):
        self.speaker = speaker
        self.plans: dict[str, FrrPlan] = {}

    # -- precomputation (runs after every SPF) ---------------------------------
    def recompute(self) -> None:
        """Rebuild the per-device failure plans from the converged state."""
        speaker = self.speaker
        self.plans = {}
        # Pre-failure SPFs are failure-independent: one cache serves the
        # avoidance oracles of every protected device this round.
        spf_cache: dict = {}
        for dev in sorted(speaker.adjacencies):
            self.plans[dev] = self._plan_for(dev, spf_cache)

    def _plan_for(self, dev: str, spf_cache: "dict | None" = None) -> FrrPlan:
        speaker = self.speaker
        plan = FrrPlan(dev)
        oracle = make_oracle(speaker.lsdb, speaker.name, dev, spf_cache)
        # The post-convergence SPF depends only on the protected device:
        # compute it once here, not once per repaired prefix.
        post = run_spf(speaker.lsdb, speaker.name, exclude=frozenset(oracle.failed))
        # Pass 1: decide per-prefix actions.  Pins — direct-adjacency
        # routes to the first release point's SID, the flattened
        # adjacency-SID that keeps the repair loop-free even when every
        # pre-failure path to the release point used the failed link
        # (parallel-link case) — are collected separately because a pin
        # must win over an encap repair of the *same* SID prefix (an
        # encap onto its own SID would recirculate forever).
        pins: dict[str, str] = {}  # pin prefix -> route body
        encaps: list[tuple[str, str]] = []  # (prefix, route body)
        reroutes: list[tuple[str, str]] = []
        for prefix in sorted(speaker.routes):
            hops = speaker.routes[prefix]
            if not any(h.dev == dev for h in hops):
                continue
            survivors = tuple(h for h in hops if h.dev != dev)
            if survivors:
                # ECMP sibling survives: shrink the nexthop set, no
                # segments needed.
                reroutes.append((prefix, speaker._render_route(prefix, survivors)))
                plan.prefixes.append(prefix)
                plan.rerouted += 1
                continue
            origin = self._origin_of(prefix)
            repair = (
                tilfa_repair(speaker.lsdb, speaker.name, origin, dev, oracle, post)
                if origin is not None
                else None
            )
            segments = None if repair is None else self._segments_for(repair.release_points)
            if segments is None:
                plan.unprotected.append(prefix)
                continue
            pin_prefix = f"{segments[0]}/128"
            pins.setdefault(
                pin_prefix,
                f"{pin_prefix} via {repair.first_hop.via} dev {repair.first_hop.dev}",
            )
            plan.prefixes.append(prefix)
            plan.repaired += 1
            if prefix == pin_prefix:
                continue  # the pin itself is this prefix's repair
            encaps.append(
                (prefix, f"{prefix} encap seg6 mode encap segs {','.join(segments)}")
            )
        # Pass 2: emit survivor reroutes and pins first, then encap
        # repairs — and never encap a prefix that doubles as a pin.
        plan.prefixes.extend(p for p in pins if p not in plan.prefixes)
        plan.routes.extend(reroutes)
        plan.routes.extend((p, pins[p]) for p in sorted(pins))
        plan.routes.extend(pair for pair in encaps if pair[0] not in pins)
        return plan

    def _origin_of(self, prefix: str) -> str | None:
        """The node that originates ``prefix`` (the repair's endpoint).

        For anycast prefixes (advertised by several nodes) the repair
        must target the same instance SPF routed to, so the speaker's
        recorded choice wins; the LSDB scan is only the fallback.
        """
        chosen = self.speaker.route_origins.get(prefix)
        if chosen is not None:
            return chosen
        best = None
        for origin, lsa in self.speaker.lsdb.lsas.items():
            if prefix in lsa.prefixes and (best is None or origin < best):
                best = origin
        return best

    def _segments_for(self, release_points: tuple[str, ...]) -> list[str] | None:
        """Map release-point node names to SIDs: End … End, End.DT6 last."""
        lsas = self.speaker.lsdb.lsas
        segments = []
        for node in release_points[:-1]:
            lsa = lsas.get(node)
            if lsa is None or not lsa.sid:
                return None
            segments.append(lsa.sid)
        last = lsas.get(release_points[-1])
        if last is None or not last.dt6_sid:
            return None
        segments.append(last.dt6_sid)
        return segments

    # -- activation (the fast path) --------------------------------------------
    def on_carrier_down(self, dev: str) -> None:
        """Replay the precomputed plan for ``dev`` through the config plane."""
        plan = self.plans.get(dev)
        if plan is None or not (plan.routes or plan.unprotected):
            return
        speaker = self.speaker
        for prefix, body in plan.routes:
            speaker.plane.execute(f"route replace {body}")
            # Record the repair as the programmed state for its prefix:
            # the next SPF reissues the desired route (repair body never
            # matches a rendered SPF route), and if the prefix has become
            # unreachable the deletion sweep removes the repair instead
            # of leaving a stale encap in the FIB.
            speaker.programmed[prefix] = body
        speaker.bus.publish(
            speaker.name,
            "frr-fired",
            dev=dev,
            repaired=plan.repaired,
            rerouted=plan.rerouted,
            unprotected=len(plan.unprotected),
        )
