//! The four calibrated experiment topologies, plus the redundant-depot
//! topologies the fault campaigns run on.

use lsl_netsim::{Dur, LinkId, LinkSpec, LossModel, NodeId, Topology, TopologyBuilder};
use lsl_session::{Hop, LslPath, RoutePlan};

/// Sink listening port in every case.
pub const SINK_PORT: u16 = 5001;
/// Depot listening port in every case.
pub const DEPOT_PORT: u16 = 7001;

/// One experiment setting: a topology plus the roles within it.
#[derive(Clone)]
pub struct PathCase {
    pub name: &'static str,
    pub topo: Topology,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Host running the `lsd` depot.
    pub depot: NodeId,
}

/// Case 1 — UCSB → UIUC with the depot near the Denver POP.
///
/// Calibration targets (paper Fig 3): sublink RTTs ≈ 28–31 ms each,
/// direct RTT ≈ 55 ms, sublink sum ≈ +6 ms over direct; random loss on
/// the two backbone legs so 64 MB direct transfers land near 13 Mbit/s
/// and LSL near 19 Mbit/s (Fig 6's ≈60% gain).
pub fn case1() -> PathCase {
    let mut b = TopologyBuilder::new();
    let ucsb = b.node("ucsb");
    let la = b.node("pop-la");
    let denver = b.node("pop-denver");
    let uiuc = b.node("uiuc");
    let depot = b.node("depot-denver");

    // Campus access links.
    b.duplex(
        ucsb,
        la,
        LinkSpec::new(100_000_000, Dur::from_millis(1)).with_queue_bytes(2 << 20),
    );
    // Abilene backbone legs (OC-12-ish shares), with random loss.
    b.duplex(
        la,
        denver,
        LinkSpec::new(622_000_000, Dur::from_millis(13)).with_loss(LossModel::bernoulli(9e-5)),
    );
    b.duplex(
        denver,
        uiuc,
        LinkSpec::new(622_000_000, Dur::from_millis(13)).with_loss(LossModel::bernoulli(9e-5)),
    );
    // Depot hangs off the Denver POP by a short LAN hop; the extra
    // 1.5 ms each way produces Fig 3's ≈6 ms cascade RTT overhead.
    b.duplex(
        denver,
        depot,
        LinkSpec::new(1_000_000_000, Dur::from_micros(1500)),
    );

    PathCase {
        name: "case1-ucsb-uiuc-via-denver",
        topo: b.build(),
        src: ucsb,
        dst: uiuc,
        depot,
    }
}

/// Case 2 — UCSB → UF with the depot near the Houston POP.
///
/// Calibration targets (paper Figs 4, 7, 8): direct RTT ≈ 63 ms, sublink
/// sum ≈ +20 ms (the paper attributes most of it to depot load; we model
/// it as a longer depot spur), plateaus ≈ 35 vs 50 Mbit/s at 128 MB.
pub fn case2() -> PathCase {
    let mut b = TopologyBuilder::new();
    let ucsb = b.node("ucsb");
    let la = b.node("pop-la");
    let houston = b.node("pop-houston");
    let uf = b.node("uf");
    let depot = b.node("depot-houston");

    // Campus edge buffers sized ≈ the 8 MB socket windows the paper's
    // hosts were tuned to, so the access hop doesn't drop slow-start
    // bursts that the real path absorbed.
    b.duplex(
        ucsb,
        la,
        LinkSpec::new(200_000_000, Dur::from_millis(1)).with_queue_bytes(2 << 20),
    );
    b.duplex(
        la,
        houston,
        LinkSpec::new(622_000_000, Dur::from_millis(15)).with_loss(LossModel::bernoulli(2.2e-5)),
    );
    b.duplex(
        houston,
        uf,
        LinkSpec::new(622_000_000, Dur::from_millis(14)).with_loss(LossModel::bernoulli(2.2e-5)),
    );
    // A longer spur: the "+20 ms" seen in Fig 4.
    b.duplex(
        houston,
        depot,
        LinkSpec::new(1_000_000_000, Dur::from_micros(5000)).with_queue_bytes(2 << 20),
    );

    PathCase {
        name: "case2-ucsb-uf-via-houston",
        topo: b.build(),
        src: ucsb,
        dst: uf,
        depot,
    }
}

/// Case 3 — UTK → UCSB where the receiver sits behind an 802.11b
/// wireless hop; the depot is at the campus wired/wireless edge.
///
/// Calibration targets (paper Figs 9, 10): sublink 1 (wired, UTK→edge)
/// RTT ≈ 100 ms and is the bottleneck; the wireless hop is ≈5 Mbit/s
/// effective with bursty (Gilbert–Elliott) loss; LSL gains ≈13% on
/// large transfers.
pub fn case3() -> PathCase {
    let mut b = TopologyBuilder::new();
    let utk = b.node("utk");
    let backbone = b.node("backbone");
    let edge = b.node("ucsb-edge");
    let mobile = b.node("ucsb-mobile");

    b.duplex(
        utk,
        backbone,
        LinkSpec::new(100_000_000, Dur::from_millis(2)),
    );
    b.duplex(
        backbone,
        edge,
        LinkSpec::new(155_000_000, Dur::from_millis(47)).with_loss(LossModel::bernoulli(1.2e-4)),
    );
    // 802.11b: ~5 Mbit/s effective goodput, short RTT, bursty fades.
    // Fade frequency/depth calibrated so direct TCP (102 ms RTT) is
    // hurt but not crippled: Fig 10's gain is modest, not multiples.
    b.duplex(
        edge,
        mobile,
        LinkSpec::new(5_000_000, Dur::from_millis(2))
            .with_loss(LossModel::gilbert_elliott(0.002, 0.25, 0.0002, 0.05))
            .with_queue_bytes(64 * 1024),
    );

    PathCase {
        name: "case3-utk-ucsb-wireless",
        topo: b.build(),
        src: utk,
        dst: mobile,
        depot: edge,
    }
}

/// Case 4 — UCSB → OSU via Denver: the steady-state study (Figs 28, 29)
/// with 120 iterations per size up to 512 MB. Like case 1 with slightly
/// lower loss so direct TCP plateaus ≈20 Mbit/s and LSL ≈28 Mbit/s.
pub fn case4() -> PathCase {
    let mut b = TopologyBuilder::new();
    let ucsb = b.node("ucsb");
    let la = b.node("pop-la");
    let denver = b.node("pop-denver");
    let osu = b.node("osu");
    let depot = b.node("depot-denver");

    b.duplex(
        ucsb,
        la,
        LinkSpec::new(200_000_000, Dur::from_millis(1)).with_queue_bytes(512 << 10),
    );
    b.duplex(
        la,
        denver,
        LinkSpec::new(622_000_000, Dur::from_millis(13)).with_loss(LossModel::bernoulli(4e-5)),
    );
    b.duplex(
        denver,
        osu,
        LinkSpec::new(622_000_000, Dur::from_millis(14)).with_loss(LossModel::bernoulli(4e-5)),
    );
    b.duplex(
        denver,
        depot,
        LinkSpec::new(1_000_000_000, Dur::from_micros(1500)),
    );

    PathCase {
        name: "case4-ucsb-osu-via-denver",
        topo: b.build(),
        src: ucsb,
        dst: osu,
        depot,
    }
}

/// A topology with redundant depots: `src — pop — dst` backbone with two
/// depot spurs hanging off the POP, so a session has a real failover
/// target when its primary depot dies (the four paper cases are
/// single-depot and can only demonstrate degradation).
#[derive(Clone)]
pub struct FailoverCase {
    pub name: &'static str,
    pub topo: Topology,
    pub src: NodeId,
    pub dst: NodeId,
    /// Primary depot (first candidate route).
    pub depot_a: NodeId,
    /// Backup depot (second candidate route).
    pub depot_b: NodeId,
    /// Both directions of the src↔POP access link — the flap target that
    /// takes *every* route down at once.
    pub access_links: (LinkId, LinkId),
}

impl FailoverCase {
    /// The typed candidate plan: primary depot, then backup. The direct
    /// path is *not* listed — the session client appends it to any plan
    /// without one, as the route of last resort.
    pub fn plan(&self) -> RoutePlan {
        star_plan(self.dst, &[self.depot_a, self.depot_b])
    }

    /// The per-sublink probe pairs the forecast plane measures: every
    /// distinct (src, dst) directed sublink any candidate (or the direct
    /// fallback) would ride.
    pub fn sublinks(&self) -> Vec<(NodeId, NodeId)> {
        crate::forecast::plan_sublinks(self.src, &self.plan())
    }
}

/// Build the two-depot failover topology (link parameters modeled on
/// `case1`, with enough backbone loss that the seed actually matters to
/// packet-level timing — determinism tests need seeds to be observable).
pub fn failover_case() -> FailoverCase {
    let (topo, src, dst, depots, access_links) = depot_star(2);
    FailoverCase {
        name: "failover-two-depots",
        topo,
        src,
        dst,
        depot_a: depots[0],
        depot_b: depots[1],
        access_links,
    }
}

/// The failover topology with a third depot spur — enough distinct
/// single-depot cascades for a three-wide stripe plus failover headroom.
/// Every cascade crosses the lossy backbone, so each is Mathis-limited
/// while the access link stays uncongested: striping buys real aggregate
/// throughput, the paper's RAIL argument.
#[derive(Clone)]
pub struct StripedCase {
    pub name: &'static str,
    pub topo: Topology,
    pub src: NodeId,
    pub dst: NodeId,
    /// Depot spurs in candidate-rank order (a is fastest).
    pub depots: [NodeId; 3],
    /// Both directions of the src↔POP access link, the flap target that
    /// takes every cascade down at once.
    pub access_links: (LinkId, LinkId),
}

impl StripedCase {
    /// One single-depot cascade per spur, in spur order; the session
    /// client appends the direct path, as for the failover case.
    pub fn plan(&self) -> RoutePlan {
        star_plan(self.dst, &self.depots)
    }
}

/// Build the three-depot striping topology.
pub fn striped_case() -> StripedCase {
    let (topo, src, dst, depots, access_links) = depot_star(3);
    StripedCase {
        name: "striped-three-depots",
        topo,
        src,
        dst,
        depots: [depots[0], depots[1], depots[2]],
        access_links,
    }
}

/// `src — pop — dst` (100 Mb/s access, lossy 622 Mb/s core) with
/// `spurs` 1 Gb/s depot spurs at 1.5/2/2.5 ms off the POP. Returns the
/// topology, src, dst, the depots and the access link pair.
pub(crate) fn depot_star(
    spurs: usize,
) -> (Topology, NodeId, NodeId, Vec<NodeId>, (LinkId, LinkId)) {
    let mut b = TopologyBuilder::new();
    let src = b.node("src");
    let pop = b.node("pop");
    let dst = b.node("dst");
    let depots: Vec<NodeId> = ["depot-a", "depot-b", "depot-c"][..spurs]
        .iter()
        .map(|&name| b.node(name))
        .collect();
    let access_links = b.duplex(
        src,
        pop,
        LinkSpec::new(100_000_000, Dur::from_millis(1)).with_queue_bytes(2 << 20),
    );
    b.duplex(
        pop,
        dst,
        LinkSpec::new(622_000_000, Dur::from_millis(13)).with_loss(LossModel::bernoulli(2e-3)),
    );
    for (i, &depot) in depots.iter().enumerate() {
        let delay = Dur::from_micros(1500 + 500 * i as u64);
        b.duplex(pop, depot, LinkSpec::new(1_000_000_000, delay));
    }
    (b.build(), src, dst, depots, access_links)
}

/// One single-depot cascade per depot, in order, all to `dst`'s sink.
pub(crate) fn star_plan(dst: NodeId, depots: &[NodeId]) -> RoutePlan {
    let dst = Hop::new(dst, SINK_PORT);
    depots
        .iter()
        .fold(RoutePlan::builder(), |b, &d| {
            b.path(LslPath::via(vec![Hop::new(d, DEPOT_PORT)], dst))
        })
        .build()
        .expect("single-depot cascades to one sink are always valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cases_build_and_route() {
        for case in [case1(), case2(), case3(), case4()] {
            let sim = case.topo.into_sim(1);
            assert!(sim.route(case.src, case.dst).is_some(), "{}", case.name);
            assert!(sim.route(case.src, case.depot).is_some());
            assert!(sim.route(case.depot, case.dst).is_some());
            assert!(sim.route(case.dst, case.src).is_some());
        }
    }

    #[test]
    fn case1_rtt_calibration() {
        // Propagation-only RTTs must sit near Fig 3's bars:
        // direct ≈ 55 ms (paper), sublinks ≈ 28-31 ms, sum ≈ direct + 6 ms.
        let c = case1();
        let direct = 2.0 * c.topo.path_prop_delay(c.src, c.dst).unwrap().as_secs_f64();
        let s1 = 2.0
            * c.topo
                .path_prop_delay(c.src, c.depot)
                .unwrap()
                .as_secs_f64();
        let s2 = 2.0
            * c.topo
                .path_prop_delay(c.depot, c.dst)
                .unwrap()
                .as_secs_f64();
        assert!((0.050..0.060).contains(&direct), "direct {direct}");
        assert!((0.025..0.033).contains(&s1), "sublink1 {s1}");
        assert!((0.025..0.033).contains(&s2), "sublink2 {s2}");
        let overhead = s1 + s2 - direct;
        assert!(
            (0.004..0.008).contains(&overhead),
            "detour overhead {overhead}"
        );
    }

    #[test]
    fn case2_rtt_calibration() {
        // Fig 4: direct ≈ 63 ms, cascade sum ≈ +20 ms.
        let c = case2();
        let direct = 2.0 * c.topo.path_prop_delay(c.src, c.dst).unwrap().as_secs_f64();
        let sum = 2.0
            * (c.topo
                .path_prop_delay(c.src, c.depot)
                .unwrap()
                .as_secs_f64()
                + c.topo
                    .path_prop_delay(c.depot, c.dst)
                    .unwrap()
                    .as_secs_f64());
        assert!((0.058..0.068).contains(&direct), "direct {direct}");
        let overhead = sum - direct;
        assert!(
            (0.015..0.025).contains(&overhead),
            "detour overhead {overhead}"
        );
    }

    #[test]
    fn case3_wired_sublink_dominates() {
        // Fig 9: sublink 1 (wired) RTT ≈ 100 ms; wireless hop is short.
        let c = case3();
        let s1 = 2.0
            * c.topo
                .path_prop_delay(c.src, c.depot)
                .unwrap()
                .as_secs_f64();
        let s2 = 2.0
            * c.topo
                .path_prop_delay(c.depot, c.dst)
                .unwrap()
                .as_secs_f64();
        assert!((0.090..0.110).contains(&s1), "wired sublink {s1}");
        assert!(s2 < 0.01, "wireless sublink {s2}");
    }

    #[test]
    fn failover_case_routes_everywhere() {
        let c = failover_case();
        let sim = c.topo.into_sim(1);
        for (from, to) in [
            (c.src, c.dst),
            (c.src, c.depot_a),
            (c.src, c.depot_b),
            (c.depot_a, c.dst),
            (c.depot_b, c.dst),
            (c.dst, c.src),
        ] {
            assert!(sim.route(from, to).is_some(), "{}", c.name);
        }
    }

    #[test]
    fn candidate_routes_are_ranked_and_share_dst() {
        let c = failover_case();
        let plan = c.plan();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.get(0).unwrap().path.depots[0].node, c.depot_a);
        assert_eq!(plan.get(1).unwrap().path.depots[0].node, c.depot_b);
        assert_eq!(plan.dst().node, c.dst);
        assert!(!plan.has_depot_free(), "direct fallback is appended later");
        assert_eq!(
            c.sublinks(),
            vec![
                (c.src, c.depot_a),
                (c.depot_a, c.dst),
                (c.src, c.depot_b),
                (c.depot_b, c.dst),
                (c.src, c.dst),
            ]
        );
    }
}
