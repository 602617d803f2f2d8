//! Golden campaign digests: the session-layer output of every campaign
//! kind under fixed seeds must stay exactly what it was when this file
//! was recorded. Jobs-invariance tests only prove a run equals itself;
//! these pins prove refactors of the harness leave behaviour alone.
//!
//! The digest folds session-layer values only — terminal state, route,
//! event count, the `Debug` renderings of the recovery timeline and the
//! sink outcomes, ledger verdicts and the telemetry digest — never the
//! harness's own report formatting.

use lsl_netsim::Time;
use lsl_session::{ClientState, SessionEvent, TransferOutcome};
use lsl_workloads::{default_jobs, run_scenarios, Campaign, CampaignConfig, Drill, RunReport};

/// FNV-1a over the folded values.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    /// The values every campaign kind shares.
    fn session(
        &mut self,
        state: ClientState,
        timeline: &[(Time, SessionEvent)],
        outcomes: &[TransferOutcome],
    ) {
        self.debug(&state);
        self.debug(&timeline);
        self.debug(&outcomes);
    }
}

const SEEDS: usize = 8;

fn campaign(c: Campaign) -> Vec<RunReport> {
    run_scenarios(
        &c.scenarios(&CampaignConfig::default(), SEEDS),
        default_jobs(),
    )
}

#[test]
fn chaos_campaign_digest_is_pinned() {
    let mut h = Fnv::new();
    for r in campaign(Campaign::Chaos) {
        h.session(r.state, &r.timeline, &r.outcomes);
        h.u64(r.route_used as u64);
        h.u64(r.events);
        h.u64(r.obs.digest());
    }
    assert_eq!(h.0, GOLDEN_CHAOS, "chaos digest {:#018x}", h.0);
}

#[test]
fn routing_campaign_digests_are_pinned() {
    let (mut fixed, mut forecast) = (Fnv::new(), Fnv::new());
    for p in campaign(Campaign::Routing).chunks(2) {
        for (h, r) in [(&mut fixed, &p[0]), (&mut forecast, &p[1])] {
            h.session(r.state, &r.timeline, &r.outcomes);
            h.u64(r.route_used as u64);
            h.u64(r.events);
            h.u64(r.obs.digest());
        }
    }
    assert_eq!(
        (fixed.0, forecast.0),
        GOLDEN_ROUTING,
        "routing digests {:#018x} {:#018x}",
        fixed.0,
        forecast.0
    );
}

#[test]
fn striped_campaign_digest_is_pinned() {
    let mut h = Fnv::new();
    for r in campaign(Campaign::Striped) {
        h.session(r.state, &r.timeline, &r.outcomes);
        h.u64(r.events);
        h.u64(r.certified);
        h.u64(r.regrants);
        h.u64(r.obs.digest());
    }
    assert_eq!(h.0, GOLDEN_STRIPED, "striped digest {:#018x}", h.0);
}

#[test]
fn fault_drill_digest_is_pinned() {
    let mut h = Fnv::new();
    for drill in [
        Drill::DepotCrash,
        Drill::AllDepotsDown,
        Drill::AccessFlap,
        Drill::SublinkRst,
    ] {
        let r = drill.scenario(7).run();
        h.session(r.state, &r.timeline, &r.outcomes);
        h.u64(r.route_used as u64);
    }
    assert_eq!(h.0, GOLDEN_DRILLS, "drill digest {:#018x}", h.0);
}

/// Chaos seeds 0..8 at the default config.
const GOLDEN_CHAOS: u64 = 0x83d2_bb7c_84f2_ed78;
/// Routing seeds 0..8: (static arm, forecast arm).
const GOLDEN_ROUTING: (u64, u64) = (0xe145_d3ef_d212_7b03, 0x3a92_5ff6_a83d_d425);
/// Striped seeds 0..8, targeted depot kill included.
const GOLDEN_STRIPED: u64 = 0x3ce7_bbf7_58f6_095f;
/// The four scripted drills at seed 7.
const GOLDEN_DRILLS: u64 = 0x74c0_4055_e3e1_6bf4;
