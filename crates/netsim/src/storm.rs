//! Seeded chaos-storm synthesis: arbitrary *valid* fault schedules.
//!
//! A [`FaultStormGen`] turns a `u64` seed into a [`StormPlan`] — a
//! random but well-formed combination of link flaps, depot
//! crash/restarts, and sublink resets drawn from a [`StormSpec`]'s
//! target sets. Validity is *by construction*, not by filtering: each
//! [`StormAtom`] pairs an outage with its repair (or explicitly marks
//! it permanent), so a lowered [`FaultPlan`] can never contain an
//! orphaned `LinkUp`, a repair that precedes its failure, or an entry
//! that fires more than once.
//!
//! The same seed always yields the same storm (the generator uses the
//! workspace's deterministic `SmallRng`), which is what makes chaos
//! soaks reproducible: a failing seed *is* the bug report, and
//! [`StormPlan::drill`] renders any storm — including a shrunk one — as
//! a paste-able `FaultPlan` builder chain for a regression drill.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::fault::{FaultKind, FaultPlan};
use crate::packet::{LinkId, NodeId};
use crate::time::{Dur, Time};

/// What a storm is allowed to break: the target sets and the
/// temporal/size envelope every generated storm stays inside.
#[derive(Clone, Debug)]
pub struct StormSpec {
    /// Links eligible for flaps and permanent outages.
    pub links: Vec<LinkId>,
    /// Nodes eligible for crash/restart (typically depots).
    pub crash_nodes: Vec<NodeId>,
    /// Nodes whose established connections may be reset (typically the
    /// session endpoints — the paper's "sublink RST").
    pub rst_nodes: Vec<NodeId>,
    /// Every atom fires within `[0, horizon)` of simulation start.
    pub horizon: Dur,
    /// Ceiling for transient outage / downtime durations.
    pub max_outage: Dur,
    /// Atom count range (inclusive).
    pub min_atoms: usize,
    pub max_atoms: usize,
    /// Probability an outage is permanent (no paired repair).
    pub permanent_p: f64,
}

impl StormSpec {
    /// A spec with an empty target set and drill-scale defaults: up to
    /// four atoms in a 2-second window, outages up to 500 ms, one in
    /// four permanent. Add targets with the `with_*` methods.
    pub fn new(horizon: Dur) -> StormSpec {
        StormSpec {
            links: Vec::new(),
            crash_nodes: Vec::new(),
            rst_nodes: Vec::new(),
            horizon,
            max_outage: Dur::from_millis(500),
            min_atoms: 1,
            max_atoms: 4,
            permanent_p: 0.25,
        }
    }

    pub fn with_links(mut self, links: Vec<LinkId>) -> StormSpec {
        self.links = links;
        self
    }

    pub fn with_crash_nodes(mut self, nodes: Vec<NodeId>) -> StormSpec {
        self.crash_nodes = nodes;
        self
    }

    pub fn with_rst_nodes(mut self, nodes: Vec<NodeId>) -> StormSpec {
        self.rst_nodes = nodes;
        self
    }

    pub fn with_max_outage(mut self, d: Dur) -> StormSpec {
        self.max_outage = d;
        self
    }

    pub fn with_atoms(mut self, min: usize, max: usize) -> StormSpec {
        self.min_atoms = min;
        self.max_atoms = max;
        self
    }
}

/// One storm action. Failure and repair travel as a single atom —
/// `outage`/`downtime` of `None` means the damage is permanent — so a
/// storm can be cut apart (for shrinking) without ever separating a
/// `Down` from its `Up`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StormAtom {
    /// Link goes down at `at`; back up `outage` later (never, if None).
    LinkFlap {
        link: LinkId,
        at: Dur,
        outage: Option<Dur>,
    },
    /// Node crashes at `at`; restarts `downtime` later (never, if None).
    NodeCrash {
        node: NodeId,
        at: Dur,
        downtime: Option<Dur>,
    },
    /// The node's established connections are reset at `at`.
    SublinkRst { node: NodeId, at: Dur },
}

impl StormAtom {
    /// When the atom's (first) fault fires, relative to sim start.
    pub fn at(&self) -> Dur {
        match *self {
            StormAtom::LinkFlap { at, .. }
            | StormAtom::NodeCrash { at, .. }
            | StormAtom::SublinkRst { at, .. } => at,
        }
    }

    /// Append this atom's entries to a [`FaultPlan`] under construction.
    fn lower(&self, plan: FaultPlan) -> FaultPlan {
        let t = |d: Dur| Time::ZERO + d;
        match *self {
            StormAtom::LinkFlap {
                link,
                at,
                outage: Some(outage),
            } => plan.link_flap(t(at), link, outage),
            StormAtom::LinkFlap {
                link,
                at,
                outage: None,
            } => plan.link_down(t(at), link),
            StormAtom::NodeCrash {
                node,
                at,
                downtime: Some(downtime),
            } => plan.node_crash(t(at), node, downtime),
            StormAtom::NodeCrash {
                node,
                at,
                downtime: None,
            } => plan.node_down(t(at), node),
            StormAtom::SublinkRst { node, at } => plan.sublink_rst(t(at), node),
        }
    }

    /// The builder-call rendering used by [`StormPlan::drill`].
    fn drill_call(&self) -> String {
        let t = |d: Dur| format!("Time::ZERO + Dur::from_nanos({})", d.0);
        let dur = |d: Dur| format!("Dur::from_nanos({})", d.0);
        match *self {
            StormAtom::LinkFlap {
                link,
                at,
                outage: Some(o),
            } => format!(".link_flap({}, LinkId({}), {})", t(at), link.0, dur(o)),
            StormAtom::LinkFlap {
                link,
                at,
                outage: None,
            } => format!(".link_down({}, LinkId({}))", t(at), link.0),
            StormAtom::NodeCrash {
                node,
                at,
                downtime: Some(d),
            } => format!(".node_crash({}, NodeId({}), {})", t(at), node.0, dur(d)),
            StormAtom::NodeCrash {
                node,
                at,
                downtime: None,
            } => format!(".node_down({}, NodeId({}))", t(at), node.0),
            StormAtom::SublinkRst { node, at } => {
                format!(".sublink_rst({}, NodeId({}))", t(at), node.0)
            }
        }
    }
}

/// A generated storm: the seed it came from plus its atoms, ordered by
/// fire time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StormPlan {
    pub seed: u64,
    pub atoms: Vec<StormAtom>,
}

impl StormPlan {
    /// Lower the atoms to an installable [`FaultPlan`].
    pub fn to_fault_plan(&self) -> FaultPlan {
        fault_plan_of(&self.atoms)
    }

    /// The distinct [`FaultKind`] names this storm exercises (after
    /// lowering — a flap contributes both `LinkDown` and `LinkUp`).
    pub fn kinds(&self) -> BTreeSet<&'static str> {
        self.to_fault_plan()
            .entries()
            .iter()
            .map(|e| fault_kind_name(e.kind))
            .collect()
    }

    /// Paste-able regression drill: a `FaultPlan` builder chain
    /// reproducing exactly this storm's fault schedule.
    pub fn drill(&self) -> String {
        let mut s = format!("// storm seed {}\nFaultPlan::new()", self.seed);
        for atom in &self.atoms {
            s.push_str("\n    ");
            s.push_str(&atom.drill_call());
        }
        s
    }
}

/// Lower a slice of atoms to a [`FaultPlan`] — the shrinker works on
/// atom subsets, so lowering is exposed independently of [`StormPlan`].
pub fn fault_plan_of(atoms: &[StormAtom]) -> FaultPlan {
    atoms
        .iter()
        .fold(FaultPlan::new(), |plan, atom| atom.lower(plan))
}

/// Stable name of a [`FaultKind`] variant, for coverage accounting.
pub fn fault_kind_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::LinkDown(_) => "LinkDown",
        FaultKind::LinkUp(_) => "LinkUp",
        FaultKind::NodeDown(_) => "NodeDown",
        FaultKind::NodeUp(_) => "NodeUp",
        FaultKind::SublinkRst(_) => "SublinkRst",
    }
}

/// Which atom categories a spec can draw from.
#[derive(Clone, Copy)]
enum Category {
    Link,
    Crash,
    Rst,
}

/// Seeded storm generator over a [`StormSpec`].
pub struct FaultStormGen {
    spec: StormSpec,
}

impl FaultStormGen {
    /// # Panics
    ///
    /// On specs that cannot generate anything: no targets at all, an
    /// empty or inverted atom range, a zero horizon, or a permanence
    /// probability outside `[0, 1]`.
    pub fn new(spec: StormSpec) -> FaultStormGen {
        assert!(
            !(spec.links.is_empty() && spec.crash_nodes.is_empty() && spec.rst_nodes.is_empty()),
            "storm spec has no fault targets"
        );
        assert!(
            spec.min_atoms >= 1 && spec.min_atoms <= spec.max_atoms,
            "storm atom range must satisfy 1 <= min <= max"
        );
        assert!(!spec.horizon.is_zero(), "storm horizon must be non-zero");
        assert!(
            (0.0..=1.0).contains(&spec.permanent_p),
            "permanence probability must be in [0, 1]"
        );
        FaultStormGen { spec }
    }

    pub fn spec(&self) -> &StormSpec {
        &self.spec
    }

    /// Generate the storm for `seed`: deterministic, valid by
    /// construction, atoms ordered by fire time.
    pub fn generate(&self, seed: u64) -> StormPlan {
        let spec = &self.spec;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut categories = Vec::new();
        if !spec.links.is_empty() {
            categories.push(Category::Link);
        }
        if !spec.crash_nodes.is_empty() {
            categories.push(Category::Crash);
        }
        if !spec.rst_nodes.is_empty() {
            categories.push(Category::Rst);
        }
        let n = rng.random_range(spec.min_atoms..=spec.max_atoms);
        let mut atoms = Vec::with_capacity(n);
        for _ in 0..n {
            let at = Dur::from_nanos(rng.random_range(0..spec.horizon.0));
            let cat = categories[rng.random_range(0..categories.len())];
            atoms.push(match cat {
                Category::Link => {
                    let link = spec.links[rng.random_range(0..spec.links.len())];
                    let outage = Self::repair(&mut rng, spec);
                    StormAtom::LinkFlap { link, at, outage }
                }
                Category::Crash => {
                    let node = spec.crash_nodes[rng.random_range(0..spec.crash_nodes.len())];
                    let downtime = Self::repair(&mut rng, spec);
                    StormAtom::NodeCrash { node, at, downtime }
                }
                Category::Rst => StormAtom::SublinkRst {
                    node: spec.rst_nodes[rng.random_range(0..spec.rst_nodes.len())],
                    at,
                },
            });
        }
        atoms.sort_by_key(StormAtom::at);
        StormPlan { seed, atoms }
    }

    /// Draw a repair delay, or `None` for permanent damage.
    fn repair(rng: &mut SmallRng, spec: &StormSpec) -> Option<Dur> {
        if rng.random_bool(spec.permanent_p) {
            None
        } else {
            Some(Dur::from_nanos(rng.random_range(1..=spec.max_outage.0)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> StormSpec {
        StormSpec::new(Dur::from_secs(2))
            .with_links(vec![LinkId(0), LinkId(1), LinkId(2)])
            .with_crash_nodes(vec![NodeId(3), NodeId(4)])
            .with_rst_nodes(vec![NodeId(0)])
            .with_atoms(1, 5)
    }

    #[test]
    fn same_seed_same_storm() {
        let g = FaultStormGen::new(spec());
        for seed in 0..32 {
            assert_eq!(g.generate(seed), g.generate(seed));
        }
    }

    #[test]
    fn seeds_produce_distinct_storms() {
        let g = FaultStormGen::new(spec());
        let distinct: BTreeSet<String> = (0..64).map(|s| format!("{:?}", g.generate(s))).collect();
        assert!(
            distinct.len() > 48,
            "only {} distinct storms in 64 seeds",
            distinct.len()
        );
    }

    #[test]
    fn atoms_respect_the_spec_envelope() {
        let g = FaultStormGen::new(spec());
        let s = g.spec().clone();
        for seed in 0..256 {
            let plan = g.generate(seed);
            assert!((s.min_atoms..=s.max_atoms).contains(&plan.atoms.len()));
            assert!(plan.atoms.windows(2).all(|w| w[0].at() <= w[1].at()));
            for atom in &plan.atoms {
                assert!(atom.at() < s.horizon);
                match *atom {
                    StormAtom::LinkFlap { link, outage, .. } => {
                        assert!(s.links.contains(&link));
                        assert!(outage.is_none_or(|o| !o.is_zero() && o <= s.max_outage));
                    }
                    StormAtom::NodeCrash { node, downtime, .. } => {
                        assert!(s.crash_nodes.contains(&node));
                        assert!(downtime.is_none_or(|d| !d.is_zero() && d <= s.max_outage));
                    }
                    StormAtom::SublinkRst { node, .. } => {
                        assert!(s.rst_nodes.contains(&node));
                    }
                }
            }
        }
    }

    #[test]
    fn lowering_pairs_every_repair_with_its_failure() {
        let g = FaultStormGen::new(spec());
        for seed in 0..256 {
            let fp = g.generate(seed).to_fault_plan();
            // Scan entries: every Up must have a pending Down for the
            // same target, scheduled no later than the Up.
            let mut pending_down: Vec<(FaultKind, Time)> = Vec::new();
            for e in fp.entries() {
                match e.kind {
                    FaultKind::LinkUp(l) => {
                        let i = pending_down
                            .iter()
                            .position(|(k, _)| *k == FaultKind::LinkDown(l))
                            .expect("LinkUp without LinkDown");
                        assert!(pending_down.remove(i).1 <= e.at);
                    }
                    FaultKind::NodeUp(nd) => {
                        let i = pending_down
                            .iter()
                            .position(|(k, _)| *k == FaultKind::NodeDown(nd))
                            .expect("NodeUp without NodeDown");
                        assert!(pending_down.remove(i).1 <= e.at);
                    }
                    k @ (FaultKind::LinkDown(_) | FaultKind::NodeDown(_)) => {
                        pending_down.push((k, e.at));
                    }
                    FaultKind::SublinkRst(_) => {}
                }
            }
        }
    }

    #[test]
    fn drill_renders_every_atom_as_a_builder_call() {
        let g = FaultStormGen::new(spec());
        let plan = g.generate(7);
        let drill = plan.drill();
        assert!(drill.contains("seed 7"));
        assert!(drill.contains("FaultPlan::new()"));
        let calls = drill.matches("\n    .").count();
        assert_eq!(calls, plan.atoms.len());
    }

    #[test]
    fn kinds_accounts_for_lowered_entries() {
        let plan = StormPlan {
            seed: 0,
            atoms: vec![
                StormAtom::LinkFlap {
                    link: LinkId(0),
                    at: Dur::from_millis(1),
                    outage: Some(Dur::from_millis(2)),
                },
                StormAtom::NodeCrash {
                    node: NodeId(1),
                    at: Dur::from_millis(3),
                    downtime: None,
                },
                StormAtom::SublinkRst {
                    node: NodeId(0),
                    at: Dur::from_millis(4),
                },
            ],
        };
        let kinds = plan.kinds();
        assert!(kinds.contains("LinkDown"));
        assert!(kinds.contains("LinkUp"));
        assert!(kinds.contains("NodeDown"));
        assert!(!kinds.contains("NodeUp"), "permanent crash has no NodeUp");
        assert!(kinds.contains("SublinkRst"));
    }

    #[test]
    #[should_panic(expected = "no fault targets")]
    fn empty_spec_rejected() {
        let _ = FaultStormGen::new(StormSpec::new(Dur::from_secs(1)));
    }

    #[test]
    #[should_panic(expected = "atom range")]
    fn inverted_atom_range_rejected() {
        let _ = FaultStormGen::new(
            StormSpec::new(Dur::from_secs(1))
                .with_links(vec![LinkId(0)])
                .with_atoms(3, 2),
        );
    }
}
