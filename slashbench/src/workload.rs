//! The benchmark's workloads: which generator makes the input, how many
//! records it has, and which engine entry point runs it.
//!
//! Record counts are part of each workload's definition: on `ysb_uniform`
//! the per-record wall cost grows with the state the run builds, so a
//! different count measures a different thing.

use std::rc::Rc;

use slash_core::{
    HeatPolicy, QueryPlan, RunConfig, RunReport, SlashCluster, SplitReport, SplitRunConfig,
};
use slash_desim::SimTime;
use slash_obs::Obs;
use slash_workloads::{nb8, ysb, ysb_zipf_keyed, GenConfig, Workload};

/// The engine entry point a workload's end-to-end run goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `SlashCluster::run` on the simulator backend.
    Cluster,
    /// `SlashCluster::run` with online hot-key splitting and record
    /// forwarding (`SlashCluster::run_split`).
    Split,
}

/// What the sequential oracle folds: the query each generator defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// YSB: count of `view` events per (10-minute window, campaign).
    YsbCount,
    /// NEXMark Q8: auctions ⋈ sellers pair count per (12-hour window,
    /// seller).
    Nb8Join,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Virtual nodes (one worker each, one input partition per node).
    pub nodes: usize,
    /// Generated records per node.
    pub records_per_node: u64,
    /// Input generator.
    pub gen: fn(&GenConfig) -> Workload,
    /// The query the generator's plan computes.
    pub query: Query,
    /// Engine entry point of the end-to-end run.
    pub engine: Engine,
    /// Epoch size override (`None` keeps `RunConfig`'s default).
    pub epoch_bytes: Option<u64>,
    /// Nominal wall ns per record of the reference fold
    /// ([`crate::oracle::Oracle::fold`]) run right after a set-up: its
    /// median over ten seeds on the two-CPU host the benchmark was tuned
    /// on. It turns the set-up ÷ fold ratio, which factors the host's
    /// speed out, back into seconds.
    pub fold_ns_per_record: f64,
}

fn ysb_zipf_11(cfg: &GenConfig) -> Workload {
    ysb_zipf_keyed(cfg, 1.1)
}

/// Every workload the benchmark runs.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "ysb_uniform",
        nodes: 2,
        records_per_node: 200_000,
        gen: ysb,
        query: Query::YsbCount,
        engine: Engine::Cluster,
        epoch_bytes: None,
        fold_ns_per_record: 98.0,
    },
    Spec {
        name: "nb8_join",
        nodes: 2,
        records_per_node: 75_000,
        gen: nb8,
        query: Query::Nb8Join,
        engine: Engine::Cluster,
        epoch_bytes: None,
        fold_ns_per_record: 55.0,
    },
    Spec {
        name: "ysb_zipf_split",
        nodes: 12,
        records_per_node: 60_000,
        gen: ysb_zipf_11,
        query: Query::YsbCount,
        engine: Engine::Split,
        // The skew sweep's epoch size: small epochs keep the forwarded
        // records' custody chain short.
        epoch_bytes: Some(64 * 1024),
        fold_ns_per_record: 39.0,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Generate the input from `seed`.
    pub fn generate(&self, seed: u64) -> Workload {
        let mut gc = GenConfig::new(self.nodes, self.records_per_node);
        gc.seed = seed;
        (self.gen)(&gc)
    }

    /// A fresh copy of the plan, for backends that build one plan per
    /// node thread.
    pub fn plan(&self) -> QueryPlan {
        (self.gen)(&GenConfig::new(1, 1)).plan
    }

    /// The run configuration every engine call of this workload uses.
    pub fn run_config(&self) -> RunConfig {
        let mut cfg = RunConfig::new(self.nodes, 1);
        cfg.collect_results = true;
        if let Some(b) = self.epoch_bytes {
            cfg.epoch_bytes = b;
        }
        cfg
    }

    /// Run the workload's engine entry point once.
    pub fn run(&self, w: &Workload, obs: Obs) -> (RunReport, Option<SplitReport>) {
        match self.engine {
            Engine::Cluster => (
                SlashCluster::run_with_obs(
                    w.plan.clone(),
                    w.partitions.clone(),
                    self.run_config(),
                    obs,
                ),
                None,
            ),
            Engine::Split => {
                let (r, s) = run_split(self, &w.plan, &w.partitions, obs);
                (r, Some(s))
            }
        }
    }
}

/// The split plane's settings: the same heat policy as the skew sweep of
/// `hotpath-bench --zipf`. A key splits once its provable share of the
/// observed updates reaches 4 %, which on a 10 k-key domain only a skewed
/// head reaches.
pub fn split_config() -> SplitRunConfig {
    SplitRunConfig {
        auto: Some(HeatPolicy {
            hot_ppm: 40_000,
            min_total: 2_000,
            max_splits: 8,
        }),
        sample_every: SimTime::from_micros(20),
        forward: true,
        ..SplitRunConfig::default()
    }
}

/// `SlashCluster::run_split` of `plan` over `partitions` with the
/// benchmark's split settings.
pub fn run_split(
    spec: &Spec,
    plan: &QueryPlan,
    partitions: &[Rc<Vec<u8>>],
    obs: Obs,
) -> (RunReport, SplitReport) {
    SlashCluster::run_split(
        plan.clone(),
        partitions.to_vec(),
        spec.run_config(),
        &split_config(),
        obs,
    )
}
