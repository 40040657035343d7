//! The one cluster driver: wires fabric, SSB and workers once, drives a
//! query end to end in one loop, and reports through one report path.
//!
//! Features attach to a run as services that own their state: recovery
//! ([`crate::recovery`]: checkpoints, promotion, stall detection),
//! planned handoff ([`crate::elastic`]: director, telemetry, handoff
//! machine) and hot-key splitting ([`crate::split`]: ledger, split driver,
//! forward fabric). [`ClusterRun`] composes them; the `SlashCluster::run*`
//! entry points are thin wrappers over it. The loop calls the services in
//! one fixed order, which is part of the determinism contract
//! (`DESIGN.md` §22).

use std::cell::RefCell;
use std::rc::Rc;

use slash_chaos::ChaosConfig;
use slash_desim::{Link, Sim, SimTime};
use slash_net::ChannelConfig;
use slash_obs::Obs;
use slash_rdma::{Fabric, FabricConfig, NodeId};
use slash_state::backend::{build_cluster_obs, SsbConfig};

use crate::cost::CostModel;
use crate::elastic::{ElasticConfig, Handoffs, RescaleReport, ScaleDirector};
use crate::metrics::EngineMetrics;
use crate::query::QueryPlan;
use crate::recovery::{results_digest, Recovery, RecoveryReport};
use crate::sink::SinkResult;
use crate::source::MemorySource;
use crate::split::{SplitReport, SplitRunConfig, SplitService};
use crate::worker::{NodeShared, SlashWorker};

/// Cluster/run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Executor nodes.
    pub nodes: usize,
    /// Worker threads per node (the paper uses 10).
    pub workers_per_node: usize,
    /// Cost model.
    pub cost: CostModel,
    /// Fabric (NIC) configuration.
    pub fabric: FabricConfig,
    /// Delta-channel configuration.
    pub channel: ChannelConfig,
    /// Epoch size in state-update bytes (paper default: 64 MiB).
    pub epoch_bytes: u64,
    /// Records per scheduling batch.
    pub batch_records: usize,
    /// Enable the batch-vectorized hot path: write-combining
    /// pre-aggregation for combinable CRDTs and batched join appends.
    /// Results are identical either way (the combiner only activates for
    /// exactly-associative states); off reproduces the per-record path.
    pub combine: bool,
    /// Write-combiner capacity in slots (rounded up to a power of two;
    /// 1024 × 8-byte values stays comfortably L1-resident).
    pub combiner_slots: usize,
    /// Retain full results (tests) or just count them (benchmarks).
    pub collect_results: bool,
    /// Per-source arrival-rate curve (records/second of virtual time).
    /// `None` streams the pre-generated dataset at full speed; `Some`
    /// releases records over virtual time — the load model behind the
    /// elastic-rescaling scenarios. Applies to every worker's source,
    /// including respawns after promotion or handoff.
    pub pacing: Option<crate::source::RateCurve>,
    /// Safety valve: abort if virtual time exceeds this.
    pub max_virtual_time: SimTime,
}

impl RunConfig {
    /// Sensible defaults for `nodes × workers` executors.
    pub fn new(nodes: usize, workers_per_node: usize) -> Self {
        RunConfig {
            nodes,
            workers_per_node,
            cost: CostModel::default(),
            fabric: FabricConfig::default(),
            channel: ChannelConfig::default(),
            epoch_bytes: 64 * 1024 * 1024,
            batch_records: 512,
            combine: true,
            combiner_slots: 1024,
            collect_results: false,
            pacing: None,
            max_virtual_time: SimTime::from_secs(3600),
        }
    }

    /// The SSB configuration every node of a run under `self` uses.
    pub fn ssb_config(&self) -> SsbConfig {
        SsbConfig {
            nodes: self.nodes,
            epoch_bytes: self.epoch_bytes,
            channel: self.channel,
        }
    }
}

/// Outcome of one end-to-end run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Source records processed across the cluster.
    pub records: u64,
    /// Virtual time at which the last node finished ingesting.
    pub processing_time: SimTime,
    /// Virtual time at which everything (merge + trigger) completed.
    pub completion_time: SimTime,
    /// Results emitted.
    pub emitted: u64,
    /// Join pairs across all results.
    pub total_pairs: u64,
    /// Collected results (when configured).
    pub results: Vec<SinkResult>,
    /// Aggregated engine counters.
    pub metrics: EngineMetrics,
    /// Per-node engine counters.
    pub per_node: Vec<EngineMetrics>,
    /// Per-node primary-partition state digests (order-independent fold
    /// over sorted keys) — lets tests compare end state across runs
    /// without draining it.
    pub state_digests: Vec<u64>,
    /// Bytes the fabric moved (all nodes, TX side).
    pub net_tx_bytes: u64,
}

impl RunReport {
    /// Sustained processing throughput, records/second of virtual time.
    pub fn throughput(&self) -> f64 {
        if self.processing_time == SimTime::ZERO {
            return 0.0;
        }
        self.records as f64 / self.processing_time.as_secs_f64()
    }
}

/// The Slash virtual cluster: one-call entry points over [`ClusterRun`].
pub struct SlashCluster;

impl SlashCluster {
    /// Run `plan` over pre-generated input partitions (one per worker,
    /// node-major order: `partitions[node * workers + worker]`).
    pub fn run(plan: QueryPlan, partitions: Vec<Rc<Vec<u8>>>, cfg: RunConfig) -> RunReport {
        ClusterRun::new(plan, partitions, cfg).run().run
    }

    /// Like [`SlashCluster::run`], threading an observability handle
    /// through every node: workers emit batch spans and record-latency
    /// samples, delta channels trace verbs and epoch phases, and the final
    /// per-node counters are published into the metrics registry.
    pub fn run_with_obs(
        plan: QueryPlan,
        partitions: Vec<Rc<Vec<u8>>>,
        cfg: RunConfig,
        obs: Obs,
    ) -> RunReport {
        ClusterRun::new(plan, partitions, cfg).obs(obs).run().run
    }

    /// A run with the split service ([`ClusterRun::split`]): results and
    /// final state are bit-exact against the unsplit [`SlashCluster::run`]
    /// of the same inputs.
    pub fn run_split(
        plan: QueryPlan,
        partitions: Vec<Rc<Vec<u8>>>,
        cfg: RunConfig,
        scfg: &SplitRunConfig,
        obs: Obs,
    ) -> (RunReport, SplitReport) {
        let out = ClusterRun::new(plan, partitions, cfg).obs(obs).split(scfg).run();
        (out.run, out.split)
    }

    /// A run with the recovery service ([`ClusterRun::recovery`]). With an
    /// empty plan this is the fault-tolerant no-fault baseline: the same
    /// checkpoint and gating overheads, the reference for exactness
    /// comparisons.
    pub fn run_chaos(
        plan: QueryPlan,
        partitions: Vec<Rc<Vec<u8>>>,
        cfg: RunConfig,
        chaos: &ChaosConfig,
        obs: Obs,
    ) -> (RunReport, RecoveryReport) {
        let out = ClusterRun::new(plan, partitions, cfg).obs(obs).recovery(chaos).run();
        (out.run, out.recovery)
    }

    /// A run with the recovery and handoff services
    /// ([`ClusterRun::elastic`]): crashes mid-handoff abort or fall back
    /// per the §18 interaction matrix.
    pub fn run_elastic(
        plan: QueryPlan,
        partitions: Vec<Rc<Vec<u8>>>,
        cfg: RunConfig,
        chaos: &ChaosConfig,
        ecfg: &ElasticConfig,
        director: &mut dyn ScaleDirector,
        obs: Obs,
    ) -> (RunReport, RecoveryReport, RescaleReport) {
        let run = ClusterRun::new(plan, partitions, cfg).obs(obs).recovery(chaos);
        let out = run.elastic(ecfg, director).run();
        (out.run, out.recovery, out.rescale)
    }
}

/// Per-node shared state, behind one more cell: promotion and handoff
/// *replace* a node's slot, which the split driver must see.
pub(crate) type Shareds = Rc<RefCell<Vec<Rc<RefCell<NodeShared>>>>>;

/// The one setup of a run, which every service reads and mutates.
pub(crate) struct Cluster {
    pub(crate) sim: Sim,
    pub(crate) fabric: Fabric,
    /// One provisioned fabric port per logical node; parked ports idle
    /// until a migration lands on them.
    pub(crate) node_ids: Vec<NodeId>,
    /// `host[p]` = index of the port hosting partition `p`'s leader.
    pub(crate) host: Vec<usize>,
    /// One memory-bandwidth link per host: co-located partitions contend
    /// for it, and a re-homed partition moves onto its new host's link.
    pub(crate) host_links: Vec<Rc<RefCell<Link>>>,
    pub(crate) shareds: Shareds,
    pub(crate) partitions: Vec<Rc<Vec<u8>>>,
    pub(crate) plan: Rc<QueryPlan>,
    pub(crate) cfg: RunConfig,
    pub(crate) obs: Obs,
}

impl Cluster {
    /// Fabric port currently hosting partition `p`.
    pub(crate) fn port(&self, p: usize) -> NodeId {
        self.node_ids[self.host[p]]
    }

    /// Whether partition `p`'s current host port is alive.
    pub(crate) fn alive(&self, p: usize) -> bool {
        self.fabric.node_alive(self.port(p))
    }

    /// Spawn every worker of `node`, resuming at `resume_pos` if given.
    pub(crate) fn spawn_workers(
        &mut self,
        node: usize,
        shared: &Rc<RefCell<NodeShared>>,
        resume_pos: Option<&[usize]>,
    ) {
        let (plan, schema) = (&self.plan, self.plan.input().schema);
        let parts = &self.partitions;
        spawn_node_workers(&mut self.sim, node, shared, parts, schema, plan, &self.cfg, resume_pos);
    }
}

/// A run under construction: the query, its input and configuration,
/// and the services attached to it.
pub struct ClusterRun<'a> {
    plan: QueryPlan,
    partitions: Vec<Rc<Vec<u8>>>,
    cfg: RunConfig,
    obs: Obs,
    chaos: Option<&'a ChaosConfig>,
    elastic: Option<(&'a ElasticConfig, &'a mut dyn ScaleDirector)>,
    split: Option<&'a SplitRunConfig>,
}

/// Everything a [`ClusterRun`] reports; reports of services the run did
/// not attach are empty.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The engine report.
    pub run: RunReport,
    /// Crash repairs and checkpoint counts (recovery service).
    pub recovery: RecoveryReport,
    /// Migrations and host counts (handoff service).
    pub rescale: RescaleReport,
    /// Activated splits and forwarded records (split service).
    pub split: SplitReport,
}

impl<'a> ClusterRun<'a> {
    /// A fault-free run of `plan` over `partitions` (one per worker,
    /// node-major) with no services attached.
    pub fn new(plan: QueryPlan, partitions: Vec<Rc<Vec<u8>>>, cfg: RunConfig) -> Self {
        let obs = Obs::disabled();
        ClusterRun { plan, partitions, cfg, obs, chaos: None, elastic: None, split: None }
    }

    /// Thread an observability handle through every node.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attach the recovery service ([`crate::recovery`]): arm
    /// `chaos.plan` against the fabric, checkpoint every epoch boundary to
    /// buddies, gate commits on durability, and repair stalled nodes
    /// (promotion, or channel reset + replay). When `cfg.collect_results`
    /// is set, results are deduplicated by `(window, key)`.
    pub fn recovery(mut self, chaos: &'a ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Attach the handoff service ([`crate::elastic`]): partitions start
    /// on `ecfg.initial_hosts` and `director` migrates them mid-run.
    /// Handoffs commit through the recovery install path, so this needs
    /// [`ClusterRun::recovery`] too.
    pub fn elastic(
        mut self,
        ecfg: &'a ElasticConfig,
        director: &'a mut dyn ScaleDirector,
    ) -> Self {
        self.elastic = Some((ecfg, director));
        self
    }

    /// Attach the split service ([`crate::split`]): hot keys split per
    /// `scfg` (pre-splits and/or online detection), with optional record
    /// forwarding (not combinable with recovery).
    pub fn split(mut self, scfg: &'a SplitRunConfig) -> Self {
        self.split = Some(scfg);
        self
    }

    /// Build the cluster once, drive it until every node declares
    /// completion, and assemble the reports.
    pub fn run(self) -> ClusterOutcome {
        let ClusterRun { plan, partitions, cfg, obs, chaos, elastic, split } = self;
        let n = cfg.nodes;
        assert_eq!(partitions.len(), n * cfg.workers_per_node, "need one partition per worker");
        assert!(
            elastic.is_none() || chaos.is_some(),
            "planned handoff commits through the recovery service; attach it"
        );
        assert!(
            chaos.is_none() || split.is_none_or(|s| !s.forward),
            "record forwarding is fault-free only"
        );
        let host: Vec<usize> = match &elastic {
            Some((ecfg, _)) => ecfg.initial_hosts.clone(),
            None => (0..n).collect(),
        };
        assert_eq!(host.len(), n, "one initial host per partition");
        assert!(host.iter().all(|&h| h < n), "hosts index the provisioned ports (0..nodes)");
        let fabric = Fabric::new(cfg.fabric);
        let node_ids = fabric.add_nodes(n);
        let mapped: Vec<NodeId> = host.iter().map(|&h| node_ids[h]).collect();
        let ssb_nodes =
            build_cluster_obs(&fabric, &mapped, plan.descriptor(), cfg.ssb_config(), obs.clone());
        let mut cl = Cluster {
            sim: Sim::new(),
            fabric,
            node_ids,
            host,
            host_links: (0..n)
                .map(|_| Rc::new(RefCell::new(Link::new(cfg.cost.mem_bandwidth))))
                .collect(),
            shareds: Rc::new(RefCell::new(Vec::with_capacity(n))),
            partitions,
            plan: Rc::new(plan),
            cfg,
            obs,
        };
        let mut recovery = chaos.map(|c| Recovery::new(c, n));
        let mut handoff = elastic.map(|(_, director)| Handoffs::new(director, &cl));
        let splitter = split.map(|s| SplitService::new(s, &cl));
        for (node, ssb) in ssb_nodes.into_iter().enumerate() {
            let mut sh = NodeShared::for_run(ssb, node, &cl.cfg, &cl.obs);
            sh.mem = Rc::clone(&cl.host_links[cl.host[node]]);
            if let Some(s) = &splitter {
                s.attach(&mut sh, node);
            }
            if let Some(r) = &recovery {
                r.attach(&mut sh, node);
            }
            let shared = Rc::new(RefCell::new(sh));
            cl.spawn_workers(node, &shared, None);
            cl.shareds.borrow_mut().push(shared);
            if let Some(h) = &handoff {
                h.publish_owner(&cl, node);
            }
        }
        if let Some(r) = &recovery {
            r.arm(&mut cl);
        }
        if let Some(s) = &splitter {
            s.spawn_driver(&mut cl);
        }

        // The one drive loop. After every slice the services run in a
        // fixed order (DESIGN.md §22): recovery's tick (dead-port sweep,
        // pump finished nodes, ft_tick, promo_tick), the handoff machines,
        // the director, and stall detection last.
        let slice = recovery.as_ref().map_or(SimTime::from_millis(10), Recovery::slice);
        loop {
            if cl.shareds.borrow().iter().all(|s| s.borrow().finished) {
                break;
            }
            assert!(
                cl.sim.now() <= cl.cfg.max_virtual_time,
                "query did not complete within the virtual-time budget \
                 (possible protocol livelock)"
            );
            // An empty event queue is no deadlock while a service has work
            // outstanding: `run_until` still advances virtual time.
            let outstanding = recovery.as_ref().is_some_and(|r| r.outstanding(&cl))
                || handoff.as_ref().is_some_and(Handoffs::in_flight);
            assert!(
                cl.sim.pending_events() > 0 || outstanding,
                "simulation quiesced before the query completed (deadlock)"
            );
            let horizon = cl.sim.now() + slice;
            cl.sim.run_until(horizon);
            let Some(rec) = recovery.as_mut() else { continue };
            for d in rec.tick(&mut cl) {
                if let Some(h) = &handoff {
                    h.publish_owner(&cl, d);
                }
            }
            if let Some(h) = handoff.as_mut() {
                h.tick(&mut cl, rec);
                h.direct(&cl, rec);
            }
            rec.detect(&cl, |p| handoff.as_ref().is_some_and(|h| h.owns(p)));
        }
        let completion_time = cl.sim.now();
        let mut rec = recovery.map(Recovery::finish);
        let run = assemble_report(&cl, completion_time, rec.as_mut());
        ClusterOutcome {
            run,
            recovery: rec.unwrap_or_default(),
            rescale: handoff.map(|h| h.finish(&cl)).unwrap_or_default(),
            split: splitter.map(SplitService::finish).unwrap_or_default(),
        }
    }
}

/// Spawn (or respawn) every worker of `node` against its partitions. Used
/// by the driver, promotion, and the threaded executor (`slash-exec`): a
/// promoted node resurrects *all* of its worker partitions through this
/// one path, with `resume_pos` seeking each worker's source to its
/// checkpointed byte position (fresh starts pass `None`). The threaded
/// backend calls it once per node against that node's private `Sim`, so
/// the exact same worker code runs under both schedulers.
#[allow(clippy::too_many_arguments)]
pub fn spawn_node_workers(
    sim: &mut Sim,
    node: usize,
    shared: &Rc<RefCell<NodeShared>>,
    partitions: &[Rc<Vec<u8>>],
    schema: crate::record::RecordSchema,
    plan: &Rc<QueryPlan>,
    cfg: &RunConfig,
    resume_pos: Option<&[usize]>,
) {
    for w in 0..cfg.workers_per_node {
        let part = Rc::clone(&partitions[node * cfg.workers_per_node + w]);
        let mut source = MemorySource::new(part, schema, cfg.batch_records);
        if let Some(curve) = cfg.pacing {
            source.set_pacing(curve);
        }
        if let Some(pos) = resume_pos {
            source.seek(pos[w]);
        }
        sim.spawn(SlashWorker::new(
            node,
            w,
            Rc::clone(shared),
            source,
            Rc::clone(plan),
            cfg.cost,
            cfg.combine,
            cfg.combiner_slots,
        ));
    }
}

/// The one report path: fold every node's counters into a [`RunReport`]
/// and publish them. With recovery attached, collected results are
/// deduplicated by `(window, key)` in deterministic order (a window
/// triggered right around a checkpoint boundary may be re-fired by a
/// resurrected leader) and `rec` receives the exactness digests.
fn assemble_report(
    cl: &Cluster,
    completion_time: SimTime,
    rec: Option<&mut RecoveryReport>,
) -> RunReport {
    let mut report = RunReport {
        completion_time,
        net_tx_bytes: cl.fabric.total_tx_bytes(),
        ..RunReport::default()
    };
    for shared in cl.shareds.borrow().iter() {
        let sh = shared.borrow();
        report.records += sh.records;
        report.processing_time = report.processing_time.max(sh.last_ingest);
        report.emitted += sh.sink.emitted;
        report.total_pairs += sh.sink.total_pairs;
        report.results.extend(sh.sink.results.iter().cloned());
        report.metrics.absorb(&sh.metrics);
        report.per_node.push(sh.metrics.clone());
        report.state_digests.push(sh.ssb.state_digest());
        sh.publish_obs();
    }
    if cl.obs.is_enabled() {
        cl.obs.counter_add("net_tx_bytes", "fabric", report.net_tx_bytes);
    }
    report.metrics.set_records(report.records);
    if let Some(rec) = rec {
        if cl.cfg.collect_results {
            let window_key = |r: &SinkResult| match *r {
                SinkResult::Agg { window_id, key, .. }
                | SinkResult::Join { window_id, key, .. } => (window_id, key),
            };
            // Stable sort, then keep the first result of each key.
            report.results.sort_by_key(window_key);
            report.results.dedup_by_key(|r| window_key(r));
            report.emitted = report.results.len() as u64;
            report.total_pairs = report
                .results
                .iter()
                .map(|r| match r {
                    SinkResult::Join { pairs, .. } => *pairs,
                    SinkResult::Agg { .. } => 0,
                })
                .sum();
        }
        rec.results_digest = results_digest(&report.results);
        rec.state_digests = report.state_digests.clone();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::query::StreamDef;
    use crate::record::RecordSchema;
    use crate::window::WindowAssigner;

    /// Generate `n` records of (ts, key): ts increments by `dt`, keys
    /// round-robin over `keys`.
    fn gen(n: u64, dt: u64, keys: u64, start_ts: u64) -> Rc<Vec<u8>> {
        let mut buf = Vec::with_capacity((n * 16) as usize);
        for i in 0..n {
            buf.extend_from_slice(&(start_ts + i * dt).to_le_bytes());
            buf.extend_from_slice(&(i % keys).to_le_bytes());
        }
        Rc::new(buf)
    }

    fn count_plan(window: u64) -> QueryPlan {
        QueryPlan::Aggregate {
            input: StreamDef::new(RecordSchema::plain(16)),
            window: WindowAssigner::Tumbling { size: window },
            agg: AggSpec::Count,
        }
    }

    #[test]
    fn single_node_single_worker_counts_correctly() {
        let mut cfg = RunConfig::new(1, 1);
        cfg.collect_results = true;
        cfg.epoch_bytes = 4096;
        let report = SlashCluster::run(count_plan(100), vec![gen(1000, 1, 4, 0)], cfg);
        assert_eq!(report.records, 1000);
        // 1000 records, ts 0..999, windows of 100 → 10 windows × 4 keys.
        assert_eq!(report.emitted, 40);
        let total: f64 = report
            .results
            .iter()
            .map(|r| match r {
                SinkResult::Agg { value, .. } => *value,
                _ => 0.0,
            })
            .sum();
        assert_eq!(total as u64, 1000);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn multi_node_counts_match_sequential_semantics() {
        let n_nodes = 3;
        let workers = 2;
        let mut cfg = RunConfig::new(n_nodes, workers);
        cfg.collect_results = true;
        cfg.epoch_bytes = 2048;
        // Same key space across all partitions: state is genuinely shared.
        let partitions: Vec<Rc<Vec<u8>>> = (0..n_nodes * workers)
            .map(|_| gen(500, 2, 8, 0))
            .collect();
        let report = SlashCluster::run(count_plan(200), partitions, cfg);
        assert_eq!(report.records, 6 * 500);
        // ts span 0..1000 step 2 → windows 0..4 (5 windows) × 8 keys.
        assert_eq!(report.emitted, 5 * 8);
        // Every window×key count: 500 records per partition spread over
        // 5 windows × 8 keys = 12.5 → 100 per window per... per partition:
        // each window has 100 records, split over 8 keys round-robin.
        // Just check the grand total.
        let total: f64 = report
            .results
            .iter()
            .map(|r| match r {
                SinkResult::Agg { value, .. } => *value,
                _ => 0.0,
            })
            .sum();
        assert_eq!(total as u64, 6 * 500);
        assert!(report.net_tx_bytes > 0, "state deltas must cross the wire");
    }

    #[test]
    fn windows_never_fire_early_or_twice() {
        let mut cfg = RunConfig::new(2, 1);
        cfg.collect_results = true;
        cfg.epoch_bytes = 1024;
        let partitions = vec![gen(400, 5, 4, 0), gen(400, 5, 4, 0)];
        let report = SlashCluster::run(count_plan(500), partitions, cfg);
        // Each (window, key) appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for r in &report.results {
            if let SinkResult::Agg { window_id, key, .. } = r {
                assert!(seen.insert((*window_id, *key)), "duplicate trigger");
            }
        }
        assert_eq!(report.emitted as usize, seen.len());
    }

    #[test]
    fn join_pairs_match_expectation() {
        // Unified join records: [ts, key, side, pad] = 32 bytes.
        let schema_size = 32;
        let mk = |n: u64, side: u64| -> Vec<u8> {
            let mut buf = Vec::new();
            for i in 0..n {
                buf.extend_from_slice(&(i * 10).to_le_bytes());
                buf.extend_from_slice(&(i % 2).to_le_bytes()); // 2 keys
                buf.extend_from_slice(&side.to_le_bytes());
                buf.extend_from_slice(&0u64.to_le_bytes());
            }
            buf
        };
        // Node 0 streams lefts, node 1 streams rights; same keys and ts.
        let plan = QueryPlan::Join {
            input: StreamDef::new(RecordSchema::plain(schema_size)),
            side_off: 16,
            window: WindowAssigner::Tumbling { size: 1_000_000 },
            retain_bytes: 16,
        };
        let mut cfg = RunConfig::new(2, 1);
        cfg.collect_results = true;
        let report = SlashCluster::run(
            plan,
            vec![Rc::new(mk(10, 0)), Rc::new(mk(10, 1))],
            cfg,
        );
        // One window; per key: 5 lefts × 5 rights = 25 pairs, 2 keys.
        assert_eq!(report.total_pairs, 50);
        assert_eq!(report.emitted, 2);
    }

    /// Every service in one run: online hot-key detection, a scripted
    /// handoff and a node crash compose. Results are bit-exact against the
    /// plain fault-free run, and final state against the same plan and
    /// faults without splitting.
    #[test]
    fn split_handoff_and_crash_compose_in_one_run() {
        use crate::elastic::{ElasticConfig, MigrationCmd, ScriptedDirector};
        use crate::recovery::{results_digest, RecoveryAction};
        use crate::split::{HeatPolicy, SplitRunConfig};
        use slash_chaos::{FaultPlan, FtConfig};

        let nodes = 4;
        // Two hot keys, one led by partition 1 (its port crashes and it is
        // promoted) and one by partition 2 (handed off): both incarnations
        // must keep folding their sub-keys. Each carries a quarter of the
        // records; the rest round-robin 32 keys.
        let led_by = |p: usize| {
            (1_000u64..)
                .find(|&k| slash_state::hash::partition_of(k as u128, nodes) == p)
                .expect("some key is led by every partition")
        };
        let hot = [led_by(1), led_by(2)];
        let parts: Vec<Rc<Vec<u8>>> = (0..nodes)
            .map(|_| {
                let mut buf = Vec::new();
                for i in 0..60_000u64 {
                    let key = match i % 4 {
                        0 => hot[0],
                        2 => hot[1],
                        _ => i % 32,
                    };
                    buf.extend_from_slice(&i.to_le_bytes());
                    buf.extend_from_slice(&key.to_le_bytes());
                }
                Rc::new(buf)
            })
            .collect();
        let mut cfg = RunConfig::new(nodes, 1);
        cfg.collect_results = true;
        cfg.epoch_bytes = 16 * 1024;
        let chaos = ChaosConfig {
            plan: FaultPlan::new().crash(SimTime::from_micros(500), 1),
            ft: FtConfig {
                detect_timeout: SimTime::from_micros(300),
                ckpt_max_chunk: 16 * 1024,
                ckpt_copies: 2,
            },
        };
        let ecfg = ElasticConfig::packed(nodes, 2);
        let script = vec![(SimTime::from_micros(300), MigrationCmd { partition: 2, to_host: 2 })];
        let scfg = SplitRunConfig {
            auto: Some(HeatPolicy {
                hot_ppm: 150_000,
                min_total: 2_000,
                max_splits: 4,
            }),
            sample_every: SimTime::from_micros(20),
            ..SplitRunConfig::default()
        };
        let elastic_run = |split: Option<&SplitRunConfig>| {
            let mut director = ScriptedDirector::new(script.clone());
            let run = ClusterRun::new(count_plan(4_000), parts.clone(), cfg)
                .recovery(&chaos)
                .elastic(&ecfg, &mut director);
            match split {
                Some(scfg) => run.split(scfg).run(),
                None => run.run(),
            }
        };
        let out = elastic_run(Some(&scfg));
        for key in hot {
            assert!(
                out.split.splits.iter().any(|&(k, at)| k == key && at > SimTime::ZERO),
                "key {key} must split online: {:?}",
                out.split.splits
            );
        }
        assert!(
            out.rescale.migrations.iter().any(|m| !m.aborted),
            "{:?}",
            out.rescale.migrations
        );
        assert!(
            out.recovery
                .events
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::Promoted { .. })),
            "{:?}",
            out.recovery.events
        );
        let plain = SlashCluster::run(count_plan(4_000), parts.clone(), cfg);
        assert_eq!(out.run.records, plain.records, "every record exactly once");
        assert_eq!(
            out.recovery.results_digest,
            results_digest(&plain.results),
            "split + handoff + crash must match the plain run's results"
        );
        let unsplit = elastic_run(None);
        assert_eq!(
            out.recovery.state_digests, unsplit.recovery.state_digests,
            "no sub-key residue may survive in final state"
        );
    }

    /// The forwarding plane's watermark floor has no recovery story, so
    /// forwarding combined with the recovery service stays rejected.
    #[test]
    #[should_panic(expected = "record forwarding is fault-free only")]
    fn forwarding_with_recovery_is_rejected() {
        let chaos = ChaosConfig::default();
        let scfg = SplitRunConfig {
            forward: true,
            ..SplitRunConfig::default()
        };
        let parts = vec![gen(100, 1, 4, 0), gen(100, 1, 4, 0)];
        ClusterRun::new(count_plan(100), parts, RunConfig::new(2, 1))
            .recovery(&chaos)
            .split(&scfg)
            .run();
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut cfg = RunConfig::new(2, 2);
            cfg.epoch_bytes = 4096;
            let partitions: Vec<Rc<Vec<u8>>> =
                (0..4).map(|_| gen(300, 3, 16, 0)).collect();
            let r = SlashCluster::run(count_plan(100), partitions, cfg);
            (r.records, r.emitted, r.completion_time, r.net_tx_bytes)
        };
        assert_eq!(run(), run(), "virtual-time runs must be bit-identical");
    }
}
