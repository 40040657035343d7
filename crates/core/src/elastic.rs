//! Elastic rescaling: live partition migration (planned handoff) as a
//! service of the one cluster driver ([`crate::cluster`]).
//!
//! The recovery machinery of [`crate::recovery`] resurrects a partition's
//! leadership on a new host *after a crash*. This module generalizes that
//! state machine into **promotion without a crash**: a planned handoff
//! ships the partition's checkpoint to a target host while the source
//! leader keeps serving traffic, halts the source for one bounded cutover
//! window, captures an exactly-current epoch boundary, and then commits
//! through the *same* atomic install path a crash promotion uses (the
//! recovery service's commit): channel re-establishment with
//! commit-horizon handshakes, retained-epoch replay, worker respawn at
//! checkpointed source positions. Exactly-once results are preserved by
//! the existing epoch-id dedup and `(window, key)` result dedup — a
//! handoff is indistinguishable from a very fast, loss-free promotion.
//!
//! Topology: `cfg.nodes` logical partitions over as many *provisioned*
//! ports (hosts), initially packed several per host — co-located
//! partitions share one port (loopback channels) and one memory link, so
//! spreading them to parked hosts genuinely adds memory bandwidth. A
//! [`ScaleDirector`] turns telemetry into [`MigrationCmd`]s every driver
//! slice; the policy lives in `crates/scale`, the mechanism here.
//!
//! The handoff state machine (full spec: `DESIGN.md` §18):
//!
//! ```text
//!   Warmup ──(warm copy landed)──► halt + capture ──► Cutover ──► Reconnect ──► commit
//!     │ target dies: abort free            │ target dies: fall back to source host
//!     │ source dies: drop plan            │ source dies: drop plan, §15 promotion takes over
//! ```
//!
//! Crash faults may land at any instant; the §15 recovery service runs
//! alongside, interacting only through the `host[]` map and
//! per-partition exclusivity (at most one machine owns a partition). The
//! driver's fixed service order is `DESIGN.md` §22.

use std::collections::BTreeMap;
use std::rc::Rc;

use slash_desim::SimTime;
use slash_obs::{Cat, Obs};

use crate::cluster::Cluster;
use crate::recovery::{on_epoch_closed, reconnect_time, transfer_time, Checkpoint, Recovery};

/// Trace tid for driver-side rescale events (promotions use
/// tid 901 on the same victim pid).
const RESCALE_TID: u32 = 902;

/// Floor for the cutover tail transfer: control messages and the final
/// epoch's chunks never ship for free.
const MIN_TAIL_BYTES: u64 = 256;

/// Elastic-run topology. A planned handoff always pre-ships a warm
/// checkpoint copy before halting the source, so the cutover pays only
/// the delta since the last boundary.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Initial host of each logical partition (`len == cfg.nodes`); hosts
    /// index the same range, so `[0,1,2,3,0,1,2,3]` packs 8 partitions
    /// onto 4 of 8 provisioned hosts, parking the rest.
    pub initial_hosts: Vec<usize>,
}

impl ElasticConfig {
    /// Pack `partitions` logical partitions round-robin onto the first
    /// `hosts` of as many provisioned ports: partition `p` starts on host
    /// `p % hosts`.
    pub fn packed(partitions: usize, hosts: usize) -> Self {
        assert!(hosts >= 1 && hosts <= partitions);
        ElasticConfig {
            initial_hosts: (0..partitions).map(|p| p % hosts).collect(),
        }
    }
}

/// One migration order from the [`ScaleDirector`]: move `partition`'s
/// leadership to `to_host`'s port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCmd {
    /// Logical partition to move.
    pub partition: usize,
    /// Destination host (port index).
    pub to_host: usize,
}

/// What the director sees each driver slice. All counters are cumulative
/// since run start; the director differentiates them itself.
#[derive(Debug, Clone)]
pub struct ClusterTelemetry {
    /// Current virtual time.
    pub now: SimTime,
    /// Records the pacing curves have released cluster-wide so far
    /// (equals `processed_records` for unpaced runs).
    pub released_records: u64,
    /// Records fully processed cluster-wide.
    pub processed_records: u64,
    /// Total records the run will ever see.
    pub total_records: u64,
    /// Current host of each partition.
    pub host_of: Vec<usize>,
    /// Distinct hosts currently owning at least one partition.
    pub hosts_in_use: usize,
    /// Per-partition state updates applied cluster-wide (the SpaceSaving
    /// heat telemetry; zeros when observability is disabled).
    pub partition_updates: Vec<u64>,
    /// Handoffs currently in flight.
    pub migrations_in_flight: usize,
}

impl ClusterTelemetry {
    /// Released-but-unprocessed records: the backlog the pacing curve has
    /// built up against the cluster's service rate.
    pub fn backlog(&self) -> u64 {
        self.released_records.saturating_sub(self.processed_records)
    }
}

/// A scaling policy: consumes telemetry every driver slice, emits
/// migration plans. The driver validates and executes them; invalid
/// commands (dead hosts, partitions already migrating) are dropped.
pub trait ScaleDirector {
    /// Observe one telemetry sample; return migrations to start now.
    fn tick(&mut self, t: &ClusterTelemetry) -> Vec<MigrationCmd>;
}

/// The do-nothing director: a static cluster with the full elastic
/// machinery loaded (checkpoint gating, handoff plumbing) but no
/// migrations — the baseline for exactness and throughput comparisons.
#[derive(Debug, Default, Clone, Copy)]
pub struct StaticDirector;

impl ScaleDirector for StaticDirector {
    fn tick(&mut self, _t: &ClusterTelemetry) -> Vec<MigrationCmd> {
        Vec::new()
    }
}

/// A director that replays a fixed migration schedule: each command fires
/// at the first telemetry tick at or after its virtual time. Used by
/// tests, chaos scenarios, and examples where the *mechanism* is under
/// study and the policy must be deterministic by construction.
#[derive(Debug, Clone)]
pub struct ScriptedDirector {
    script: Vec<(SimTime, MigrationCmd)>,
    next: usize,
}

impl ScriptedDirector {
    /// A director firing `script` in order (must be sorted by time).
    pub fn new(script: Vec<(SimTime, MigrationCmd)>) -> Self {
        assert!(script.windows(2).all(|w| w[0].0 <= w[1].0), "script sorted");
        ScriptedDirector { script, next: 0 }
    }
}

impl ScaleDirector for ScriptedDirector {
    fn tick(&mut self, t: &ClusterTelemetry) -> Vec<MigrationCmd> {
        let mut out = Vec::new();
        while self.next < self.script.len() && self.script[self.next].0 <= t.now {
            out.push(self.script[self.next].1);
            self.next += 1;
        }
        out
    }
}

/// One completed (or aborted) partition migration.
#[derive(Debug, Clone)]
pub struct MigrationEvent {
    /// Partition that moved.
    pub partition: usize,
    /// Host it left.
    pub from_host: usize,
    /// Host it landed on (== `from_host` when the plan fell back).
    pub to_host: usize,
    /// When the director's command was accepted.
    pub planned_at: SimTime,
    /// When the source leader was halted (cutover start); equals
    /// `committed_at` for plans aborted before the halt.
    pub halted_at: SimTime,
    /// When the new leader committed (cutover end).
    pub committed_at: SimTime,
    /// Whether the plan aborted (target died mid-handoff). An aborted
    /// post-halt plan re-commits on the source host — no records lost.
    pub aborted: bool,
}

impl MigrationEvent {
    /// The record-path stall this migration caused: halt → commit.
    pub fn stall(&self) -> SimTime {
        self.committed_at - self.halted_at
    }
}

/// Rescale-side outcome of an elastic run.
#[derive(Debug, Clone, Default)]
pub struct RescaleReport {
    /// Every migration, in commit/abort order.
    pub migrations: Vec<MigrationEvent>,
    /// Most hosts ever simultaneously owning partitions.
    pub peak_hosts: usize,
    /// Hosts owning partitions at completion.
    pub final_hosts: usize,
}

impl RescaleReport {
    /// Worst cutover stall across completed (non-free-aborted) handoffs.
    pub fn max_stall(&self) -> Option<SimTime> {
        self.migrations.iter().map(MigrationEvent::stall).max()
    }

    /// Migrations that aborted.
    pub fn aborted(&self) -> usize {
        self.migrations.iter().filter(|m| m.aborted).count()
    }
}

/// Pre-commit phases of a planned handoff. The post-halt phases carry
/// the cutover checkpoint captured at the halt.
enum HandoffPhase {
    /// Warm checkpoint copy streams to the target; source still serves.
    Warmup,
    /// Source halted, cutover checkpoint captured, tail transfer on the
    /// wire.
    Cutover(Rc<Checkpoint>),
    /// Replacement channels handshake to ready.
    Reconnect(Rc<Checkpoint>),
}

/// A handoff in flight for one partition (keyed by partition in the
/// service's map).
struct Handoff {
    from_host: usize,
    to_host: usize,
    planned_at: SimTime,
    phase: HandoffPhase,
    phase_done_at: SimTime,
    /// Bytes of the warm copy already on the target when the halt lands.
    warm_bytes: u64,
    halted_at: SimTime,
    aborted: bool,
}

fn hosts_in_use(host: &[usize]) -> usize {
    let mut hosts = host.to_vec();
    hosts.sort_unstable();
    hosts.dedup();
    hosts.len()
}

fn set_owner_gauges(obs: &Obs, p: usize, owner: usize, phase: u64) {
    if obs.is_enabled() {
        let label = format!("part={p}");
        obs.gauge_set("partition_owner", &label, owner as f64);
        obs.gauge_set("migration_phase", &label, phase as f64);
    }
}

/// The handoff service: the scale director, the telemetry it reads, and
/// the handoff machines. Attached by
/// [`ClusterRun::elastic`](crate::ClusterRun::elastic).
pub(crate) struct Handoffs<'a> {
    director: &'a mut dyn ScaleDirector,
    /// In-flight handoffs, keyed by partition.
    machines: BTreeMap<usize, Handoff>,
    /// Records the run will ever see (telemetry).
    total_records: u64,
    report: RescaleReport,
}

impl<'a> Handoffs<'a> {
    pub(crate) fn new(director: &'a mut dyn ScaleDirector, cl: &Cluster) -> Self {
        let record = cl.plan.input().schema.size;
        Handoffs {
            director,
            machines: BTreeMap::new(),
            total_records: cl.partitions.iter().map(|p| (p.len() / record) as u64).sum(),
            report: RescaleReport {
                peak_hosts: hosts_in_use(&cl.host),
                ..RescaleReport::default()
            },
        }
    }

    /// Publish partition `p`'s owner gauge (no migration in progress).
    pub(crate) fn publish_owner(&self, cl: &Cluster, p: usize) {
        set_owner_gauges(&cl.obs, p, cl.host[p], 0);
    }

    /// Whether a handoff machine owns partition `p`.
    pub(crate) fn owns(&self, p: usize) -> bool {
        self.machines.contains_key(&p)
    }

    /// Whether any handoff is in flight.
    pub(crate) fn in_flight(&self) -> bool {
        !self.machines.is_empty()
    }

    /// Advance every in-flight handoff one driver tick: honour crash
    /// interactions (source dead → drop the plan, §15 promotion takes
    /// over; target dead → abort free pre-halt, fall back to the source
    /// host post-halt), and walk Warmup → halt+capture → Cutover →
    /// Reconnect → commit. The commit reuses the crash-promotion install
    /// path verbatim.
    pub(crate) fn tick(&mut self, cl: &mut Cluster, rec: &mut Recovery) {
        let now = cl.sim.now();
        let parts: Vec<usize> = self.machines.keys().copied().collect();
        for p in parts {
            let Some(h) = self.machines.get_mut(&p) else { continue };
            // Source leader died mid-handoff: the plan is void. The
            // dead-port sweep has flagged the partition, and dropping the
            // machine hands it to the §15 detect → promote cycle.
            if !cl.alive(p) {
                self.abort(cl, p, "reason_source_dead");
                continue;
            }
            // Target died: before the halt nothing moved — abort free.
            // After it, fall back to the source host: the checkpoint is
            // already there, only the reconnect handshake remains.
            if !cl.fabric.node_alive(cl.node_ids[h.to_host]) {
                if matches!(h.phase, HandoffPhase::Warmup) {
                    self.abort(cl, p, "reason_target_dead");
                    continue;
                }
                if !h.aborted {
                    h.aborted = true;
                    h.to_host = cl.host[p];
                    h.phase_done_at = now;
                    cl.obs.instant(
                        Cat::Fault,
                        "handoff-fallback",
                        p as u32,
                        RESCALE_TID,
                        now,
                        &[("to", h.to_host as u64)],
                    );
                }
            }
            if now < h.phase_done_at {
                continue;
            }
            match &h.phase {
                HandoffPhase::Warmup => {
                    // Halt the source, close the final epoch and capture
                    // the exactly-current checkpoint: workers stop at their
                    // next step having applied whole batches only.
                    {
                        let shared = Rc::clone(&cl.shareds.borrow()[p]);
                        let mut sh = shared.borrow_mut();
                        sh.halted = true;
                        match sh.ssb.close_epoch(&mut cl.sim) {
                            Ok(_) => on_epoch_closed(&mut sh),
                            Err(e) => sh
                                .obs
                                .record_failure("handoff cutover epoch", &format!("{e:?}")),
                        }
                    }
                    // The seed checkpoint guarantees one exists.
                    let Some(ckpt) = rec.latest_ckpt(p) else { continue };
                    let tail = ckpt
                        .payload_bytes()
                        .saturating_sub(h.warm_bytes)
                        .max(MIN_TAIL_BYTES);
                    cl.obs.instant(
                        Cat::Fault,
                        "handoff-cutover",
                        p as u32,
                        RESCALE_TID,
                        now,
                        &[("epochs", ckpt.epochs_closed()), ("tail_bytes", tail)],
                    );
                    h.halted_at = now;
                    h.phase = HandoffPhase::Cutover(ckpt);
                    h.phase_done_at = now + transfer_time(&cl.cfg, tail);
                    set_owner_gauges(&cl.obs, p, cl.host[p], 2);
                }
                HandoffPhase::Cutover(ckpt) => {
                    h.phase = HandoffPhase::Reconnect(Rc::clone(ckpt));
                    h.phase_done_at = now + reconnect_time(&cl.fabric);
                    set_owner_gauges(&cl.obs, p, cl.host[p], 3);
                }
                HandoffPhase::Reconnect(ckpt) => {
                    let ckpt = Rc::clone(ckpt);
                    let Some(h) = self.machines.remove(&p) else { continue };
                    rec.commit_handoff(cl, p, h.to_host, &ckpt);
                    let committed_at = cl.sim.now();
                    let stall = committed_at - h.halted_at;
                    cl.obs.span(
                        Cat::Fault,
                        "handoff",
                        p as u32,
                        RESCALE_TID,
                        h.planned_at,
                        committed_at.max(h.planned_at + SimTime::from_nanos(1)),
                        &[
                            ("from", h.from_host as u64),
                            ("to", h.to_host as u64),
                            ("stall_ns", stall.as_nanos()),
                        ],
                    );
                    cl.obs.hist_record("migration_stall_ns", "cluster", stall.as_nanos());
                    cl.obs.counter_add("migrations", "cluster", 1);
                    set_owner_gauges(&cl.obs, p, h.to_host, 0);
                    self.report.migrations.push(MigrationEvent {
                        partition: p,
                        from_host: h.from_host,
                        to_host: h.to_host,
                        planned_at: h.planned_at,
                        halted_at: h.halted_at,
                        committed_at,
                        aborted: h.aborted,
                    });
                }
            }
        }
        self.report.peak_hosts = self.report.peak_hosts.max(hosts_in_use(&cl.host));
    }

    /// Drop `p`'s machine and record the aborted plan: leadership stays
    /// on (or, source dead, is repaired from) the source host.
    fn abort(&mut self, cl: &Cluster, p: usize, reason: &'static str) {
        let Some(h) = self.machines.remove(&p) else { return };
        let now = cl.sim.now();
        let args = [(reason, 1), ("to", h.to_host as u64)];
        cl.obs.instant(Cat::Fault, "handoff-abort", p as u32, RESCALE_TID, now, &args);
        self.report.migrations.push(MigrationEvent {
            partition: p,
            from_host: h.from_host,
            to_host: h.from_host,
            planned_at: h.planned_at,
            // A pre-halt abort stalls nothing.
            halted_at: if h.halted_at == SimTime::ZERO { now } else { h.halted_at },
            committed_at: now,
            aborted: true,
        });
        set_owner_gauges(&cl.obs, p, cl.host[p], 0);
    }

    /// Consult the director with fresh telemetry and start the validated
    /// handoffs. Invalid commands (out of range, self-moves, dead hosts,
    /// partitions another machine owns or that already stopped) are
    /// dropped.
    pub(crate) fn direct(&mut self, cl: &Cluster, rec: &Recovery) {
        let (now, n) = (cl.sim.now(), cl.host.len());
        let telemetry = {
            let sh_vec = cl.shareds.borrow();
            let processed: u64 = sh_vec.iter().map(|s| s.borrow().records).sum();
            let released = match cl.cfg.pacing {
                Some(curve) => (curve.released_records(now)
                    .saturating_mul(cl.partitions.len() as u64))
                .min(self.total_records),
                None => processed,
            };
            let mut updates = vec![0u64; n];
            for sh in sh_vec.iter() {
                for (p, &u) in sh.borrow().ssb.partition_updates().iter().enumerate() {
                    updates[p] += u;
                }
            }
            ClusterTelemetry {
                now,
                released_records: released,
                processed_records: processed,
                total_records: self.total_records,
                host_of: cl.host.clone(),
                hosts_in_use: hosts_in_use(&cl.host),
                partition_updates: updates,
                migrations_in_flight: self.machines.len(),
            }
        };
        for cmd in self.director.tick(&telemetry) {
            let p = cmd.partition;
            let valid = p < n
                && cmd.to_host < n
                && cmd.to_host != cl.host[p]
                && !self.machines.contains_key(&p)
                && !rec.owns(p)
                && cl.fabric.node_alive(cl.node_ids[cmd.to_host])
                && cl.alive(p)
                && {
                    let sh_vec = cl.shareds.borrow();
                    let sh = sh_vec[p].borrow();
                    !sh.finished && !sh.crashed && !sh.halted
                };
            if !valid {
                continue;
            }
            let warm = rec.latest_ckpt(p).map_or(0, |c| c.payload_bytes());
            cl.obs.instant(
                Cat::Fault,
                "handoff-begin",
                p as u32,
                RESCALE_TID,
                now,
                &[
                    ("from", cl.host[p] as u64),
                    ("to", cmd.to_host as u64),
                    ("warm_bytes", warm),
                ],
            );
            set_owner_gauges(&cl.obs, p, cl.host[p], 1);
            self.machines.insert(
                p,
                Handoff {
                    from_host: cl.host[p],
                    to_host: cmd.to_host,
                    planned_at: now,
                    phase: HandoffPhase::Warmup,
                    phase_done_at: now + transfer_time(&cl.cfg, warm),
                    warm_bytes: warm,
                    halted_at: SimTime::ZERO,
                    aborted: false,
                },
            );
        }
    }

    /// The rescale report, with the final host count.
    pub(crate) fn finish(mut self, cl: &Cluster) -> RescaleReport {
        self.report.final_hosts = hosts_in_use(&cl.host);
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::query::StreamDef;
    use crate::record::RecordSchema;
    use crate::window::WindowAssigner;
    use crate::recovery::RecoveryReport;
    use crate::{QueryPlan, RunConfig, RunReport, SlashCluster};
    use slash_chaos::{ChaosConfig, FaultPlan, FtConfig};
    use slash_obs::Obs;

    fn gen(n: u64, dt: u64, keys: u64) -> Rc<Vec<u8>> {
        let mut buf = Vec::with_capacity((n * 16) as usize);
        for i in 0..n {
            buf.extend_from_slice(&(i * dt).to_le_bytes());
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

    fn cfg(nodes: usize) -> RunConfig {
        let mut cfg = RunConfig::new(nodes, 1);
        cfg.collect_results = true;
        cfg.epoch_bytes = 16 * 1024;
        cfg
    }

    fn chaos(plan: FaultPlan) -> ChaosConfig {
        ChaosConfig {
            plan,
            ft: FtConfig {
                detect_timeout: SimTime::from_micros(300),
                ckpt_max_chunk: 16 * 1024,
                ckpt_copies: 2,
            },
        }
    }

    fn parts_n(nodes: usize, recs: u64) -> Vec<Rc<Vec<u8>>> {
        (0..nodes).map(|_| gen(recs, 1, 32)).collect()
    }

    fn parts(nodes: usize) -> Vec<Rc<Vec<u8>>> {
        parts_n(nodes, 60_000)
    }

    fn run_scripted_n(
        nodes: usize,
        hosts: usize,
        recs: u64,
        script: Vec<(SimTime, MigrationCmd)>,
        faults: FaultPlan,
    ) -> (RunReport, RecoveryReport, RescaleReport) {
        let mut director = ScriptedDirector::new(script);
        SlashCluster::run_elastic(
            count_plan(4_000),
            parts_n(nodes, recs),
            cfg(nodes),
            &chaos(faults),
            &ElasticConfig::packed(nodes, hosts),
            &mut director,
            Obs::disabled(),
        )
    }

    fn run_scripted(
        nodes: usize,
        hosts: usize,
        script: Vec<(SimTime, MigrationCmd)>,
        faults: FaultPlan,
    ) -> (RunReport, RecoveryReport, RescaleReport) {
        run_scripted_n(nodes, hosts, 60_000, script, faults)
    }

    fn flat_baseline_n(nodes: usize, recs: u64) -> (RunReport, RecoveryReport) {
        SlashCluster::run_chaos(
            count_plan(4_000),
            parts_n(nodes, recs),
            cfg(nodes),
            &chaos(FaultPlan::new()),
            Obs::disabled(),
        )
    }

    fn flat_baseline(nodes: usize) -> (RunReport, RecoveryReport) {
        flat_baseline_n(nodes, 60_000)
    }

    #[test]
    fn packed_static_run_matches_flat_chaos_run() {
        // Four partitions packed two-per-host over loopback channels must
        // produce exactly the results of the flat four-host chaos run —
        // placement is invisible to query semantics.
        let (base, base_rec) = flat_baseline(4);
        let (packed, rec, rescale) = run_scripted(4, 2, vec![], FaultPlan::new());
        assert_eq!(packed.records, base.records);
        assert_eq!(rec.results_digest, base_rec.results_digest);
        assert_eq!(rec.state_digests, base_rec.state_digests);
        assert!(rescale.migrations.is_empty());
        assert_eq!(rescale.peak_hosts, 2);
        assert_eq!(rescale.final_hosts, 2);
    }

    #[test]
    fn scripted_migrations_scale_out_and_back_exactly() {
        // Spread both co-located partitions to parked hosts mid-run, then
        // pack one back: 2 -> 4 -> 3 hosts with exact results throughout.
        let script = vec![
            (
                SimTime::from_micros(400),
                MigrationCmd { partition: 2, to_host: 2 },
            ),
            (
                SimTime::from_micros(500),
                MigrationCmd { partition: 3, to_host: 3 },
            ),
            (
                SimTime::from_micros(1_500),
                MigrationCmd { partition: 3, to_host: 1 },
            ),
        ];
        let (base, base_rec) = flat_baseline_n(4, 150_000);
        let (run, rec, rescale) = run_scripted_n(4, 2, 150_000, script, FaultPlan::new());
        assert_eq!(run.records, base.records, "every record exactly once");
        assert_eq!(rec.results_digest, base_rec.results_digest);
        assert_eq!(rec.state_digests, base_rec.state_digests);
        let committed: Vec<_> =
            rescale.migrations.iter().filter(|m| !m.aborted).collect();
        assert_eq!(committed.len(), 3, "{:?}", rescale.migrations);
        assert_eq!(rescale.peak_hosts, 4);
        assert_eq!(rescale.final_hosts, 3);
        for m in &committed {
            assert!(m.stall() > SimTime::ZERO, "cutover pays a stall: {m:?}");
            assert!(m.halted_at >= m.planned_at);
        }
    }

    #[test]
    fn invalid_commands_are_dropped() {
        // Out-of-range hosts/partitions and a self-move must be ignored,
        // and the run must complete untouched.
        let script = vec![
            (
                SimTime::from_micros(400),
                MigrationCmd { partition: 9, to_host: 1 },
            ),
            (
                SimTime::from_micros(400),
                MigrationCmd { partition: 1, to_host: 9 },
            ),
            (
                SimTime::from_micros(400),
                // partition 1 already lives on host 1 in packed(4, 2).
                MigrationCmd { partition: 1, to_host: 1 },
            ),
        ];
        let (base, base_rec) = flat_baseline(4);
        let (run, rec, rescale) = run_scripted(4, 2, script, FaultPlan::new());
        assert!(rescale.migrations.is_empty(), "{:?}", rescale.migrations);
        assert_eq!(run.records, base.records);
        assert_eq!(rec.results_digest, base_rec.results_digest);
    }

    #[test]
    fn elastic_runs_are_deterministic() {
        let go = || {
            let script = vec![
                (
                    SimTime::from_micros(400),
                    MigrationCmd { partition: 2, to_host: 2 },
                ),
                (
                    SimTime::from_micros(600),
                    MigrationCmd { partition: 3, to_host: 3 },
                ),
            ];
            let (r, rec, rescale) = run_scripted(4, 2, script, FaultPlan::new());
            (
                r.records,
                r.completion_time,
                rec.results_digest,
                rec.state_digests.clone(),
                rescale.migrations.len(),
                rescale.max_stall(),
            )
        };
        assert_eq!(go(), go(), "same script => identical elastic run");
    }

    #[test]
    fn paced_elastic_run_is_exact() {
        // Pacing + a migration at once: the handoff must not lose or
        // duplicate paced records.
        let curve = crate::source::RateCurve::new(&[
            (SimTime::ZERO, 40_000_000),
            (SimTime::from_millis(1), 120_000_000),
        ]);
        let mut ecfg = cfg(4);
        ecfg.pacing = Some(curve);
        let mut base_cfg = cfg(4);
        base_cfg.pacing = Some(curve);
        let (base, base_rec) = SlashCluster::run_chaos(
            count_plan(4_000),
            parts(4),
            base_cfg,
            &chaos(FaultPlan::new()),
            Obs::disabled(),
        );
        let mut director = ScriptedDirector::new(vec![(
            SimTime::from_micros(500),
            MigrationCmd { partition: 2, to_host: 2 },
        )]);
        let (run, rec, rescale) = SlashCluster::run_elastic(
            count_plan(4_000),
            parts(4),
            ecfg,
            &chaos(FaultPlan::new()),
            &ElasticConfig::packed(4, 2),
            &mut director,
            Obs::disabled(),
        );
        assert_eq!(run.records, base.records);
        assert_eq!(rec.results_digest, base_rec.results_digest);
        assert_eq!(rescale.migrations.iter().filter(|m| !m.aborted).count(), 1);
    }
}

