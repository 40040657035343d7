//! Fault-tolerant execution: checkpointing, failure detection, and
//! epoch-aligned recovery — the recovery service of the one cluster
//! driver, attached by [`crate::ClusterRun::recovery`] (or
//! [`crate::SlashCluster::run_chaos`]). It arms a deterministic
//! [`slash_chaos::FaultPlan`] against the simulated fabric and layers a
//! recovery protocol on the epoch coherence machinery:
//!
//! * **Checkpoints.** At every epoch close a node captures everything
//!   needed to resurrect it at that boundary: primary snapshot, vector
//!   clock, per-channel commit horizons, retained (replayable) shipped
//!   epochs, per-worker source positions and the sink. It ships to buddy
//!   ports over the fabric and counts as *durable* once it lands.
//! * **Durability gate.** A leader merges epoch `e` from helper `h` only
//!   once `h`'s durable checkpoint covers `e`. Everything merged is thus
//!   replayable verbatim, and replayed epochs dedup by epoch id, so even
//!   non-idempotent CRDT merges apply exactly once: recovery is *exact*.
//! * **Detection.** A node's progress token (the most advanced view its
//!   peers hold of its vector-clock entry) stalled past `detect_timeout`
//!   triggers a diagnosis: dead port → promotion; link back after a flap
//!   → channel reset + replay; merely degraded → wait.
//! * **Copy placement.** Up to [`slash_chaos::FtConfig::ckpt_copies`]
//!   copies on distinct buddy ports, each usable only while its holder
//!   answers; losing a holder triggers re-selection and re-shipping, and
//!   losing every real copy falls back to the epoch-0 seed copy
//!   (reprocess from scratch), durable by fiat.
//! * **Promotion.** A *re-entrant state machine*: `Restore` (copy chunks
//!   stream to the new host, checked against the capture digest) and
//!   `Reconnect` (replacement channels handshake) mutate nothing but the
//!   machine's record, so a fault killing the chosen host or copy holder
//!   mid-flight just restarts it. All cluster-visible effects — restore,
//!   channel replacement with commit-horizon handshakes, retained-epoch
//!   replay, respawn of *every* worker at its checkpointed position —
//!   commit atomically at one virtual instant. Concurrent promotions run
//!   independently; a committing node installs retaining endpoints toward
//!   still-dead peers so their later promotions find a complete replay
//!   history.
//!
//! Exactness is validated against same-seed fault-free runs
//! (`tests/chaos.rs`, `examples/failover.rs`, `repro -- recovery`); the
//! protocol specification, with the fault × phase outcome matrix, is
//! `DESIGN.md` §15, and the driver's service order §22.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use slash_chaos::{ChaosConfig, Injector};
use slash_desim::SimTime;
use slash_net::{create_channel, RECONNECT_HANDSHAKE_MSGS};
use slash_obs::{Cat, Obs};
use slash_rdma::{Fabric, NodeId};
use slash_state::backend::SsbNode;
use slash_state::{chunks_digest, DeltaReceiver, DeltaSender, RetainedEpoch};

use crate::cluster::{Cluster, RunConfig};
use crate::sink::{Sink, SinkResult};
use crate::worker::NodeShared;

/// Everything a node needs to be resurrected at an epoch boundary.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoint {
    /// Epochs this node had closed (fragment epoch high-water mark).
    epochs_closed: u64,
    /// Primary partition snapshot (delta-format chunks).
    snapshot: Vec<Vec<u8>>,
    /// Vector clock at the epoch boundary.
    vclock: Vec<u64>,
    /// Per-helper commit horizon: epochs `< receiver_next[h]` from helper
    /// `h` are merged into [`Self::snapshot`].
    receiver_next: Vec<u64>,
    /// Per-leader retained epochs, replayable verbatim.
    retained: Vec<Vec<RetainedEpoch>>,
    /// Per-worker source byte positions at the boundary.
    worker_pos: Vec<usize>,
    /// Per-worker watermarks.
    worker_wm: Vec<u64>,
    /// Source records processed so far.
    records: u64,
    /// Sink contents (already-emitted results survive the crash).
    sink: Sink,
    /// Content digest of [`Self::snapshot`] at capture time; recovery
    /// verifies the copy it restores against it (checksum stand-in).
    digest: u64,
}

impl Checkpoint {
    /// Epoch boundary this checkpoint captures (fragment high-water mark).
    pub(crate) fn epochs_closed(&self) -> u64 {
        self.epochs_closed
    }

    pub(crate) fn payload_bytes(&self) -> u64 {
        let snap: usize = self.snapshot.iter().map(Vec::len).sum();
        let retained: usize = self
            .retained
            .iter()
            .flatten()
            .flat_map(|r| r.chunks.iter())
            .map(Vec::len)
            .sum();
        (snap + retained) as u64 + 256
    }
}

/// One durable copy of a node's checkpoint, tied to the fabric port it
/// physically lives on: the copy is usable only while that port answers.
/// `holder_port == None` marks the epoch-0 seed copy — it models
/// re-reading the source from scratch and is durable by fiat, so it never
/// becomes invalid.
#[derive(Clone)]
pub(crate) struct DurableCopy {
    holder_port: Option<NodeId>,
    ckpt: Rc<Checkpoint>,
}

/// A checkpoint transfer on the wire toward a buddy port.
struct InFlight {
    arrival: SimTime,
    buddy_port: NodeId,
    ckpt: Rc<Checkpoint>,
}

/// One node's checkpoint lifecycle: the newest captured boundary, the
/// durable copies placed on buddy ports (newest-first; the seed copy is
/// always last), and at most one transfer in flight.
#[derive(Default)]
pub(crate) struct CkptSlot {
    latest: Option<Rc<Checkpoint>>,
    copies: Vec<DurableCopy>,
    in_flight: Option<InFlight>,
    /// Set by a planned handoff: the cutover epoch boundary. Once a
    /// *real* durable copy covering it lands, the eternal epoch-0 seed
    /// copy is released (see [`Self::maybe_release_seed`]) — the §15.3
    /// retention fix, so a migrated partition stops pinning every peer's
    /// retained history at epoch 0 forever.
    handoff_boundary: Option<u64>,
}

impl CkptSlot {
    /// Drop copies whose holder port has died (the seed copy never does).
    fn gc(&mut self, fabric: &Fabric) {
        self.copies.retain(|c| c.holder_port.is_none_or(|p| fabric.node_alive(p)));
    }

    /// Newest usable copy — the restore candidate (call [`Self::gc`]
    /// first).
    fn newest_copy(&self) -> Option<&DurableCopy> {
        self.copies.first()
    }

    /// Epoch horizon peers may treat as durable: the newest copy's
    /// boundary.
    fn durable_horizon(&self) -> u64 {
        self.newest_copy().map_or(0, |c| c.ckpt.epochs_closed)
    }

    /// Highest epoch helper `l` may prune its retained deltas below: the
    /// *oldest* surviving copy's commit horizon from `l`, so whichever
    /// copy promotion falls back to can still be caught up by replay.
    /// While the seed copy exists this floor is 0 — scratch recovery
    /// keeps the whole retained history replayable.
    fn prune_floor(&self, l: usize) -> u64 {
        self.copies
            .iter()
            .map(|c| c.ckpt.receiver_next.get(l).copied().unwrap_or(0))
            .min()
            .unwrap_or(0)
    }

    /// Record a planned-handoff cutover at `boundary`: the next real
    /// durable copy covering it retires the epoch-0 seed copy.
    pub(crate) fn mark_handoff(&mut self, boundary: u64) {
        self.handoff_boundary = Some(boundary);
    }

    /// Release the eternal seed copy once the post-handoff owner has a
    /// real durable checkpoint covering the cutover boundary. From then
    /// on the recovery floor is the oldest surviving *real* copy — peers
    /// may finally prune retained epochs below its commit horizons
    /// instead of keeping the full history replayable-from-scratch.
    /// Returns whether a seed copy was released by this call.
    pub(crate) fn maybe_release_seed(&mut self) -> bool {
        let Some(boundary) = self.handoff_boundary else {
            return false;
        };
        let covered = self
            .copies
            .iter()
            .any(|c| c.holder_port.is_some() && c.ckpt.epochs_closed >= boundary);
        if !covered {
            return false;
        }
        self.handoff_boundary = None;
        let before = self.copies.len();
        self.copies.retain(|c| c.holder_port.is_some());
        before != self.copies.len()
    }

    /// Install the epoch-0 seed copy from the freshly captured seed
    /// checkpoint: durable by fiat (`holder_port == None`), it models
    /// re-reading the source from scratch and guarantees recovery always
    /// has a fallback even before the first real copy lands.
    pub(crate) fn seed_from_latest(&mut self) {
        if let Some(seed) = self.latest.clone() {
            self.copies.push(DurableCopy {
                holder_port: None,
                ckpt: seed,
            });
        }
    }

    /// Install a landed copy, newest-first. A buddy keeps one slot per
    /// node (same-port copies are overwritten) and *real* copies are
    /// capped at `cap`; the seed copy rides along uncapped.
    fn insert_copy(&mut self, copy: DurableCopy, cap: usize) {
        if let Some(p) = copy.holder_port {
            self.copies.retain(|c| c.holder_port != Some(p));
        }
        self.copies.insert(0, copy);
        let mut real = 0;
        self.copies.retain(|c| {
            if c.holder_port.is_none() {
                return true;
            }
            real += 1;
            real <= cap
        });
    }
}

pub(crate) type CkptStore = Vec<CkptSlot>;

/// Pick the host that resurrects dead logical node `d`: the first peer in
/// ring order whose port is alive. `d` itself is never a candidate (a
/// node cannot host its own recovery), and `None` means every peer is
/// dead — the unrecoverable all-buddies-dead error path, surfaced to the
/// driver rather than panicking.
pub(crate) fn select_promotion_host(
    d: usize,
    n: usize,
    alive: impl Fn(usize) -> bool,
) -> Option<usize> {
    (1..n).map(|k| (d + k) % n).find(|&j| alive(j))
}

/// Pick the buddy to ship node `i`'s next checkpoint copy to: the first
/// alive ring peer *not* already holding a current copy (placement
/// diversity), falling back to any alive peer when all of them hold one.
pub(crate) fn select_ship_buddy(
    i: usize,
    n: usize,
    alive: impl Fn(usize) -> bool,
    holds_copy: impl Fn(usize) -> bool,
) -> Option<usize> {
    let ring = || (1..n).map(move |k| (i + k) % n);
    ring()
        .find(|&j| alive(j) && !holds_copy(j))
        .or_else(|| ring().find(|&j| alive(j)))
}

/// Pre-commit phases of an in-flight promotion. Both phases mutate
/// nothing but the [`Promotion`] record, so a fault arriving mid-phase
/// restarts the machine against a re-selected host and copy; cluster
/// state changes only at the atomic commit that follows `Reconnect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PromoPhase {
    /// Checkpoint chunks stream from the copy holder to the new host.
    Restore,
    /// Replacement channels to every survivor handshake to ready-to-send.
    Reconnect,
}

/// A promotion in flight: dead logical node `node` is being resurrected
/// on `host`'s port from the durable copy on `copy_port`.
struct Promotion {
    detected_at: SimTime,
    phase: PromoPhase,
    phase_done_at: SimTime,
    host: usize,
    copy_port: Option<NodeId>,
    ckpt: Rc<Checkpoint>,
    restarts: u32,
}

/// Fault-tolerance hooks handed to each node's shared state; present
/// only in runs with the recovery service attached.
pub(crate) struct FtState {
    pub(crate) store: Rc<RefCell<CkptStore>>,
    pub(crate) node: usize,
    pub(crate) max_chunk: usize,
}

/// Called by workers right after a successful epoch close: capture a
/// checkpoint of this node at the fresh epoch boundary.
pub(crate) fn on_epoch_closed(sh: &mut NodeShared) {
    let Some(ft) = sh.ft.as_ref() else { return };
    let n = ft.store.borrow().len();
    let node = ft.node;
    let ssb = &sh.ssb;
    let snapshot = ssb.snapshot_primary(ft.max_chunk);
    let ckpt = Checkpoint {
        epochs_closed: ssb.epochs_closed(),
        digest: chunks_digest(&snapshot),
        snapshot,
        vclock: ssb.vclock().snapshot(),
        receiver_next: (0..n)
            .map(|h| if h == node { 0 } else { ssb.receiver_next_epoch(h) })
            .collect(),
        retained: (0..n)
            .map(|l| ssb.retained_for(l).map(<[_]>::to_vec).unwrap_or_default())
            .collect(),
        worker_pos: sh.worker_pos.clone(),
        worker_wm: sh.worker_wm.clone(),
        records: sh.records,
        sink: sh.sink.clone(),
    };
    ft.store.borrow_mut()[node].latest = Some(Rc::new(ckpt));
}

/// What the driver did to bring a stalled node back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The node was dead; its partition was promoted onto `host` from a
    /// durable checkpoint copy.
    Promoted {
        /// Logical node now hosting the resurrected partition.
        host: usize,
        /// Times the promotion was interrupted by a further fault and
        /// restarted against a re-selected host/copy before committing.
        restarts: u32,
    },
    /// The node survived a link outage; `channels` errored channel
    /// endpoints were reset and their uncommitted epochs replayed.
    ChannelsReset {
        /// Directed channels that needed a reset.
        channels: usize,
    },
}

/// One detected-and-repaired fault.
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// Kebab-case fault name from the plan (e.g. `node-crash`).
    pub fault: &'static str,
    /// Logical node the fault hit.
    pub node: usize,
    /// When the plan injected the fault.
    pub injected_at: SimTime,
    /// When the driver noticed the stall.
    pub detected_at: SimTime,
    /// When the repair finished (virtual time; processing resumes here).
    pub recovered_at: SimTime,
    /// The repair performed.
    pub action: RecoveryAction,
}

impl RecoveryEvent {
    /// Injection-to-repair latency.
    pub fn time_to_recover(&self) -> SimTime {
        self.recovered_at - self.injected_at
    }
}

/// Recovery-side outcome of a run, alongside the [`crate::RunReport`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Detected faults and their repairs, in detection order.
    pub events: Vec<RecoveryEvent>,
    /// Checkpoints that became durable during the run.
    pub checkpoints_durable: u64,
    /// Per-node primary-state digests at completion (exactness witness).
    pub state_digests: Vec<u64>,
    /// Order-independent digest of the emitted results.
    pub results_digest: u64,
}

impl RecoveryReport {
    /// Worst-case time-to-recover across all repaired faults.
    pub fn max_time_to_recover(&self) -> Option<SimTime> {
        self.events.iter().map(RecoveryEvent::time_to_recover).max()
    }
}

fn splitmix_fold(h: &mut u64, v: u64) {
    let mut z = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    *h = z ^ (z >> 31);
}

/// Order-independent digest of a result set: two runs emitting the same
/// `(window, key, value)` multiset digest equal regardless of emission
/// order or node placement.
pub fn results_digest(results: &[SinkResult]) -> u64 {
    let mut keyed: Vec<(u64, u64, u64)> = results
        .iter()
        .map(|r| match *r {
            SinkResult::Agg {
                window_id,
                key,
                value,
            } => (window_id, key, value.to_bits()),
            SinkResult::Join {
                window_id,
                key,
                pairs,
            } => (window_id, key, pairs),
        })
        .collect();
    keyed.sort_unstable();
    let mut h: u64 = 0xD16E_57ED_FA17_0000;
    for (w, k, v) in keyed {
        splitmix_fold(&mut h, w);
        splitmix_fold(&mut h, k);
        splitmix_fold(&mut h, v);
    }
    h
}

/// Trace pid used for driver-side recovery events (fault injection uses
/// `slash_chaos::inject::FAULT_TID` on the victim's pid; repairs land on
/// the victim's pid too, under this tid).
pub(crate) const RECOVERY_TID: u32 = 901;

/// The recovery service: checkpoint lifecycle, promotion machines and
/// stall detection. Attached to a run by
/// [`ClusterRun::recovery`](crate::ClusterRun::recovery).
pub(crate) struct Recovery<'a> {
    chaos: &'a ChaosConfig,
    store: Rc<RefCell<CkptStore>>,
    /// In-flight promotions, keyed by dead logical node.
    promos: BTreeMap<usize, Promotion>,
    /// Per node: the progress token its peers last held, and when it
    /// last changed (the stall timer).
    last_token: Vec<u64>,
    last_change: Vec<SimTime>,
    rec: RecoveryReport,
}

impl<'a> Recovery<'a> {
    pub(crate) fn new(chaos: &'a ChaosConfig, n: usize) -> Self {
        Recovery {
            chaos,
            store: Rc::new(RefCell::new((0..n).map(|_| CkptSlot::default()).collect())),
            promos: BTreeMap::new(),
            last_token: vec![0; n],
            last_change: vec![SimTime::ZERO; n],
            rec: RecoveryReport::default(),
        }
    }

    /// Driver slice: a quarter detection timeout, so stalls are noticed
    /// promptly without rescanning the cluster too often.
    pub(crate) fn slice(&self) -> SimTime {
        SimTime::from_nanos((self.chaos.ft.detect_timeout.as_nanos() / 4).max(100_000))
    }

    /// Per-node setup: retain shipped epochs for replay, gate commits on
    /// durability, hook checkpoint capture, and capture the seed
    /// checkpoint — an empty epoch-0 boundary, durable by fiat, so even a
    /// crash before the first real checkpoint recovers (from scratch).
    pub(crate) fn attach(&self, sh: &mut NodeShared, node: usize) {
        sh.ssb.set_retention(true);
        for h in (0..self.last_token.len()).filter(|&h| h != node) {
            sh.ssb.set_durable_epochs(h, 0);
        }
        sh.ft = Some(FtState {
            store: Rc::clone(&self.store),
            node,
            max_chunk: self.chaos.ft.ckpt_max_chunk,
        });
        on_epoch_closed(sh);
    }

    /// Once every node is set up: install the seed copies and arm the
    /// fault plan. Crash flags come from the dead-port sweep in
    /// [`Self::tick`]: `host[]` changes, so victims resolve at sweep time.
    pub(crate) fn arm(&self, cl: &mut Cluster) {
        self.store.borrow_mut().iter_mut().for_each(CkptSlot::seed_from_latest);
        Injector::arm(&mut cl.sim, &cl.fabric, &cl.node_ids, &cl.obs, &self.chaos.plan);
    }

    /// Whether a promotion machine owns partition `p`.
    pub(crate) fn owns(&self, p: usize) -> bool {
        self.promos.contains_key(&p)
    }

    /// Whether repair work is pending (a promotion, or a dead partition).
    pub(crate) fn outstanding(&self, cl: &Cluster) -> bool {
        !self.promos.is_empty() || (0..cl.host.len()).any(|l| !cl.alive(l))
    }

    /// Newest captured (not necessarily durable) checkpoint of `p`.
    pub(crate) fn latest_ckpt(&self, p: usize) -> Option<Rc<Checkpoint>> {
        self.store.borrow()[p].latest.clone()
    }

    /// The post-slice tick: dead-port sweep, pump finished nodes,
    /// checkpoint lifecycle, promotion machines. Returns the nodes whose
    /// promotion committed.
    pub(crate) fn tick(&mut self, cl: &mut Cluster) -> Vec<usize> {
        for (l, sh) in cl.shareds.borrow().iter().enumerate() {
            let mut sh = sh.borrow_mut();
            if !cl.alive(l) {
                // A dead port kills every partition it hosts, re-homed
                // ones included (cascading failure).
                sh.crashed = true;
            } else if sh.finished {
                // The SSB is a node service, not a query task: replay
                // epochs requeued on a finished survivor must still reach
                // a partition restored after it completed.
                let _ = sh.ssb.pump(&mut cl.sim);
            }
        }
        self.ft_tick(cl);
        let committed = self.promo_tick(cl);
        for &d in &committed {
            // Fresh off a commit the restored node's token is still
            // stale: a full timeout to publish progress before re-diagnosis.
            self.last_change[d] = cl.sim.now();
        }
        committed
    }

    /// Checkpoint lifecycle: GC copies whose holder died, land in-flight
    /// transfers (propagating the durability gate and prune floor), and
    /// ship the newest boundary to a fresh buddy whenever the current
    /// copy set lost a holder or lags it.
    fn ft_tick(&mut self, cl: &Cluster) {
        let (now, n, fabric, obs) = (cl.sim.now(), cl.host.len(), &cl.fabric, &cl.obs);
        let copies = self.chaos.ft.ckpt_copies.max(1);
        let sh_vec = cl.shareds.borrow();
        let mut st = self.store.borrow_mut();
        for i in 0..n {
            let fab_i = cl.port(i);
            st[i].gc(fabric);
            // Complete an in-flight transfer whose arrival time has passed.
            if let Some(fl) = st[i].in_flight.take_if(|fl| now >= fl.arrival) {
                if fabric.node_alive(fab_i) && fabric.path_up(fab_i, fl.buddy_port) {
                    st[i].insert_copy(
                        DurableCopy {
                            holder_port: Some(fl.buddy_port),
                            ckpt: Rc::clone(&fl.ckpt),
                        },
                        copies,
                    );
                    self.rec.checkpoints_durable += 1;
                    obs.instant(
                        Cat::Fault,
                        "checkpoint-durable",
                        i as u32,
                        RECOVERY_TID,
                        now,
                        &[
                            ("epochs", fl.ckpt.epochs_closed),
                            ("holder", fl.buddy_port.0 as u64),
                        ],
                    );
                    if st[i].maybe_release_seed() {
                        // Post-handoff retention fix (§15.3).
                        obs.instant(
                            Cat::Fault,
                            "seed-released",
                            i as u32,
                            RECOVERY_TID,
                            now,
                            &[("epochs", fl.ckpt.epochs_closed)],
                        );
                    }
                    let horizon = st[i].durable_horizon();
                    for (l, sh) in sh_vec.iter().enumerate().filter(|&(l, _)| l != i) {
                        let mut sl = sh.borrow_mut();
                        // Leaders may now commit i's epochs below the
                        // durable horizon...
                        sl.ssb.set_durable_epochs(i, horizon);
                        // ...and helpers may drop retained epochs every
                        // surviving copy of i has durably merged.
                        sl.ssb.prune_retained(i, st[i].prune_floor(l));
                    }
                }
                // A transfer interrupted by a fault is simply dropped; the
                // re-ship below retries once the path heals.
            }
            // Ship the newest boundary until `ckpt_copies` distinct
            // holders carry it.
            if st[i].in_flight.is_some() {
                continue;
            }
            let Some(latest) = st[i].latest.clone() else { continue };
            let current_ports: Vec<NodeId> = st[i]
                .copies
                .iter()
                .filter(|c| c.ckpt.epochs_closed >= latest.epochs_closed)
                .filter_map(|c| c.holder_port)
                .collect();
            let wants_copy = latest.epochs_closed > 0 && current_ports.len() < copies;
            if wants_copy && fabric.node_alive(fab_i) && fabric.link_up(fab_i) {
                let buddy = select_ship_buddy(
                    i,
                    n,
                    |j| fabric.node_alive(cl.port(j)),
                    |j| current_ports.contains(&cl.port(j)),
                );
                if let Some(b) = buddy {
                    st[i].in_flight = Some(InFlight {
                        arrival: now + transfer_time(&cl.cfg, latest.payload_bytes()),
                        buddy_port: cl.port(b),
                        ckpt: latest,
                    });
                }
            }
        }
    }

    /// Start (or restart) the promotion machine for dead logical node
    /// `d`: select the host port and the newest valid durable copy, then
    /// enter `Restore`. Returns `None` when every peer is dead
    /// (unrecoverable; the caller retries until the livelock guard bounds
    /// the wait). The seed copy guarantees a copy always exists, so only
    /// host selection can fail.
    fn promo_begin(
        &self,
        cl: &Cluster,
        d: usize,
        detected_at: SimTime,
        restarts: u32,
    ) -> Option<Promotion> {
        // Candidates are judged by their *own* port (`d` will live on
        // `node_ids[h]`), never by where their partition now lives.
        let h = select_promotion_host(d, cl.host.len(), |j| cl.fabric.node_alive(cl.node_ids[j]))?;
        let mut st = self.store.borrow_mut();
        st[d].gc(&cl.fabric);
        let copy = st[d].newest_copy()?.clone();
        let restore_time = match copy.holder_port {
            // Stream the copy's chunks from its holder to the host.
            Some(_) => transfer_time(&cl.cfg, copy.ckpt.payload_bytes()),
            // Seed copy: the source is re-read locally, control latency
            // only.
            None => cl.cfg.fabric.nic.latency,
        };
        Some(Promotion {
            detected_at,
            phase: PromoPhase::Restore,
            phase_done_at: cl.sim.now() + restore_time,
            host: h,
            copy_port: copy.holder_port,
            ckpt: copy.ckpt,
            restarts,
        })
    }

    /// Advance every promotion one tick: restart machines whose host (or,
    /// in `Restore`, copy holder) died, move streamed copies to
    /// `Reconnect`, and commit completed handshakes (returned).
    fn promo_tick(&mut self, cl: &mut Cluster) -> Vec<usize> {
        let now = cl.sim.now();
        let mut committed = Vec::new();
        let nodes: Vec<usize> = self.promos.keys().copied().collect();
        for d in nodes {
            let Some(p) = self.promos.get_mut(&d) else { continue };
            // The chosen host died, or the copy lost its holder
            // mid-restore: pre-commit phases touched nothing but this
            // record, so restart against a re-selected host and copy.
            let host_dead = !cl.fabric.node_alive(cl.node_ids[p.host]);
            let copy_dead = p.phase == PromoPhase::Restore
                && p.copy_port.is_some_and(|port| !cl.fabric.node_alive(port));
            if host_dead || copy_dead {
                let (detected_at, restarts) = (p.detected_at, p.restarts + 1);
                if let Some(fresh) = self.promo_begin(cl, d, detected_at, restarts) {
                    cl.obs.instant(
                        Cat::Fault,
                        "promotion-restart",
                        d as u32,
                        RECOVERY_TID,
                        now,
                        &[("restarts", restarts as u64), ("host", fresh.host as u64)],
                    );
                    self.promos.insert(d, fresh);
                }
                // No candidate yet: the stale record retries every tick.
                continue;
            }
            if now < p.phase_done_at {
                continue;
            }
            match p.phase {
                PromoPhase::Restore => {
                    // Integrity gate: the streamed copy must match its
                    // capture digest before it becomes primary state.
                    debug_assert_eq!(
                        chunks_digest(&p.ckpt.snapshot),
                        p.ckpt.digest,
                        "durable copy failed its checksum"
                    );
                    p.phase = PromoPhase::Reconnect;
                    p.phase_done_at = now + reconnect_time(&cl.fabric);
                }
                PromoPhase::Reconnect => {
                    let Some(p) = self.promos.remove(&d) else { continue };
                    self.commit(cl, d, p.host, &p.ckpt, p.restarts);
                    let action = RecoveryAction::Promoted {
                        host: p.host,
                        restarts: p.restarts,
                    };
                    self.push_event(&cl.obs, d, p.detected_at, cl.sim.now(), action);
                    committed.push(d);
                }
            }
        }
        committed
    }

    /// Atomically commit a completed promotion (or planned handoff):
    /// install the restored SSB of node `d` on host `h`'s port,
    /// re-establish every channel with commit-horizon handshakes, and
    /// respawn *all* of its workers at their checkpointed positions — the
    /// replacement appears at one virtual instant.
    fn commit(
        &self,
        cl: &mut Cluster,
        d: usize,
        h: usize,
        ckpt: &Rc<Checkpoint>,
        restarts: u32,
    ) {
        let n = cl.host.len();
        {
            // Whatever was newer than the restored boundary died with the
            // node: in-flight transfers are void.
            let mut st = self.store.borrow_mut();
            st[d].gc(&cl.fabric);
            st[d].latest = Some(Rc::clone(ckpt));
            st[d].in_flight = None;
        }
        cl.host[d] = h;
        let host_fab = cl.node_ids[h];

        let mut ssb = SsbNode::detached(d, cl.plan.descriptor(), cl.cfg.ssb_config());
        ssb.restore_primary(&ckpt.snapshot);
        ssb.restore_vclock(&ckpt.vclock);
        ssb.resume_fragments_at(ckpt.epochs_closed);
        // The split ledger is replicated control state, identical on every
        // node: the replacement adopts a survivor's copy so it keeps
        // diverting hot-key updates like its predecessor did.
        if let Some(ledger) = cl
            .shareds
            .borrow()
            .iter()
            .enumerate()
            .filter(|&(s, _)| s != d)
            .find_map(|(_, sh)| sh.borrow().ssb.split_ledger().cloned())
        {
            ssb.set_split_ledger(ledger);
        }

        // Re-establish channels with every peer, handshaking commit
        // horizons so replay is exact and nothing merges twice.
        {
            let (fabric, channel) = (&cl.fabric, cl.cfg.channel);
            let sh_vec = cl.shareds.borrow();
            let st = self.store.borrow();
            for s in (0..n).filter(|&s| s != d) {
                let s_fab = cl.port(s);
                // d → s: the replacement re-ships the retained epochs the
                // peer's receiver has not committed. s → d: the peer
                // re-ships from the checkpoint's commit horizon; its
                // retained list still covers that suffix because pruning
                // floors at the oldest surviving copy of d.
                let (tx, rx) = create_channel(fabric, host_fab, s_fab, channel);
                let (tx2, rx2) = create_channel(fabric, s_fab, host_fab, channel);
                let mut sender = DeltaSender::new(tx);
                sender.restore_retained(ckpt.retained[s].clone());
                if fabric.node_alive(s_fab) {
                    let mut sv = sh_vec[s].borrow_mut();
                    let resume = sv.ssb.receiver_next_epoch(d);
                    sender.requeue_from(resume);
                    sv.ssb.replace_receiver(d, DeltaReceiver::new(rx, d));
                    sv.ssb.seed_receiver(d, resume);
                    sv.ssb.set_durable_epochs(d, ckpt.epochs_closed);
                    let mut sender2 = DeltaSender::new(tx2);
                    let retained = sv.ssb.retained_for(d).map(<[_]>::to_vec);
                    sender2.restore_retained(retained.unwrap_or_default());
                    sender2.requeue_from(ckpt.receiver_next[s]);
                    sv.ssb.replace_sender(d, sender2);
                    if cl.obs.is_enabled() {
                        sv.ssb.instrument(cl.obs.clone());
                    }
                }
                // A dead peer (concurrent crash) gets endpoints too: the
                // sender keeps *retaining* every epoch closed from here
                // on, so the peer's own promotion finds a complete replay
                // history, and the seeded receiver records where that
                // promotion must resume our replay. Both directions are
                // replaced with live channels when the peer commits.
                ssb.replace_sender(s, sender);
                ssb.replace_receiver(s, DeltaReceiver::new(rx2, s));
                ssb.seed_receiver(s, ckpt.receiver_next[s]);
                ssb.set_durable_epochs(s, st[s].durable_horizon());
            }
        }
        ssb.set_retention(true);

        // Fresh shared state seeded from the checkpoint, on its new host's
        // memory link; the old slot's workers are already stopped.
        let mut shared = NodeShared::for_run(ssb, d, &cl.cfg, &cl.obs);
        shared.mem = Rc::clone(&cl.host_links[h]);
        shared.sink = ckpt.sink.clone();
        shared.records = ckpt.records;
        shared.worker_wm = ckpt.worker_wm.clone();
        shared.worker_pos = ckpt.worker_pos.clone();
        shared.ft = Some(FtState {
            store: Rc::clone(&self.store),
            node: d,
            max_chunk: self.chaos.ft.ckpt_max_chunk,
        });
        let shared = Rc::new(RefCell::new(shared));
        cl.shareds.borrow_mut()[d] = Rc::clone(&shared);

        // Respawn every worker at its checkpointed source position: later
        // records died with the open fragments and are reprocessed.
        cl.spawn_workers(d, &shared, Some(&ckpt.worker_pos));
        cl.obs.instant(
            Cat::Fault,
            "promoted",
            d as u32,
            RECOVERY_TID,
            cl.sim.now(),
            &[
                ("host", h as u64),
                ("epochs", ckpt.epochs_closed),
                ("restarts", restarts as u64),
            ],
        );
    }

    /// Commit a planned handoff of `p` onto host `h` from its cutover
    /// checkpoint: promotion without the crash. Once the new owner's own
    /// durable checkpoint covers the cutover boundary, the eternal epoch-0
    /// seed copy is released (§15.3 retention fix).
    pub(crate) fn commit_handoff(
        &mut self,
        cl: &mut Cluster,
        p: usize,
        h: usize,
        ckpt: &Rc<Checkpoint>,
    ) {
        self.commit(cl, p, h, ckpt, 0);
        self.store.borrow_mut()[p].mark_handoff(ckpt.epochs_closed);
        self.last_change[p] = cl.sim.now();
    }

    /// Stall detection (see the module docs); partitions owned by a
    /// promotion machine, or by another service per `busy`, are skipped.
    pub(crate) fn detect(&mut self, cl: &Cluster, busy: impl Fn(usize) -> bool) {
        let (n, now) = (cl.host.len(), cl.sim.now());
        if n < 2 {
            return; // nothing to detect against
        }
        for i in 0..n {
            if self.promos.contains_key(&i) || busy(i) {
                continue;
            }
            let token = {
                let sh_vec = cl.shareds.borrow();
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| sh_vec[j].borrow().ssb.vclock().get(i))
                    .max()
                    .unwrap_or(0)
            };
            if token != self.last_token[i] {
                self.last_token[i] = token;
                self.last_change[i] = now;
                continue;
            }
            if now - self.last_change[i] < self.chaos.ft.detect_timeout {
                continue;
            }
            self.last_change[i] = now; // re-arm the timer either way
            if !cl.alive(i) {
                // Dead port: start a promotion machine. `None` means every
                // peer is dead — retry after another timeout; the livelock
                // guard bounds a hopeless wait.
                if let Some(p) = self.promo_begin(cl, i, now, 0) {
                    cl.obs.instant(
                        Cat::Fault,
                        "promotion-begin",
                        i as u32,
                        RECOVERY_TID,
                        now,
                        &[("host", p.host as u64), ("epochs", p.ckpt.epochs_closed)],
                    );
                    self.promos.insert(i, p);
                }
            } else if cl.fabric.link_up(cl.port(i)) {
                // Alive with a live link: repair errored channels, if any
                // (a merely slow node needs nothing).
                let fixed = reset_errored_channels(cl, i);
                if fixed > 0 {
                    let action = RecoveryAction::ChannelsReset { channels: fixed };
                    self.push_event(&cl.obs, i, now, now, action);
                }
            }
        }
    }

    /// Record a repair, both in the report and as a Perfetto span
    /// covering the detected→repaired window.
    fn push_event(
        &mut self,
        obs: &Obs,
        node: usize,
        detected_at: SimTime,
        recovered_at: SimTime,
        action: RecoveryAction,
    ) {
        let (injected_at, fault) = self
            .chaos
            .plan
            .events()
            .iter()
            .filter(|e| e.kind.node() == node && e.at <= detected_at)
            .map(|e| (e.at, e.kind.name()))
            .next_back()
            .unwrap_or((SimTime::ZERO, "stall"));
        obs.span(
            Cat::Fault,
            "recovery",
            node as u32,
            RECOVERY_TID,
            detected_at,
            recovered_at.max(detected_at + SimTime::from_nanos(1)),
            &[("injected_ns", injected_at.as_nanos())],
        );
        self.rec.events.push(RecoveryEvent {
            fault,
            node,
            injected_at,
            detected_at,
            recovered_at,
            action,
        });
    }

    /// The recovery report; the report path fills in its digests.
    pub(crate) fn finish(self) -> RecoveryReport {
        self.rec
    }
}

/// NIC time to move `bytes` between two ports: one latency plus the
/// serialization time.
pub(crate) fn transfer_time(cfg: &RunConfig, bytes: u64) -> SimTime {
    let nic = &cfg.fabric.nic;
    nic.latency + SimTime::from_nanos(bytes.saturating_mul(1_000_000_000) / nic.bandwidth.max(1))
}

/// Time for replacement channels to handshake to ready-to-send.
pub(crate) fn reconnect_time(fabric: &Fabric) -> SimTime {
    SimTime::from_nanos(RECONNECT_HANDSHAKE_MSGS * 2 * fabric.ack_latency().as_nanos())
}

/// Re-establish every errored channel touching node `i` (both
/// directions), then replay the epochs the receiving side never
/// committed. Returns how many directed channels needed a reset.
fn reset_errored_channels(cl: &Cluster, i: usize) -> usize {
    let sh_vec = cl.shareds.borrow();
    let mut fixed = 0;
    for s in 0..cl.host.len() {
        if s == i || !cl.alive(s) {
            continue;
        }
        let mut si = sh_vec[i].borrow_mut();
        let mut ss = sh_vec[s].borrow_mut();
        // i → s: i ships deltas of partition s.
        if si.ssb.sender_error(s) || ss.ssb.receiver_error(i) {
            si.ssb.reset_channel_to(s);
            ss.ssb.reset_channel_from(i); // drops uncommitted stages
            let resume = ss.ssb.receiver_next_epoch(i);
            si.ssb.requeue_to(s, resume);
            fixed += 1;
        }
        // s → i: s ships deltas of partition i.
        if ss.ssb.sender_error(i) || si.ssb.receiver_error(s) {
            ss.ssb.reset_channel_to(i);
            si.ssb.reset_channel_from(s);
            let resume = si.ssb.receiver_next_epoch(s);
            ss.ssb.requeue_to(i, resume);
            fixed += 1;
        }
    }
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::query::StreamDef;
    use crate::record::RecordSchema;
    use crate::window::WindowAssigner;
    use crate::{ClusterRun, QueryPlan, RunReport, SlashCluster, SplitRunConfig};
    use slash_chaos::{FaultPlan, FtConfig};

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

    fn run(faults: FaultPlan, nodes: usize) -> (RunReport, RecoveryReport) {
        let parts: Vec<Rc<Vec<u8>>> = (0..nodes).map(|_| gen(60_000, 1, 32)).collect();
        SlashCluster::run_chaos(
            count_plan(4_000),
            parts,
            cfg(nodes),
            &chaos(faults),
            Obs::disabled(),
        )
    }

    #[test]
    fn ft_baseline_matches_fault_free_engine() {
        let (ft, rec) = run(FaultPlan::new(), 2);
        assert!(rec.events.is_empty(), "{:?}", rec.events);
        assert!(rec.checkpoints_durable > 0, "checkpoints must ship");
        let parts: Vec<Rc<Vec<u8>>> = (0..2).map(|_| gen(60_000, 1, 32)).collect();
        let plain = SlashCluster::run(count_plan(4_000), parts, cfg(2));
        assert_eq!(ft.records, plain.records);
        assert_eq!(
            results_digest(&ft.results),
            results_digest(&plain.results),
            "gating and checkpoints must not change query results"
        );
    }

    #[test]
    fn node_crash_promotes_and_recovers_exactly() {
        let (base, base_rec) = run(FaultPlan::new(), 3);
        let plan = FaultPlan::new().crash(SimTime::from_micros(200), 1);
        let (faulted, rec) = run(plan, 3);
        assert!(
            rec.events
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::Promoted { .. })
                    && e.fault == "node-crash"),
            "{:?}",
            rec.events
        );
        assert_eq!(faulted.records, base.records, "every record exactly once");
        assert_eq!(rec.results_digest, base_rec.results_digest);
        assert_eq!(rec.state_digests, base_rec.state_digests);
        let ttr = rec.max_time_to_recover();
        assert!(ttr.is_some_and(|t| t > SimTime::ZERO), "{ttr:?}");
    }

    /// Hot-key splitting composes with the recovery service: the same
    /// fault plan, run with and without pre-split keys, yields
    /// bit-identical results and final state digests — sub-key deltas
    /// restore from the checkpoint, the replacement adopts a survivor's
    /// ledger copy, and the leader-side fold reconciles everything at
    /// window close.
    #[test]
    fn pre_split_commutes_with_crash_promotion() {
        let nodes = 3;
        let faults = FaultPlan::new().crash(SimTime::from_micros(200), 1);
        let (base, base_rec) = run(faults.clone(), nodes);
        let parts: Vec<Rc<Vec<u8>>> = (0..nodes).map(|_| gen(60_000, 1, 32)).collect();
        let c = chaos(faults);
        let scfg = SplitRunConfig {
            pre_split: vec![5, 17],
            auto: None,
            ..SplitRunConfig::default()
        };
        let out = ClusterRun::new(count_plan(4_000), parts, cfg(nodes))
            .recovery(&c)
            .split(&scfg)
            .run();
        let (split, rec) = (out.run, out.recovery);
        assert_eq!(out.split.splits.len(), 2, "both pre-splits must activate");
        assert!(
            rec.events
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::Promoted { .. })),
            "{:?}",
            rec.events
        );
        assert_eq!(split.records, base.records);
        assert_eq!(
            rec.results_digest, base_rec.results_digest,
            "split + crash must match unsplit + crash results"
        );
        assert_eq!(
            rec.state_digests, base_rec.state_digests,
            "no sub-key residue may survive in final state"
        );
    }

    #[test]
    fn link_flap_resets_channels_and_recovers_exactly() {
        let (base, base_rec) = run(FaultPlan::new(), 2);
        let plan =
            FaultPlan::new().link_flap(SimTime::from_micros(200), 1, SimTime::from_micros(100));
        let (faulted, rec) = run(plan, 2);
        assert!(
            rec.events
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::ChannelsReset { .. })),
            "{:?}",
            rec.events
        );
        assert_eq!(faulted.records, base.records);
        assert_eq!(rec.results_digest, base_rec.results_digest);
        assert_eq!(rec.state_digests, base_rec.state_digests);
    }

    #[test]
    fn degraded_fabric_completes_exactly_without_repairs() {
        let (base, base_rec) = run(FaultPlan::new(), 2);
        let plan = FaultPlan::new()
            .degrade(
                SimTime::from_micros(100),
                0,
                SimTime::from_micros(50),
                SimTime::from_micros(400),
            )
            .delay_completions(
                SimTime::from_micros(150),
                1,
                SimTime::from_micros(80),
                SimTime::from_micros(400),
            );
        let (faulted, rec) = run(plan, 2);
        // Slowdowns are not failures: nothing to promote or reset.
        assert!(
            !rec.events
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::Promoted { .. })),
            "{:?}",
            rec.events
        );
        assert_eq!(faulted.records, base.records);
        assert_eq!(rec.results_digest, base_rec.results_digest);
        assert_eq!(rec.state_digests, base_rec.state_digests);
    }

    #[test]
    fn promotion_host_skips_dead_nodes_and_self() {
        // Ring order from d+1; the crashed node is never its own host.
        assert_eq!(select_promotion_host(1, 4, |j| j != 1), Some(2));
        // The designated ring buddy is itself dead: re-select the next.
        assert_eq!(select_promotion_host(1, 4, |j| j != 1 && j != 2), Some(3));
        // Selection wraps around the ring.
        assert_eq!(select_promotion_host(3, 4, |j| j == 0), Some(0));
    }

    #[test]
    fn promotion_with_all_buddies_dead_is_unrecoverable() {
        assert_eq!(select_promotion_host(1, 4, |_| false), None);
        // A single-node cluster has no peer to promote onto.
        assert_eq!(select_promotion_host(0, 1, |_| true), None);
    }

    #[test]
    fn ship_buddy_prefers_ports_without_a_current_copy() {
        // Node 2 already holds the newest copy: diversity picks node 3.
        assert_eq!(select_ship_buddy(1, 4, |_| true, |j| j == 2), Some(3));
        // Every alive peer holds a copy: fall back to ring order.
        assert_eq!(select_ship_buddy(1, 4, |_| true, |_| true), Some(2));
        // No peer alive at all: nowhere to ship.
        assert_eq!(select_ship_buddy(1, 4, |_| false, |_| false), None);
    }

    #[test]
    fn long_degrade_trips_detector_but_never_promotes() {
        let (base, base_rec) = run(FaultPlan::new(), 2);
        // Degradation far longer than the detection timeout: the stall
        // detector fires, finds the node alive with its link up and no
        // errored channels, and has nothing to repair. No promotion, no
        // reset — the run completes exactly on its own.
        let plan = FaultPlan::new().degrade(
            SimTime::from_micros(150),
            1,
            SimTime::from_micros(400),
            SimTime::from_millis(2),
        );
        let (faulted, rec) = run(plan, 2);
        assert!(
            !rec.events
                .iter()
                .any(|e| matches!(e.action, RecoveryAction::Promoted { .. })),
            "{:?}",
            rec.events
        );
        assert_eq!(faulted.records, base.records);
        assert_eq!(rec.results_digest, base_rec.results_digest);
        assert_eq!(rec.state_digests, base_rec.state_digests);
    }

    fn ckpt_at(epochs: u64) -> Rc<Checkpoint> {
        Rc::new(Checkpoint {
            epochs_closed: epochs,
            snapshot: vec![],
            vclock: vec![],
            receiver_next: vec![],
            retained: vec![],
            worker_pos: vec![],
            worker_wm: vec![],
            records: 0,
            sink: Sink::counting(),
            digest: 0,
        })
    }

    #[test]
    fn seed_copy_survives_until_handoff_boundary_is_durably_covered() {
        // §15.3: the epoch-0 seed copy pins every peer's prune floor at 0
        // forever. After a planned handoff, the first *real* durable copy
        // covering the cutover boundary retires it.
        let mut slot = CkptSlot {
            latest: Some(ckpt_at(0)),
            ..CkptSlot::default()
        };
        slot.seed_from_latest();
        assert_eq!(slot.copies.len(), 1);

        // No handoff recorded: real copies land, the seed stays (a plain
        // chaos run keeps scratch recovery available forever).
        slot.insert_copy(
            DurableCopy { holder_port: Some(NodeId(7)), ckpt: ckpt_at(3) },
            2,
        );
        assert!(!slot.maybe_release_seed());
        assert_eq!(slot.copies.len(), 2);

        // Handoff cut over at epoch 5: the epoch-3 copy does not cover
        // it, so the seed is still required.
        slot.mark_handoff(5);
        assert!(!slot.maybe_release_seed());
        assert!(slot.copies.iter().any(|c| c.holder_port.is_none()));

        // A real copy at the boundary lands: the seed is released and
        // only real copies remain.
        slot.insert_copy(
            DurableCopy { holder_port: Some(NodeId(8)), ckpt: ckpt_at(5) },
            2,
        );
        assert!(slot.maybe_release_seed());
        assert!(slot.copies.iter().all(|c| c.holder_port.is_some()));
        // Release is one-shot: the boundary is cleared.
        assert!(!slot.maybe_release_seed());
    }

    #[test]
    fn seed_release_lifts_the_prune_floor() {
        // While the seed copy exists the prune floor is 0 (replay must
        // reach back to scratch); after release it rises to the oldest
        // surviving real copy's commit horizon.
        let mut slot = CkptSlot::default();
        let seed = ckpt_at(0);
        slot.latest = Some(seed);
        slot.seed_from_latest();
        let mut real = ckpt_at(6);
        Rc::get_mut(&mut real).unwrap().receiver_next = vec![4, 9];
        slot.insert_copy(
            DurableCopy { holder_port: Some(NodeId(3)), ckpt: real },
            2,
        );
        assert_eq!(slot.prune_floor(0), 0, "seed pins the floor");
        slot.mark_handoff(6);
        assert!(slot.maybe_release_seed());
        assert_eq!(slot.prune_floor(0), 4, "floor rises to the real copy");
        assert_eq!(slot.prune_floor(1), 9);
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let go = || {
            let plan = FaultPlan::new().crash(SimTime::from_micros(250), 0);
            let (r, rec) = run(plan, 3);
            (
                r.records,
                r.completion_time,
                r.net_tx_bytes,
                rec.results_digest,
                rec.state_digests.clone(),
                rec.events.len(),
            )
        };
        assert_eq!(go(), go(), "same seed + same plan ⇒ identical run");
    }
}
