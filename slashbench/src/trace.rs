//! The traced run: per-layer metrics from a staged replay.
//!
//! The replay feeds one workload's input through each layer's public
//! functions in turn, every stage consuming the real output of the one
//! before it:
//!
//! ```text
//! generator ─► oracle walk ─► state.rmw | state.append ─► state.codec.encode
//!   ─► net.channel ─► state.codec.decode ─► state.merge ─► core.trigger ─► oracle
//! generator ─► core.hotpath            (branch: the worker's batch loop)
//! oracle walk ─► state.combiner        (branch: write-combiner folds)
//! ```
//!
//! A stage runs only where the engine does that work: the state stage of
//! the kind the plan keeps, the combiner where the engine combines, and
//! the split comparison on the split workload. The others report 0.
//!
//! Spans are recorded here, around the calls into each layer — never
//! inside the engine — held in memory, and written to
//! `slashbench/out/` when the run ends. A layer's self time is its span
//! durations minus the part covered by child spans. Root spans around
//! whole engine calls give the end-to-end wall time that the covering
//! stages' self times are compared with (`trace.unexplained_share`).
//!
//! One stage per run is also re-run with a planted busy-wait inside its
//! wrapper; the report must attribute the added time to that stage.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use slash_core::{
    spawn_node_workers, CostCategory, CostModel, HotPath, NodeShared, QueryPlan, RunConfig,
    RunReport, SinkResult, SlashCluster, SplitReport,
};
use slash_desim::sim::SimStats;
use slash_desim::{Sim, SimTime};
use slash_exec::{JobSpec, Scheduler, SimBackend, ThreadBackend};
use slash_net::{create_channel, MsgFlags};
use slash_obs::Obs;
use slash_rdma::Fabric;
use slash_state::backend::{build_cluster, SsbConfig, SsbNode, TriggeredData};
use slash_state::delta::{try_parse_chunk, ChunkBuilder};
use slash_state::entry::EntryKind;
use slash_state::hash::{partition_of, unpack_key};
use slash_state::{snapshot_chunks, Partition, StateDescriptor, StateKey, WriteCombiner};
use slash_workloads::Workload;

use crate::measure::{check_run, setup};
use crate::oracle::Oracle;
use crate::report::{metric, Kind, Metric, Outcome};
use crate::stats::{median, ratio};
use crate::workload::{Engine, Spec};

/// Stages whose self times together stand for the work one engine run
/// does; `trace.unexplained_share` compares their sum with the engine's
/// wall time. The other stages re-do part of this work another way
/// (drill-downs) and are left out of the sum.
const COVERING: [&str; 6] = [
    "core.hotpath",
    "state.codec.encode",
    "net.channel",
    "state.codec.decode",
    "state.merge",
    "core.trigger",
];

/// Every replay stage, covering stages first.
const STAGES: [&str; 10] = [
    "core.hotpath",
    "state.codec.encode",
    "net.channel",
    "state.codec.decode",
    "state.merge",
    "core.trigger",
    "state.rmw",
    "state.append",
    "state.combiner",
    "core.trigger.scan",
];

/// Share of the covering stages' self time that the planted busy-wait
/// adds to its layer.
const PLANT_SHARE: f64 = 0.10;

/// Replays per run, at least: enough for medians of the unplanted and
/// the planted iterations.
const MIN_CYCLES: usize = 3;

/// Rounds of whole engine calls in a traced run; ratios between them are
/// medians over rounds.
const ROUNDS: usize = 3;

/// Survivors per state-stage call group (the engine's batch size).
const GROUP: usize = 512;

/// No parent span.
const ROOT: u32 = u32::MAX;

/// One recorded span.
struct Span {
    name: &'static str,
    run: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    /// Operations the wrapped calls performed (records, entries, …).
    ops: u64,
}

/// Span recorder. When off, `open`/`close` do nothing, so an untraced
/// replay pays no clock reads; the difference is `trace.overhead_ratio`.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    run: u32,
    on: bool,
    /// Stage whose every span busy-waits this long before it closes.
    plant: Option<(&'static str, Duration)>,
}

impl Tracer {
    /// A recorder that records.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
            on: true,
            plant: None,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return ROOT;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 4 G spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            start_ns,
            end_ns: start_ns,
            ops: 0,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, crediting it with `ops` operations.
    pub fn close(&mut self, id: u32, ops: u64) {
        if !self.on {
            return;
        }
        let name = self.spans[id as usize].name;
        if let Some((_, wait)) = self.plant.filter(|(p, _)| *p == name) {
            let until = Instant::now() + wait;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.ops = ops;
        // Spans close innermost first; one an error path left open is
        // dropped from the stack here, with its zero duration.
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Wall nanoseconds of span `id`.
    fn duration(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns - s.start_ns
    }

    /// Per stage of run `run`: (self ns, ops, calls).
    fn stage_totals(&self, run: u32) -> Vec<(&'static str, f64, u64, u64)> {
        let first = self.spans.partition_point(|s| s.run < run);
        let spans = &self.spans[first..];
        let spans = &spans[..spans.partition_point(|s| s.run == run)];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize - first] += s.end_ns - s.start_ns;
            }
        }
        STAGES
            .iter()
            .map(|&name| {
                let (mut ns, mut ops, mut calls) = (0u64, 0u64, 0u64);
                for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
                    ns += (s.end_ns - s.start_ns) - child_ns[i];
                    ops += s.ops;
                    calls += 1;
                }
                (name, ns as f64, ops, calls)
            })
            .collect()
    }

    /// The spans as JSON, one span per line.
    fn to_json(&self, spec: &Spec, seed: u64, models: &[(&str, &str, f64)]) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"model_ns\": {{",
            spec.name
        );
        let m: Vec<String> = models
            .iter()
            .map(|(layer, constant, ns)| format!("\"{layer}\": [\"{constant}\", {ns}]"))
            .collect();
        out.push_str(&m.join(", "));
        out.push_str("},\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"ops\": {}}}{}",
                s.name,
                s.run,
                s.start_ns,
                s.end_ns,
                s.ops,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// What one replay produced besides its spans.
#[derive(Default)]
struct ReplayOut {
    /// Survivors that went through the write combiner, and the partials
    /// it flushed (as the worker counts them).
    combiner_folds: u64,
    combiner_flushes: u64,
    /// Live keys and resident log bytes after the state stage.
    keys: u64,
    resident_bytes: u64,
    /// Encoded delta entries and their wire bytes.
    entries: u64,
    wire_bytes: u64,
    /// Channel sends attempted and accepted.
    send_attempts: u64,
    sends_ok: u64,
}

/// Per-node fragments of every partition, as an `SsbNode` holds them.
type Fragments = Vec<Vec<Partition>>;

fn fragments(nodes: usize, desc: StateDescriptor) -> Fragments {
    (0..nodes)
        .map(|_| (0..nodes).map(|p| Partition::new(p, desc)).collect())
        .collect()
}

/// A surviving record placed on the node that applies it.
#[derive(Debug, Clone, Copy)]
struct Placed {
    key: StateKey,
    /// Node whose input partition holds the record.
    origin: u32,
    rec: u32,
}

/// Place each node's survivors on the node that applies their state
/// update. Without splits that is the node that read the record. A split
/// key's records are dealt round-robin over all nodes, as the forwarding
/// plane deals them, so their updates reach the key's leader as deltas.
fn place(oracle: &Oracle, split_keys: &[u64], nodes: usize) -> Vec<Vec<Placed>> {
    let mut placed: Vec<Vec<Placed>> = vec![Vec::new(); nodes];
    for (origin, surv) in oracle.survivors.iter().enumerate() {
        let mut next = origin;
        for s in surv {
            let node = if split_keys.binary_search(&unpack_key(s.key).1).is_ok() {
                next = (next + 1) % nodes;
                next
            } else {
                origin
            };
            placed[node].push(Placed {
                key: s.key,
                origin: origin as u32,
                rec: s.rec,
            });
        }
    }
    placed
}

/// The replay's fixed inputs.
struct Ctx<'a> {
    spec: &'a Spec,
    w: &'a Workload,
    oracle: &'a Oracle,
    plan: Rc<QueryPlan>,
    cfg: RunConfig,
    /// Per applying node, its survivors (see [`place`]).
    placed: Vec<Vec<Placed>>,
}

impl<'a> Ctx<'a> {
    /// Record `rec` of node `node`'s input partition.
    fn record(&self, node: usize, rec: u32) -> &'a [u8] {
        let w: &'a Workload = self.w;
        let size = self.plan.record_size();
        let off = rec as usize * size;
        &w.partitions[node][off..off + size]
    }

    fn nodes(&self) -> usize {
        self.spec.nodes
    }

    fn ssb_config(&self) -> SsbConfig {
        SsbConfig {
            nodes: self.cfg.nodes,
            epoch_bytes: self.cfg.epoch_bytes,
            channel: self.cfg.channel,
        }
    }

    /// Whether the engine's write combiner runs on this plan: a
    /// combinable fixed-size aggregation with combining on (the rule
    /// `HotPath::new` applies).
    fn combines(&self) -> bool {
        let desc = self.plan.descriptor();
        self.cfg.combine && desc.combinable && !desc.is_appended()
    }

    /// Apply a survivor's update to an aggregation's fixed-size value.
    fn update(&self, s: &Placed, v: &mut [u8]) {
        let QueryPlan::Aggregate { agg, input, .. } = &*self.plan else {
            unreachable!("only aggregations keep fixed-size state");
        };
        agg.update(&input.schema, self.record(s.origin as usize, s.rec), v)
    }

    /// Record-prefix bytes a join element retains.
    fn retain(&self) -> usize {
        let QueryPlan::Join { retain_bytes, .. } = &*self.plan else {
            unreachable!("only joins keep holistic state");
        };
        (*retain_bytes).min(self.plan.record_size())
    }

    /// The holistic element a record contributes: its side byte and the
    /// retained record prefix, as the join hot path builds it.
    fn element(&self, s: &Placed, out: &mut Vec<u8>) {
        let QueryPlan::Join {
            input, side_off, ..
        } = &*self.plan
        else {
            unreachable!("only joins keep holistic state");
        };
        let r = self.record(s.origin as usize, s.rec);
        out.push(input.schema.field_u64(r, *side_off) as u8);
        out.extend_from_slice(&r[..self.retain()]);
    }
}

/// `core.hotpath`: the worker's batch loop, `HotPath::process` on a
/// detached `SsbNode` per node.
fn stage_hotpath(cx: &Ctx, tr: &mut Tracer, out: &mut ReplayOut) {
    let batch_bytes = cx.cfg.batch_records * cx.plan.record_size();
    for node in 0..cx.nodes() {
        let mut hp = HotPath::new(Rc::clone(&cx.plan), cx.cfg.combine, cx.cfg.combiner_slots);
        let mut ssb = SsbNode::detached(node, cx.plan.descriptor(), cx.ssb_config());
        for batch in cx.w.partitions[node].chunks(batch_bytes) {
            let id = tr.open("core.hotpath");
            let o = hp.process(&mut ssb, batch);
            tr.close(id, o.records);
            // Counted as the worker counts them: a batch is combined when
            // the combiner is still on after it.
            if hp.combined() {
                out.combiner_folds += o.survivors;
                out.combiner_flushes += o.flushed;
            }
        }
        std::hint::black_box(ssb.state_digest());
    }
}

/// `state.rmw` (aggregations): `Partition::rmw` fed each node's surviving
/// `(window, key)` stream, into the fragment of the key's partition.
fn stage_rmw(cx: &Ctx, tr: &mut Tracer) -> Fragments {
    let n = cx.nodes();
    let mut frags = fragments(n, cx.plan.descriptor());
    for (node, surv) in cx.placed.iter().enumerate() {
        for group in surv.chunks(GROUP) {
            let id = tr.open("state.rmw");
            for s in group {
                frags[node][partition_of(s.key, n)].rmw(s.key, |v| cx.update(s, v));
            }
            tr.close(id, group.len() as u64);
        }
    }
    frags
}

/// `state.append` (joins): `Partition::append_batch` (the per-partition
/// call `SsbNode::append_batch` routes to) fed the same stream, one call
/// per destination partition per group.
fn stage_append(cx: &Ctx, tr: &mut Tracer) -> Fragments {
    let n = cx.nodes();
    let stride = 1 + cx.retain();
    let mut frags = fragments(n, cx.plan.descriptor());
    let (mut keys, mut elems): (Vec<Vec<StateKey>>, Vec<Vec<u8>>) =
        (vec![Vec::new(); n], vec![Vec::new(); n]);
    for (node, surv) in cx.placed.iter().enumerate() {
        for group in surv.chunks(GROUP) {
            for s in group {
                let p = partition_of(s.key, n);
                keys[p].push(s.key);
                cx.element(s, &mut elems[p]);
            }
            let id = tr.open("state.append");
            for p in 0..n {
                if !keys[p].is_empty() {
                    frags[node][p].append_batch(&keys[p], &elems[p], stride);
                }
            }
            tr.close(id, group.len() as u64);
            keys.iter_mut().for_each(Vec::clear);
            elems.iter_mut().for_each(Vec::clear);
        }
    }
    frags
}

/// `state.combiner`: `WriteCombiner::fold` over the same stream, flushed
/// with `SsbNode::rmw_batch` at each group's end and whenever the table
/// fills. Only the folds are in the stage's spans. Runs only where the
/// engine's combiner does ([`Ctx::combines`]).
fn stage_combiner(cx: &Ctx, tr: &mut Tracer) {
    let desc = cx.plan.descriptor();
    for (node, surv) in cx.placed.iter().enumerate() {
        let mut comb = WriteCombiner::new(desc, cx.cfg.combiner_slots);
        let mut ssb = SsbNode::detached(node, desc, cx.ssb_config());
        for group in surv.chunks(GROUP) {
            let mut id = tr.open("state.combiner");
            let mut folded = 0;
            for s in group {
                if !comb.fold(s.key, |v| cx.update(s, v)) {
                    tr.close(id, folded);
                    ssb.rmw_batch(&mut comb);
                    folded = 0;
                    id = tr.open("state.combiner");
                    comb.fold(s.key, |v| cx.update(s, v));
                }
                folded += 1;
            }
            tr.close(id, folded);
            ssb.rmw_batch(&mut comb);
        }
        std::hint::black_box(ssb.state_digest());
    }
}

/// `state.codec.encode`: close every helper fragment's epoch into delta
/// chunks (`Partition::close_epoch` → `ChunkBuilder::push`/`finish`), as
/// a sender does when an epoch closes.
fn stage_encode(
    cx: &Ctx,
    tr: &mut Tracer,
    frags: &mut Fragments,
    out: &mut ReplayOut,
) -> Vec<Vec<u8>> {
    let cap = cx.cfg.channel.payload_capacity();
    let mut chunks = Vec::new();
    for (node, parts) in frags.iter_mut().enumerate() {
        for (p, frag) in parts.iter_mut().enumerate().filter(|(p, _)| *p != node) {
            let id = tr.open("state.codec.encode");
            let mut b = ChunkBuilder::new(p as u32, frag.epoch(), 0, 0, cap);
            let mut n = 0u64;
            frag.close_epoch(|h, v| {
                b.push(h.key, h.kind, v);
                n += 1;
            });
            let built = b.finish();
            tr.close(id, n);
            out.entries += n;
            out.wire_bytes += built.iter().map(|c| c.len() as u64).sum::<u64>();
            chunks.extend(built);
        }
    }
    chunks
}

/// `net.channel`: carry the chunks over one RDMA channel of a 2-node
/// fabric with `ChannelSender::try_send` / `ChannelReceiver::try_recv`.
/// A refused send is a credit stall: the simulator runs, the receiver
/// drains (returning credit), and the send is retried.
fn stage_channel(
    cx: &Ctx,
    tr: &mut Tracer,
    chunks: &[Vec<u8>],
    out: &mut ReplayOut,
) -> Result<Vec<Vec<u8>>, String> {
    let err = |e: slash_rdma::RdmaError| format!("channel: {e:?}");
    let mut sim = Sim::new();
    let fabric = Fabric::new(cx.cfg.fabric);
    let (a, b) = (fabric.add_node(), fabric.add_node());
    let (mut tx, mut rx) = create_channel(&fabric, a, b, cx.cfg.channel);
    let mut got = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let id = tr.open("net.channel");
        loop {
            out.send_attempts += 1;
            if tx.try_send(&mut sim, MsgFlags::DATA, chunk).map_err(err)? {
                out.sends_ok += 1;
                break;
            }
            sim.run();
            while let Some((_, p)) = rx.try_recv(&mut sim).map_err(err)? {
                got.push(p);
            }
            sim.run();
        }
        tr.close(id, 1);
    }
    let id = tr.open("net.channel");
    while got.len() < chunks.len() {
        if sim.pending_events() == 0 && !rx.ready() {
            return Err(format!("channel lost {} chunks", chunks.len() - got.len()));
        }
        sim.run();
        while let Some((_, p)) = rx.try_recv(&mut sim).map_err(err)? {
            got.push(p);
        }
    }
    tr.close(id, 0);
    Ok(got)
}

/// One decoded delta entry: key, kind, and its value's range in the
/// decode stage's flat buffer.
type Entry = (StateKey, EntryKind, usize, usize);

/// Per decoded chunk: its partition and its entries.
type Decoded = Vec<(usize, Vec<Entry>)>;

/// `state.codec.decode`: `try_parse_chunk` on every received payload.
/// Returns per chunk its partition and entries, plus the value bytes.
fn stage_decode(tr: &mut Tracer, payloads: &[Vec<u8>]) -> Result<(Decoded, Vec<u8>), String> {
    let mut flat = Vec::new();
    let mut decoded = Vec::with_capacity(payloads.len());
    for payload in payloads {
        let id = tr.open("state.codec.decode");
        let mut entries = Vec::new();
        let header = try_parse_chunk(payload, |key, kind, value| {
            entries.push((key, kind, flat.len(), value.len()));
            flat.extend_from_slice(value);
        })
        .map_err(|e| format!("decode: {e}"))?;
        tr.close(id, entries.len() as u64);
        decoded.push((header.partition as usize, entries));
    }
    Ok((decoded, flat))
}

/// `state.merge`: merge every decoded entry into its leader's own
/// fragment (the leader's primary partition) — `Partition::merge_fixed`,
/// or `Partition::append` for holistic state, as a receiver commits an
/// epoch.
fn stage_merge(
    tr: &mut Tracer,
    frags: &mut Fragments,
    decoded: &[(usize, Vec<Entry>)],
    flat: &[u8],
) {
    for (p, entries) in decoded {
        let leader = &mut frags[*p][*p];
        let id = tr.open("state.merge");
        for &(key, kind, off, len) in entries {
            let value = &flat[off..off + len];
            match kind {
                EntryKind::Fixed => leader.merge_fixed(key, value),
                EntryKind::Appended => leader.append(key, value),
            }
        }
        tr.close(id, entries.len() as u64);
    }
}

/// `core.trigger`: move each leader partition into a detached `SsbNode`
/// (snapshot and restore — bench glue, outside the layer's span), then
/// fire every window with `SsbNode::drain_triggered` and render results
/// as the worker does.
fn stage_trigger(cx: &Ctx, tr: &mut Tracer, frags: Fragments) -> Vec<SinkResult> {
    let cap = cx.cfg.channel.payload_capacity();
    let window = cx.plan.window();
    let mut results = Vec::new();
    for (p, mut parts) in frags.into_iter().enumerate() {
        let desc = *parts[p].descriptor();
        let leader = parts.swap_remove(p);
        drop(parts);
        let glue = tr.open("glue.restore");
        let mut ssb = SsbNode::detached(p, desc, cx.ssb_config());
        ssb.restore_primary(&snapshot_chunks(&leader, 0, cap));
        drop(leader);
        tr.close(glue, 0);
        // The engine's trigger duty scans every key of the primary on
        // each worker step; a scan with no window ready times that cost.
        let id = tr.open("core.trigger.scan");
        ssb.drain_triggered(|_| false, |_| {});
        tr.close(id, ssb.primary_key_count() as u64);
        let id = tr.open("core.trigger");
        let before = results.len();
        ssb.drain_triggered(
            |_| true,
            |tv| {
                results.push(match (&*cx.plan, tv.data) {
                    (QueryPlan::Aggregate { agg, .. }, TriggeredData::Fixed(v)) => {
                        SinkResult::Agg {
                            window_id: tv.window_id,
                            key: tv.key,
                            value: agg.render(&v),
                        }
                    }
                    (_, TriggeredData::Elements(elems)) => SinkResult::Join {
                        window_id: tv.window_id,
                        key: tv.key,
                        pairs: slash_core::join::pair_count(&elems, &window),
                    },
                    (_, TriggeredData::Fixed(_)) => unreachable!("join state is holistic"),
                })
            },
        );
        tr.close(id, (results.len() - before) as u64);
    }
    results
}

/// One full replay under a `replay` root span.
fn replay(cx: &Ctx, tr: &mut Tracer, outcome: &mut Outcome) -> ReplayOut {
    let mut out = ReplayOut::default();
    let root = tr.open("replay");
    stage_hotpath(cx, tr, &mut out);
    if cx.combines() {
        stage_combiner(cx, tr);
    }
    // The state stage of the kind the plan keeps; the other stays at 0.
    let mut frags = if cx.plan.descriptor().is_appended() {
        stage_append(cx, tr)
    } else {
        stage_rmw(cx, tr)
    };
    for parts in &frags {
        for f in parts {
            out.keys += f.key_count() as u64;
            out.resident_bytes += f.resident_bytes() as u64;
        }
    }
    let chunks = stage_encode(cx, tr, &mut frags, &mut out);
    let result = stage_channel(cx, tr, &chunks, &mut out)
        .and_then(|payloads| stage_decode(tr, &payloads))
        .map(|(decoded, flat)| {
            stage_merge(tr, &mut frags, &decoded, &flat);
            stage_trigger(cx, tr, frags)
        })
        .and_then(|results| cx.oracle.check(&results));
    tr.close(root, cx.w.records);
    outcome.check("replay", result);
    out
}

/// Run the plain cluster through the simulator with this module's own
/// drive loop (the same setup `SlashCluster::run` does, through the
/// engine's public functions), so the simulator's event count can be
/// read: `desim.events` and `desim.ns_per_event`.
fn drive_desim(
    cx: &Ctx,
    tr: &mut Tracer,
) -> Result<(Vec<SinkResult>, Vec<u64>, SimStats, f64), String> {
    let cfg = cx.cfg;
    let mut sim = Sim::new();
    let fabric = Fabric::new(cfg.fabric);
    let ids = fabric.add_nodes(cfg.nodes);
    let plan = Rc::new(cx.w.plan.clone());
    let shareds: Vec<Rc<RefCell<NodeShared>>> =
        build_cluster(&fabric, &ids, plan.descriptor(), cx.ssb_config())
            .into_iter()
            .map(|ssb| {
                let mut sh =
                    NodeShared::new(ssb, cfg.workers_per_node, cfg.cost.mem_bandwidth, true);
                sh.metrics.set_clock_ghz(cfg.cost.clock_ghz);
                Rc::new(RefCell::new(sh))
            })
            .collect();
    let schema = plan.input().schema;
    for (node, sh) in shareds.iter().enumerate() {
        spawn_node_workers(
            &mut sim,
            node,
            sh,
            &cx.w.partitions,
            schema,
            &plan,
            &cfg,
            None,
        );
    }
    let id = tr.open("desim.run_until");
    let t = Instant::now();
    while !shareds.iter().all(|s| s.borrow().finished) {
        if sim.pending_events() == 0 || sim.now() > cfg.max_virtual_time {
            tr.close(id, 0);
            return Err("simulation stopped before the query completed".into());
        }
        let horizon = sim.now() + SimTime::from_millis(10);
        sim.run_until(horizon);
    }
    let wall = t.elapsed().as_secs_f64();
    let stats = sim.stats();
    tr.close(id, stats.events);
    let mut results = Vec::new();
    let mut digests = Vec::new();
    for sh in &shareds {
        let sh = sh.borrow();
        results.extend(sh.sink.results.iter().cloned());
        digests.push(sh.ssb.state_digest());
    }
    Ok((results, digests, stats, wall))
}

/// Time one engine call under a root span.
fn timed<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let id = tr.open(name);
    let t = Instant::now();
    let r = f();
    let secs = t.elapsed().as_secs_f64();
    tr.close(id, 0);
    (r, secs)
}

/// Cost-model constants paired with the layer each one describes.
fn model_constants(c: &CostModel) -> [(&'static str, &'static str, f64); 7] {
    [
        ("core.hotpath", "record_pipeline_ns", c.record_pipeline_ns),
        ("state.rmw", "rmw_base_ns", c.rmw_base_ns),
        ("state.append", "append_base_ns", c.append_base_ns),
        ("state.combiner", "combine_hit_ns", c.combine_hit_ns),
        ("state.merge", "merge_entry_ns", c.merge_entry_ns),
        ("net.channel", "post_wr_ns", c.post_wr_ns),
        ("core.split", "forward_record_ns", c.forward_record_ns),
    ]
}

/// Per-iteration totals of the replays of one kind.
#[derive(Default)]
struct Iterations {
    /// Per replay: stage totals.
    stages: Vec<Vec<(&'static str, f64, u64, u64)>>,
    /// Per replay: wall ns of the whole replay.
    wall_ns: Vec<f64>,
}

impl Iterations {
    /// Median over replays of `f(self ns, ops, calls)` for `stage`.
    fn median_of(&self, stage: &str, f: impl Fn(f64, u64, u64) -> f64) -> f64 {
        let v: Vec<f64> = self
            .stages
            .iter()
            .filter_map(|it| it.iter().find(|s| s.0 == stage).map(|s| f(s.1, s.2, s.3)))
            .collect();
        median(&v)
    }

    fn per_op(&self, stage: &str) -> f64 {
        self.median_of(stage, |ns, ops, _| ratio(ns, ops as f64))
    }

    fn self_ns(&self, stage: &str) -> f64 {
        self.median_of(stage, |ns, _, _| ns)
    }

    /// Median over replays of the covering stages' summed self time.
    fn covering_ns(&self) -> f64 {
        let sums: Vec<f64> = self
            .stages
            .iter()
            .map(|it| {
                it.iter()
                    .filter(|s| COVERING.contains(&s.0))
                    .map(|s| s.1)
                    .sum()
            })
            .collect();
        median(&sums)
    }
}

/// Run one replay traced (recording spans, optionally planted) and
/// collect its totals.
fn traced_replay(
    cx: &Ctx,
    tr: &mut Tracer,
    outcome: &mut Outcome,
    into: &mut Iterations,
) -> ReplayOut {
    tr.run += 1;
    let root_idx = tr.spans.len() as u32;
    let out = replay(cx, tr, outcome);
    into.wall_ns.push(tr.duration(root_idx) as f64);
    into.stages.push(tr.stage_totals(tr.run));
    out
}

/// What the root-span engine calls measured.
struct EngineCalls {
    /// The workload's own engine call (`engine.run`), first round.
    report: RunReport,
    /// Median wall seconds of `engine.run`.
    engine_secs: f64,
    /// The split workload's split plane, from the first round: what it
    /// split and forwarded (`None` on the other workloads).
    split_rep: Option<SplitReport>,
    /// Median extra wall seconds of the split run over its plain
    /// counterpart, and the split run's modeled rate ÷ the plain run's
    /// (both 0 on the other workloads).
    split_extra_secs: f64,
    split_gain: f64,
    desim: SimStats,
    desim_secs: f64,
    /// Median per-round wall ratios: threads ÷ simulator, and
    /// observability on ÷ off.
    exec_ratio: f64,
    obs_ratio: f64,
}

/// Time whole engine calls under root spans and check each one: the
/// workload's engine (after a warm-up), on the split workload its plain
/// counterpart, both scheduler backends, and a run with observability on — back to
/// back in each of [`ROUNDS`] rounds, so every ratio compares runs made
/// moments apart — then the benchmark-driven simulator loop once.
fn engine_calls(cx: &Ctx, tr: &mut Tracer, outcome: &mut Outcome) -> EngineCalls {
    let (spec, w, oracle) = (cx.spec, cx.w, cx.oracle);
    let owned: Vec<Vec<u8>> = w.partitions.iter().map(|p| p.to_vec()).collect();
    let s = *spec;
    let job = |parts| JobSpec::new(move || s.plan(), parts, cx.cfg);
    let _ = timed(tr, "engine.warmup", || spec.run(w, Obs::disabled()));
    let mut first = None;
    let mut reference = Vec::new();
    let mut plain_rps = 0.0;
    let (mut engine, mut split_extra) = (Vec::new(), Vec::new());
    let (mut exec, mut obs) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let ((report, own_split), secs) = timed(tr, "engine.run", || spec.run(w, Obs::disabled()));
        if round == 0 {
            reference = report.state_digests.clone();
        }
        outcome.check(
            "engine run",
            check_run(oracle, &report.results, &report.state_digests, &reference),
        );
        // The split run's plain counterpart: the same input through
        // `SlashCluster::run`, for the split plane's cost and gain.
        if spec.engine == Engine::Split {
            let (plain, plain_secs) = timed(tr, "core.split.plain", || {
                SlashCluster::run(w.plan.clone(), w.partitions.clone(), cx.cfg)
            });
            outcome.check(
                "plain counterpart run",
                check_run(oracle, &plain.results, &plain.state_digests, &reference),
            );
            split_extra.push(secs - plain_secs);
            if round == 0 {
                plain_rps = plain.throughput();
            }
        }
        // Both backends run the plain job; the threaded one must
        // reproduce the simulator's results and per-node state digests.
        let (sim, sim_secs) = timed(tr, "exec.sim", || SimBackend.run(job(owned.clone())));
        let (thr, thr_secs) = timed(tr, "exec.threads", || {
            ThreadBackend::new().run(job(owned.clone()))
        });
        outcome.check("sim backend run", oracle.check(&sim.results));
        outcome.check(
            "thread backend run",
            check_run(oracle, &thr.results, &thr.state_digests, &sim.state_digests),
        );
        let ((o, _), obs_secs) = timed(tr, "obs.enabled", || spec.run(w, Obs::enabled(1 << 16)));
        outcome.check(
            "observed run",
            check_run(oracle, &o.results, &o.state_digests, &reference),
        );
        engine.push(secs);
        exec.push(thr_secs / sim_secs);
        obs.push(obs_secs / secs);
        if round == 0 {
            first = Some((report, own_split));
        }
    }

    let (desim, desim_secs) = match drive_desim(cx, tr) {
        Ok((results, digests, stats, wall)) => {
            outcome.check(
                "desim-driven run",
                check_run(oracle, &results, &digests, &reference),
            );
            (stats, wall)
        }
        Err(e) => {
            outcome.check("desim-driven run", Err(e));
            (SimStats::default(), 0.0)
        }
    };

    let (report, split_rep) = first.expect("ROUNDS > 0");
    EngineCalls {
        split_gain: ratio(report.throughput(), plain_rps),
        report,
        engine_secs: median(&engine),
        split_rep,
        split_extra_secs: median(&split_extra),
        desim,
        desim_secs,
        exec_ratio: median(&exec),
        obs_ratio: median(&obs),
    }
}

/// What the replay loop measured.
struct Replays {
    /// Traced replays without a plant.
    clean: Iterations,
    /// Wall ns of the untraced replays.
    untraced_ns: Vec<f64>,
    /// Totals of the last replay (they repeat exactly).
    last: ReplayOut,
    plant_layer: &'static str,
    /// Busy-wait time planted per planted replay, and the stage whose
    /// self time grew most.
    planted_ns: f64,
    flagged: &'static str,
    /// The planted stage's growth ÷ the planted time.
    attributed: f64,
}

/// Replay in cycles of three — traced, traced with a planted busy-wait,
/// untraced — until `budget` has run `seconds`, then attribute the
/// planted time to the stage whose median self time grew most.
fn replays(
    cx: &Ctx,
    tr: &mut Tracer,
    outcome: &mut Outcome,
    plant_layer: &'static str,
    budget: Instant,
    seconds: f64,
) -> Replays {
    let (mut clean, mut planted) = (Iterations::default(), Iterations::default());
    let mut untraced_ns = Vec::new();
    let mut last = ReplayOut::default();
    let mut plant_per_span = 0.0;
    let mut cycles = 0;
    while cycles < MIN_CYCLES || budget.elapsed().as_secs_f64() < seconds {
        last = traced_replay(cx, tr, outcome, &mut clean);
        if cycles == 0 {
            // Plant a fixed share of the first replay's covering time,
            // spread evenly over the layer's spans.
            let calls = clean.median_of(plant_layer, |_, _, calls| calls as f64);
            plant_per_span = (PLANT_SHARE * clean.covering_ns() / calls.max(1.0)).round();
        }
        tr.plant = Some((plant_layer, Duration::from_nanos(plant_per_span as u64)));
        traced_replay(cx, tr, outcome, &mut planted);
        tr.plant = None;
        let t = Instant::now();
        replay(cx, &mut Tracer::off(), outcome);
        untraced_ns.push(t.elapsed().as_nanos() as f64);
        cycles += 1;
    }
    let planted_ns = planted.median_of(plant_layer, |_, _, calls| calls as f64) * plant_per_span;
    let growth = |s: &str| planted.self_ns(s) - clean.self_ns(s);
    let flagged = STAGES
        .iter()
        .copied()
        .max_by(|a, b| growth(a).total_cmp(&growth(b)))
        .unwrap_or("");
    Replays {
        attributed: ratio(growth(plant_layer), planted_ns),
        clean,
        untraced_ns,
        last,
        plant_layer,
        planted_ns,
        flagged,
    }
}

/// The per-layer metrics, in report order.
fn layer_metrics(
    cx: &Ctx,
    calls: &EngineCalls,
    reps: &Replays,
    setup_secs: &[f64],
    outcome: &Outcome,
) -> Vec<Metric> {
    use Kind::{Count, Measured, Modeled};
    let records = cx.w.records as f64;
    let (clean, last) = (&reps.clean, &reps.last);
    let m = &calls.report.metrics;
    let op = |stage| clean.per_op(stage);
    let split_extra_ns = calls.split_extra_secs * 1e9;
    let (splits, forwarded) = calls.split_rep.as_ref().map_or((0.0, 0.0), |r| {
        (r.splits.len() as f64, r.forwarded_records as f64)
    });
    let fold_ratio = if last.combiner_folds == 0 {
        0.0
    } else {
        1.0 - last.combiner_flushes as f64 / last.combiner_folds as f64
    };
    let msgs = clean.median_of("net.channel", |_, ops, _| ops as f64);
    let chan_ns = ratio(clean.self_ns("net.channel"), msgs);
    let desim_ns = calls.desim_secs * 1e9;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[rustfmt::skip]
    let rows = [
        ("workloads.gen_ns_per_record", median(setup_secs) * 1e9 / records, "ns/record", Measured),
        ("core.hotpath.ns_per_record", op("core.hotpath"), "ns/record", Measured),
        ("core.hotpath.fold_ratio", fold_ratio, "ratio", Count),
        ("state.rmw.ns_per_op", op("state.rmw"), "ns/op", Measured),
        ("state.append.ns_per_op", op("state.append"), "ns/op", Measured),
        ("state.keys", last.keys as f64, "count", Count),
        ("state.resident_bytes", last.resident_bytes as f64, "bytes", Count),
        ("state.combiner.ns_per_fold", op("state.combiner"), "ns/op", Measured),
        ("state.codec.encode_ns_per_entry", op("state.codec.encode"), "ns/entry", Measured),
        ("state.codec.decode_ns_per_entry", op("state.codec.decode"), "ns/entry", Measured),
        ("state.codec.bytes_per_entry", ratio(last.wire_bytes as f64, last.entries as f64), "B/entry", Count),
        ("state.merge.ns_per_entry", op("state.merge"), "ns/entry", Measured),
        ("net.channel.ns_per_msg", chan_ns, "ns/msg", Measured),
        ("net.channel.send_ok_ratio", ratio(last.sends_ok as f64, last.send_attempts as f64), "ratio", Count),
        ("rdma.tx_bytes_per_record", calls.report.net_tx_bytes as f64 / records, "B/record", Modeled),
        ("desim.events", calls.desim.events as f64, "count", Count),
        ("desim.steps", calls.desim.steps as f64, "count", Count),
        ("desim.ns_per_event", ratio(desim_ns, calls.desim.events as f64), "ns/event", Measured),
        ("core.trigger.ns_per_result", op("core.trigger"), "ns/result", Measured),
        ("core.trigger.scan_ns_per_key", op("core.trigger.scan"), "ns/key", Measured),
        ("core.split.overhead_ns_per_record", split_extra_ns / records, "ns/record", Measured),
        ("core.split.splits", splits, "count", Count),
        ("core.split.forwarded_records", forwarded, "count", Count),
        ("core.split.modeled_gain", calls.split_gain, "ratio", Modeled),
        ("exec.wall_ratio", calls.exec_ratio, "ratio", Measured),
        ("obs.overhead_ratio", calls.obs_ratio, "ratio", Measured),
        ("engine.wall_rps", records / calls.engine_secs, "records/s", Measured),
        ("engine.state_updates", m.state_updates as f64, "count", Count),
        ("engine.combiner_folds", m.combiner_folds as f64, "count", Count),
        ("engine.combiner_flushes", m.combiner_flushes as f64, "count", Count),
        ("engine.instructions", m.instructions as f64, "count", Modeled),
        ("engine.modeled_ns.retiring", m.ns_of(CostCategory::Retiring) / records, "ns/record", Modeled),
        ("engine.modeled_ns.memory", m.ns_of(CostCategory::MemoryBound) / records, "ns/record", Modeled),
        ("engine.modeled_ns.core", m.ns_of(CostCategory::CoreBound) / records, "ns/record", Modeled),
    ];
    let notes = [
        (
            "core.hotpath.fold_ratio",
            format!(
                "{} folds, {} flushes",
                last.combiner_folds, last.combiner_flushes
            ),
        ),
        (
            "state.codec.bytes_per_entry",
            format!("{} entries", last.entries),
        ),
        (
            "net.channel.send_ok_ratio",
            format!("{} of {} sends accepted", last.sends_ok, last.send_attempts),
        ),
        (
            "exec.wall_ratio",
            format!("{} threads on {cpus} cpus", cx.cfg.nodes),
        ),
    ];
    let mut ms: Vec<Metric> = rows
        .into_iter()
        .map(|(name, value, unit, kind)| {
            let note = notes.iter().find(|n| n.0 == name).map(|n| n.1.clone());
            metric(name, value, unit, kind).with_note(note.unwrap_or_default())
        })
        .collect();
    // Calibration drift: measured ns per operation ÷ the cost-model
    // constant that claims to describe it.
    for (layer, constant, model_ns) in model_constants(&cx.cfg.cost) {
        let measured = match layer {
            "net.channel" => chan_ns,
            "core.split" => ratio(split_extra_ns, forwarded),
            _ => op(layer),
        };
        ms.push(
            metric(
                &format!("{layer}.drift"),
                ratio(measured, model_ns),
                "ratio",
                Measured,
            )
            .with_note(format!("model {constant} = {model_ns} ns")),
        );
    }
    let covered = ratio(clean.covering_ns(), calls.engine_secs * 1e9);
    let (traced, untraced) = (clean.wall_ns.len(), reps.untraced_ns.len());
    ms.extend([
        metric("trace.unexplained_share", 1.0 - covered, "ratio", Measured)
            .with_note(format!("engine run {:.1} ms", calls.engine_secs * 1e3)),
        metric(
            "trace.overhead_ratio",
            ratio(median(&clean.wall_ns), median(&reps.untraced_ns)),
            "ratio",
            Measured,
        )
        .with_note(format!("{traced} traced and {untraced} untraced replays")),
        metric(
            "trace.plant.attributed_share",
            reps.attributed,
            "ratio",
            Measured,
        )
        .with_note(format!(
            "planted {:.0} µs in {}; flagged {}",
            reps.planted_ns / 1e3,
            reps.plant_layer,
            reps.flagged
        )),
        metric(
            "result_mismatch_ratio",
            ratio(outcome.failed as f64, outcome.attempted as f64),
            "ratio",
            Measured,
        ),
    ]);
    ms
}

/// The traced run of `spec`: engine root spans, then replays until
/// `seconds` have passed since the start.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let budget = Instant::now();
    let mut outcome = Outcome::default();
    let mut tr = Tracer::new();
    let set = setup(spec, seed, &mut tr);
    let w = &set.w;
    let oracle = Oracle::fold_with_survivors(spec.query, w);
    if let Err(e) = oracle.self_test() {
        outcome.errors.push(format!("oracle self-test: {e}"));
    }
    let mut cx = Ctx {
        spec,
        w,
        oracle: &oracle,
        plan: Rc::new(w.plan.clone()),
        cfg: spec.run_config(),
        placed: Vec::new(),
    };
    let calls = engine_calls(&cx, &mut tr, &mut outcome);
    let mut split_keys: Vec<u64> = calls
        .split_rep
        .iter()
        .flat_map(|r| r.splits.iter().map(|s| s.0))
        .collect();
    split_keys.sort_unstable();
    cx.placed = place(&oracle, &split_keys, spec.nodes);

    let plant_layer = COVERING[(seed % COVERING.len() as u64) as usize];
    let reps = replays(&cx, &mut tr, &mut outcome, plant_layer, budget, seconds);
    if reps.flagged != plant_layer {
        outcome.errors.push(format!(
            "planted {:.0} µs in {plant_layer}, but the report flags {}",
            reps.planted_ns / 1e3,
            reps.flagged
        ));
    }
    outcome.metrics = layer_metrics(&cx, &calls, &reps, &set.secs, &outcome);
    write_spans(&tr, spec, seed, &model_constants(&cx.cfg.cost));
    outcome
}

/// Write the spans under `slashbench/out/` (relative to the working
/// directory, the checkout root). A failed write is reported on stderr
/// and does not fail the run.
fn write_spans(tr: &Tracer, spec: &Spec, seed: u64, models: &[(&str, &str, f64)]) {
    let dir = std::path::Path::new("slashbench").join("out");
    let path = dir.join(format!("spans-{}.json", spec.name));
    let res = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.to_json(spec, seed, models)));
    match res {
        Ok(()) => println!("spans: {} ({} spans)", path.display(), tr.spans.len()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
