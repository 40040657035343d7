//! Property test of the incremental window trigger's two building blocks:
//! the partition's lower bound on live window ids
//! ([`Partition::min_window`]) and the one-pass drain
//! ([`Partition::drain_ready`]). Random interleavings of every state
//! mutation — RMW, merges, appends, removes, epoch closes, snapshot
//! restores — and drains under arbitrary (also non-monotone) predicates
//! run against a `BTreeMap` reference model. After every step the bound
//! must not exceed the smallest live window id; every drain must return
//! exactly the model's ready entries and leave the bound exact.
//! Schedules come from seeded `DetRng` loops, so a failure reproduces
//! from its seed.

use std::collections::BTreeMap;

use slash_desim::DetRng;
use slash_state::descriptor::appended_descriptor;
use slash_state::{
    pack_key, restore, snapshot_chunks, unpack_key, CounterCrdt, DrainedValue, Partition,
    StateDescriptor, StateKey, WriteCombiner,
};

/// A model value: a counter (fixed state) or an element multiset
/// (holistic state, kept sorted so restores, which rebuild chains in
/// snapshot order, compare equal).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Count(u64),
    Elems(Vec<Vec<u8>>),
}

type Model = BTreeMap<StateKey, Value>;

/// A key from a small space (so keys collide and chains grow), with the
/// occasional window id near the top of the range.
fn draw_key(rng: &mut DetRng) -> StateKey {
    let wid = match rng.next_below(10) {
        0 => u64::MAX - rng.next_below(3),
        _ => rng.next_below(12),
    };
    pack_key(wid, rng.next_below(6))
}

fn draw_elem(rng: &mut DetRng) -> Vec<u8> {
    rng.next_u64().to_le_bytes()[..4].to_vec()
}

/// An arbitrary drain predicate over window ids: thresholds in both
/// directions, residues, and random bitmasks.
fn draw_predicate(rng: &mut DetRng) -> Box<dyn Fn(u64) -> bool> {
    let t = rng.next_below(14);
    let m = 1 + rng.next_below(4);
    let mask = rng.next_u64();
    match rng.next_below(5) {
        0 => Box::new(move |wid| wid <= t),
        1 => Box::new(move |wid| wid >= t),
        2 => Box::new(move |wid| wid % m == t % m),
        3 => Box::new(move |wid| (mask >> (wid % 64)) & 1 == 1),
        _ => Box::new(|_| true),
    }
}

fn add(model: &mut Model, key: StateKey, amount: u64) {
    match model.entry(key).or_insert(Value::Count(0)) {
        Value::Count(c) => *c += amount,
        Value::Elems(_) => unreachable!("fixed op on holistic model"),
    }
}

fn push(model: &mut Model, key: StateKey, elem: &[u8]) {
    match model.entry(key).or_insert(Value::Elems(Vec::new())) {
        Value::Elems(v) => {
            v.push(elem.to_vec());
            v.sort();
        }
        Value::Count(_) => unreachable!("holistic op on fixed model"),
    }
}

fn min_live(model: &Model) -> u64 {
    model.keys().map(|&k| unpack_key(k).0).min().unwrap_or(u64::MAX)
}

/// One mutation on fixed-size (counter) state.
fn fixed_step(rng: &mut DetRng, p: &mut Partition, model: &mut Model) {
    match rng.next_below(3) {
        0 => {
            let (key, amount) = (draw_key(rng), 1 + rng.next_below(9));
            p.rmw(key, |v| CounterCrdt::add(v, amount));
            add(model, key, amount);
        }
        1 => {
            let (key, amount) = (draw_key(rng), 1 + rng.next_below(9));
            p.merge_fixed(key, &amount.to_le_bytes());
            add(model, key, amount);
        }
        _ => {
            let mut comb = WriteCombiner::new(CounterCrdt::descriptor(), 16);
            for _ in 0..1 + rng.next_below(8) {
                let (key, amount) = (draw_key(rng), 1 + rng.next_below(9));
                if comb.fold(key, |v| CounterCrdt::add(v, amount)) {
                    add(model, key, amount);
                }
            }
            let sel: Vec<u32> = (0..comb.len() as u32).collect();
            p.merge_batch(&comb, &sel);
        }
    }
}

/// One mutation on holistic (appended) state.
fn appended_step(rng: &mut DetRng, p: &mut Partition, model: &mut Model) {
    if rng.next_below(2) == 0 {
        let (key, elem) = (draw_key(rng), draw_elem(rng));
        p.append(key, &elem);
        push(model, key, &elem);
    } else {
        let mut keys = Vec::new();
        let mut elems = Vec::new();
        for _ in 0..1 + rng.next_below(8) {
            let (key, elem) = (draw_key(rng), draw_elem(rng));
            push(model, key, &elem);
            keys.push(key);
            elems.extend_from_slice(&elem);
        }
        p.append_batch(&keys, &elems, 4);
    }
}

/// Drain under a random predicate and check the drained entries and the
/// bound left behind against the model.
fn drain_step(rng: &mut DetRng, p: &mut Partition, model: &mut Model, ctx: &str) {
    let ready = draw_predicate(rng);
    let mut got: Model = BTreeMap::new();
    let n = p.drain_ready(&ready, |key, value| {
        let v = match value {
            DrainedValue::Fixed(v) => Value::Count(CounterCrdt::get(v)),
            DrainedValue::Elements(elems) => {
                let mut v: Vec<Vec<u8>> = elems.map(<[u8]>::to_vec).collect();
                v.sort();
                Value::Elems(v)
            }
        };
        assert!(got.insert(key, v).is_none(), "{ctx}: key {key:#x} drained twice");
    });
    let want: Model = model
        .iter()
        .filter(|(&k, _)| ready(unpack_key(k).0))
        .map(|(&k, v)| (k, v.clone()))
        .collect();
    assert_eq!(n, want.len(), "{ctx}: drain count");
    assert_eq!(got, want, "{ctx}: drained entries");
    model.retain(|&k, _| !ready(unpack_key(k).0));
    assert_eq!(p.min_window(), min_live(model), "{ctx}: bound after a drain is exact");
}

fn run(seed: u64, desc: StateDescriptor, steps: usize) {
    let mut rng = DetRng::new(seed);
    let appended = desc.is_appended();
    let mut p = Partition::with_segment_size(0, desc, 256);
    let mut model: Model = BTreeMap::new();
    for step in 0..steps {
        let ctx = format!("seed {seed} step {step}");
        match rng.next_below(12) {
            0..=5 if appended => appended_step(&mut rng, &mut p, &mut model),
            0..=5 => fixed_step(&mut rng, &mut p, &mut model),
            6 => {
                let key = draw_key(&mut rng);
                assert_eq!(p.remove(key), model.remove(&key).is_some(), "{ctx}: remove");
            }
            7 => {
                p.close_epoch(|_, _| {});
                model.clear();
            }
            8 => {
                // What `SsbNode::restore_primary` does to a leader.
                p = restore(0, desc, &snapshot_chunks(&p, 0, 512)).0;
            }
            _ => drain_step(&mut rng, &mut p, &mut model, &ctx),
        }
        assert!(
            p.min_window() <= min_live(&model),
            "{ctx}: bound {} above the smallest live window {}",
            p.min_window(),
            min_live(&model)
        );
        assert_eq!(p.key_count(), model.len(), "{ctx}: live keys");
    }
    // Whatever is left drains completely, and the bound resets.
    assert_eq!(p.drain_ready(|_| true, |_, _| {}), model.len());
    assert_eq!((p.key_count(), p.min_window()), (0, u64::MAX));
}

#[test]
fn fixed_state_bound_and_drain_match_the_model() {
    for seed in 0..64 {
        run(seed, CounterCrdt::descriptor(), 400);
    }
}

#[test]
fn appended_state_bound_and_drain_match_the_model() {
    for seed in 0..64 {
        run(0xA99E_0000 + seed, appended_descriptor(), 400);
    }
}
