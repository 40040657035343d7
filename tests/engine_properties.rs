//! Property-based end-to-end tests: random streams, random window sizes,
//! random cluster shapes — the Slash engine must always match a
//! sequential fold (property P2 at engine level), never double-fire a
//! window, and never lose a record. Cases are drawn from seeded `DetRng`
//! loops so the suite runs fully offline and failures reproduce from
//! their seed.

use std::collections::HashMap;
use std::rc::Rc;

use slash::core::{
    AggSpec, QueryPlan, RecordSchema, RunConfig, SinkResult, SlashCluster, StreamDef,
    WindowAssigner,
};
use slash::desim::DetRng;

/// A randomly generated partition: (ts, key) records with strictly
/// monotone timestamps.
fn random_partition(rng: &mut DetRng, max_records: usize) -> Vec<(u64, u64)> {
    let n = 1 + rng.next_below(max_records as u64 - 1) as usize;
    let mut ts = 1 + rng.next_below(99);
    (0..n)
        .map(|_| {
            ts += 1 + rng.next_below(49);
            (ts, rng.next_below(12))
        })
        .collect()
}

fn encode(partition: &[(u64, u64)]) -> Rc<Vec<u8>> {
    let mut buf = Vec::with_capacity(partition.len() * 16);
    for (ts, key) in partition {
        buf.extend_from_slice(&ts.to_le_bytes());
        buf.extend_from_slice(&key.to_le_bytes());
    }
    Rc::new(buf)
}

#[test]
fn random_streams_match_sequential_counts() {
    for seed in 0..24u64 {
        let mut rng = DetRng::new(0xE2E ^ seed.wrapping_mul(0x9E3779B9));
        let n_parts = 2 + rng.next_below(5) as usize;
        let parts: Vec<Vec<(u64, u64)>> =
            (0..n_parts).map(|_| random_partition(&mut rng, 300)).collect();
        let window = 50 + rng.next_below(1950);
        let nodes = 1 + rng.next_below(3) as usize;

        // Shape the partition list to nodes × workers.
        let nodes = nodes.min(parts.len());
        let workers = parts.len() / nodes;
        let parts = &parts[..nodes * workers];

        // Sequential oracle.
        let mut expected: HashMap<(u64, u64), u64> = HashMap::new();
        for p in parts {
            for (ts, key) in p {
                *expected.entry((ts / window, *key)).or_default() += 1;
            }
        }

        let plan = QueryPlan::Aggregate {
            input: StreamDef::new(RecordSchema::plain(16)),
            window: WindowAssigner::Tumbling { size: window },
            agg: AggSpec::Count,
        };
        let mut cfg = RunConfig::new(nodes, workers);
        cfg.collect_results = true;
        cfg.epoch_bytes = 1024; // aggressive epochs
        let report = SlashCluster::run(
            plan,
            parts.iter().map(|p| encode(p)).collect(),
            cfg,
        );

        let mut got: HashMap<(u64, u64), u64> = HashMap::new();
        for r in &report.results {
            if let SinkResult::Agg { window_id, key, value } = r {
                let prev = got.insert((*window_id, *key), *value as u64);
                assert!(
                    prev.is_none(),
                    "double trigger {window_id}/{key}, seed {seed}"
                );
            }
        }
        assert_eq!(got, expected, "seed {seed}");
    }
}

/// Straggler resilience: one worker gets a much longer stream than the
/// others. Watermarks must hold results back until the straggler catches
/// up, and nothing may be lost or double-counted.
#[test]
fn stragglers_delay_but_never_corrupt() {
    for seed in 0..16u64 {
        let mut rng = DetRng::new(0x57A6 ^ seed.wrapping_mul(0x9E3779B9));
        let short_len = 10 + rng.next_below(90) as usize;
        let long_factor = 5 + rng.next_below(15) as usize;
        let window = 100 + rng.next_below(900);

        let short: Vec<(u64, u64)> = (0..short_len)
            .map(|i| (1 + i as u64 * 7, i as u64 % 4))
            .collect();
        let long: Vec<(u64, u64)> = (0..short_len * long_factor)
            .map(|i| (1 + i as u64 * 3, i as u64 % 4))
            .collect();
        let total = (short.len() + long.len()) as u64;

        let plan = QueryPlan::Aggregate {
            input: StreamDef::new(RecordSchema::plain(16)),
            window: WindowAssigner::Tumbling { size: window },
            agg: AggSpec::Count,
        };
        let mut cfg = RunConfig::new(2, 1);
        cfg.collect_results = true;
        cfg.epoch_bytes = 512;
        let report = SlashCluster::run(plan, vec![encode(&short), encode(&long)], cfg);
        let sum: f64 = report
            .results
            .iter()
            .map(|r| match r {
                SinkResult::Agg { value, .. } => *value,
                _ => 0.0,
            })
            .sum();
        assert_eq!(sum as u64, total, "seed {seed}");
    }
}

/// A record for a window that already fired still fires, on the very
/// next trigger step. Late records must lower the leader's bound on its
/// oldest live window, or the trigger would sit on them until the next
/// window closes.
#[test]
fn late_records_fire_on_the_next_trigger_step() {
    // Key 1 lands once in each window [0, 20); right after window 4 has
    // fired (the record at ts 550 carries the watermark past 500), keys
    // 2..=40 arrive for window 0, one per batch.
    let late_keys = 2..=40u64;
    let mut records: Vec<(u64, u64)> = Vec::new();
    for w in 0..20u64 {
        records.push((w * 100 + 50, 1));
        if w == 5 {
            records.extend(late_keys.clone().map(|k| (5, k)));
        }
    }
    let plan = QueryPlan::Aggregate {
        input: StreamDef::new(RecordSchema::plain(16)),
        window: WindowAssigner::Tumbling { size: 100 },
        agg: AggSpec::Count,
    };
    let mut cfg = RunConfig::new(1, 1);
    cfg.collect_results = true;
    cfg.batch_records = 1;
    let report = SlashCluster::run(plan, vec![encode(&records)], cfg);

    let fired: Vec<(u64, u64, u64)> = report
        .results
        .iter()
        .map(|r| match r {
            SinkResult::Agg {
                window_id,
                key,
                value,
            } => (*window_id, *key, *value as u64),
            other => panic!("unexpected result {other:?}"),
        })
        .collect();
    // Every late record fires once, as its own count-1 result.
    let late: Vec<(u64, u64, u64)> = late_keys.map(|k| (0, k, 1)).collect();
    let mut expected: Vec<(u64, u64, u64)> = (0..20).map(|w| (w, 1, 1)).collect();
    expected.extend(&late);
    let mut sorted = fired.clone();
    sorted.sort_unstable();
    expected.sort_unstable();
    assert_eq!(sorted, expected);
    // Each fires in the step that ingests it: after window 4, in arrival
    // order, and before window 5 closes.
    let pos = |r: (u64, u64, u64)| fired.iter().position(|&x| x == r).unwrap();
    let late_pos: Vec<usize> = late.iter().map(|&r| pos(r)).collect();
    assert!(late_pos.windows(2).all(|p| p[0] < p[1]), "late results out of arrival order");
    assert!(pos((4, 1, 1)) < late_pos[0]);
    assert!(late_pos[late_pos.len() - 1] < pos((5, 1, 1)));
}
