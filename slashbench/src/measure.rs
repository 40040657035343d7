//! The end-to-end run: set-up, then timed engine runs until the time
//! budget is spent, each checked against the oracle after its timer
//! stops.
//!
//! The host's speed drifts: on a shared two-core machine the same engine
//! run took 180–280 ms within one minute, and the medians of whole
//! 10-second runs spread by an IQR of 12–31 % of their median. So every timed engine run is paired
//! with a run of a fixed reference computation on the same input — the
//! benchmark's own sequential oracle fold — and `wall_vs_fold` reports
//! the engine's wall time as a multiple of the reference's. A faster
//! engine lowers it in proportion; a slower host moves both sides. The
//! raw rate is printed beside it and reported by the traced run.
//!
//! Set-up is timed the same way: each set-up is followed by a reference
//! fold of its input, and `setup_s` is the median set-up ÷ reference
//! ratio turned back into seconds with the reference's nominal speed
//! ([`Spec::fold_ns_per_record`]). In raw seconds the same set-up's
//! median moved by 27 % between batches of runs as the host's speed
//! changed.

use std::time::Instant;

use slash_obs::Obs;
use slash_workloads::Workload;

use crate::oracle::Oracle;
use crate::report::{metric, Kind, Outcome};
use crate::stats::{median, peak_rss_mib};
use crate::trace::Tracer;
use crate::workload::Spec;

/// Set-ups per run; `setup_s` is derived from their median.
const SETUP_REPS: usize = 31;
/// Timed engine runs per invocation, at least, however short the budget.
const MIN_RUNS: usize = 5;

/// What set-up measured.
pub struct Setup {
    /// The last set-up's input.
    pub w: Workload,
    /// Wall seconds of every set-up.
    pub secs: Vec<f64>,
    /// Every set-up's wall time ÷ the mean wall time of the reference
    /// folds run just before and just after it.
    pub vs_fold: Vec<f64>,
}

impl Setup {
    /// `setup_s`: the median set-up ÷ reference ratio times the
    /// workload's nominal reference time (see [`Spec::fold_ns_per_record`]),
    /// i.e. the set-up's wall seconds on a host where the reference fold
    /// runs at its nominal speed.
    pub fn normalised_secs(&self, spec: &Spec) -> f64 {
        median(&self.vs_fold) * spec.fold_ns_per_record * self.w.records as f64 * 1e-9
    }
}

/// Wall seconds of one reference fold of `w`.
pub fn fold_secs(spec: &Spec, w: &Workload) -> f64 {
    let t = Instant::now();
    std::hint::black_box(Oracle::fold(spec.query, w));
    t.elapsed().as_secs_f64()
}

/// Generate the input `SETUP_REPS` times (generator and plan), each
/// set-up followed by a reference fold of its input, and keep the last
/// copy.
pub fn setup(spec: &Spec, seed: u64, tr: &mut Tracer) -> Setup {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut vs_fold = Vec::with_capacity(SETUP_REPS);
    let mut w: Option<Workload> = None;
    let mut fold_before = None;
    for _ in 0..SETUP_REPS {
        // Free the previous copy first so peak memory holds one input.
        drop(w.take());
        let id = tr.open("workloads.gen");
        let t = Instant::now();
        let fresh = std::hint::black_box(spec.generate(seed));
        let gen = t.elapsed().as_secs_f64();
        tr.close(id, fresh.records);
        let fold_after = fold_secs(spec, &fresh);
        let reference = (fold_before.unwrap_or(fold_after) + fold_after) / 2.0;
        secs.push(gen);
        vs_fold.push(gen / reference);
        fold_before = Some(fold_after);
        w = Some(fresh);
    }
    Setup {
        w: w.expect("SETUP_REPS > 0"),
        secs,
        vs_fold,
    }
}

/// Check a run's results against the oracle and its per-node state
/// digests against the reference run's.
pub fn check_run(
    oracle: &Oracle,
    results: &[slash_core::SinkResult],
    digests: &[u64],
    reference: &[u64],
) -> Result<(), String> {
    oracle.check(results)?;
    if digests != reference {
        return Err(format!(
            "state digests {digests:x?} differ from the reference {reference:x?}"
        ));
    }
    Ok(())
}

/// Measure `spec` for `seconds` of timed engine runs.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let set = setup(spec, seed, &mut Tracer::off());
    let w = &set.w;
    let oracle = Oracle::fold(spec.query, w);
    if let Err(e) = oracle.self_test() {
        out.errors.push(format!("oracle self-test: {e}"));
    }

    // Warm-up run: pages in the input, warms the allocator, and fixes
    // the reference state digests every later run must reproduce.
    let (first, _) = spec.run(w, Obs::disabled());
    let reference = first.state_digests.clone();
    out.check("warm-up run", oracle.check(&first.results));
    drop(first);

    let (mut wall_rps, mut vs_fold, mut folds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut modeled_rps, mut drain_us) = (Vec::new(), Vec::new());
    // Each engine run is bracketed by the reference runs just before and
    // just after it; the mean of the two is its host-speed reference.
    let mut fold_before = fold_secs(spec, w);
    let start = Instant::now();
    while wall_rps.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let (r, _) = spec.run(w, Obs::disabled());
        let secs = t.elapsed().as_secs_f64();
        let fold_after = fold_secs(spec, w);
        folds.push(fold_after);
        vs_fold.push(secs / ((fold_before + fold_after) / 2.0));
        fold_before = fold_after;
        let n = wall_rps.len();
        out.check(
            &format!("timed run {n}"),
            check_run(&oracle, &r.results, &r.state_digests, &reference),
        );
        wall_rps.push(r.records as f64 / secs);
        modeled_rps.push(r.throughput());
        drain_us
            .push((r.completion_time.as_nanos() - r.processing_time.as_nanos()) as f64 / 1_000.0);
    }
    let runs = wall_rps.len();
    out.metrics = vec![
        metric("wall_vs_fold", median(&vs_fold), "ratio", Kind::Measured).with_note(format!(
            "median of {runs} runs, {} records each; raw wall_rps {:.0} records/s, fold {:.1} ns/record",
            w.records,
            median(&wall_rps),
            median(&folds) * 1e9 / w.records as f64
        )),
        metric(
            "modeled_rps",
            median(&modeled_rps),
            "records/s",
            Kind::Modeled,
        ),
        metric("modeled_drain_us", median(&drain_us), "us", Kind::Modeled),
        metric("setup_s", set.normalised_secs(spec), "s", Kind::Measured).with_note(format!(
            "median of {SETUP_REPS} set-ups ÷ reference fold = {:.4}; raw median {:.4} ms",
            median(&set.vs_fold),
            median(&set.secs) * 1e3
        )),
        metric("peak_rss_mib", peak_rss_mib(), "MiB", Kind::Measured),
    ];
    out
}
