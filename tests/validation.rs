//! Validation tests: the fingerprint pre-check must be *sound* (a reject
//! proves the exact overlap test is false), and the engine's verdicts must
//! be exactly those a scan of every earlier committed writer would reach —
//! checked on real workloads by the isolation sanitizer.
//!
//! Cases are generated from a fixed-seed SplitMix64 stream (the workspace
//! builds offline, without `proptest`), so every run exercises exactly the
//! same sets; a failure names the case index for replay.

use alter::analyze::{sanitize, SanitizeConfig};
use alter::heap::{AccessSet, ObjId};
use alter::infer::{InferTarget, Model, Probe};
use alter::trace::{Event, Recorder, RingRecorder};
use alter::workloads::{genome::Genome, kmeans::KMeans, Scale};
use std::sync::Arc;

/// Minimal SplitMix64 for deterministic case generation.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    fn below(&mut self, bound: u32) -> u32 {
        (self.next_u64() % u64::from(bound)) as u32
    }
}

/// A random access set: a handful of word ranges over a few objects. The
/// geometry (few objects, 1024-word extents, 64-word fingerprint blocks)
/// makes both rejects and genuine overlaps common, so the property is
/// exercised on both sides.
fn random_set(rng: &mut Rng) -> AccessSet {
    let mut set = AccessSet::new();
    for _ in 0..1 + rng.below(6) {
        let id = ObjId::from_index(rng.below(8));
        let lo = rng.below(1024);
        let hi = lo + 1 + rng.below(96);
        set.insert(id, lo, hi);
    }
    set
}

/// Soundness: a fingerprint reject proves the exact merge-scan would find
/// no overlap — never the other way around. Equivalently: every real
/// overlap is a fingerprint hit (the filter is one-sided, false positives
/// only).
#[test]
fn fingerprint_reject_implies_exact_disjointness() {
    let mut rng = Rng(0x0005_eeda_11e5);
    let (mut rejects, mut overlaps) = (0u32, 0u32);
    for case in 0..2000 {
        let a = random_set(&mut rng);
        let b = random_set(&mut rng);
        if !a.may_overlap(&b) {
            rejects += 1;
            assert!(
                !a.overlaps(&b),
                "case {case}: fingerprint rejected a genuinely overlapping pair"
            );
        }
        if a.overlaps(&b) {
            overlaps += 1;
            assert!(
                a.may_overlap(&b),
                "case {case}: overlapping pair escaped the fingerprint"
            );
        }
    }
    // Make sure the generator exercised both sides of the property.
    assert!(rejects > 100, "only {rejects} rejects — geometry too dense");
    assert!(
        overlaps > 100,
        "only {overlaps} overlaps — geometry too sparse"
    );
}

/// Clearing a set must clear its fingerprint too, or recycled pool buffers
/// would poison later pre-checks with stale bits.
#[test]
fn cleared_sets_never_fingerprint_hit() {
    let mut rng = Rng(0x000c_1ea7);
    for _ in 0..200 {
        let mut a = random_set(&mut rng);
        let b = random_set(&mut rng);
        a.clear();
        assert!(!a.may_overlap(&b), "an empty set intersects nothing");
        assert!(!a.overlaps(&b));
    }
}

/// The verdict oracle: Genome and K-means at N=8 under `StaleReads` and
/// `OutOfOrder`, recorded with full task sets on the worker pool, pass the
/// isolation sanitizer — which recomputes every `validate_ok` /
/// `validate_conflict` verdict and its `(kind, obj, word, winner)`
/// attribution from the recorded sets by scanning each earlier committed
/// writer. The engine reached those verdicts through the fingerprint
/// pre-check and one scan of the merged round write-set, so agreement here
/// is what shows the shortcut is invisible.
#[test]
fn sanitizer_confirms_fingerprinted_verdicts_at_eight_workers() {
    let genome = Genome::new(Scale::Inference);
    let kmeans = KMeans::new(Scale::Inference);
    let benches: [(&str, &dyn InferTarget); 2] = [("genome", &genome), ("k-means", &kmeans)];
    let mut conflicts = 0;
    for (name, bench) in benches {
        for model in [Model::StaleReads, Model::OutOfOrder] {
            let rec = Arc::new(RingRecorder::new(1 << 21));
            let mut probe = Probe::new(model, 8, 16);
            probe.threaded = true;
            probe.record_sets = true;
            probe.recorder = Some(rec.clone() as Arc<dyn Recorder>);
            let run = bench.run_probe(&probe).expect("probe must complete");
            assert_eq!(rec.dropped(), 0, "{name}/{model}: ring must hold the trace");
            assert!(
                run.stats.fingerprint_hits + run.stats.fingerprint_rejects > 0,
                "{name}/{model}: validations must go through the fingerprints"
            );
            let events = rec.events();
            conflicts += events
                .iter()
                .filter(|e| matches!(e, Event::ValidateConflict { .. }))
                .count();
            let params = model.exec_params(probe.workers, probe.chunk);
            let violations = sanitize(
                &events,
                &SanitizeConfig {
                    conflict: params.conflict,
                    order: params.order,
                },
            );
            assert!(
                violations.is_empty(),
                "{name}/{model}: {} violation(s), first: {}",
                violations.len(),
                violations[0]
            );
        }
    }
    assert!(
        conflicts > 0,
        "some verdict must name a winner to attribute"
    );
}
