//! Property tests for the disk-backed visited store: the delta-compressed
//! run encoder round-trips arbitrary sorted key batches, and exploration
//! reports are invariant under any memory budget (spilling moves keys and
//! nodes between tiers, never changes answers).

use shm_explore::spill::{
    block_contains, decode_block_into, CompressedKeySet, Key, Prefilter, RunEncoder,
};
use shm_explore::store::VisitedStore;
use shm_explore::{check, Bounds, ScenarioSpec};
use shm_sim::rng::mix64;
use shm_sim::CostModel;
use signaling::algorithms::{Broadcast, SeededBuggy, SingleWaiter};
use signaling::SignalingAlgorithm;

/// A batch of `n` random keys (sorted, deduped) from a splitmix64 stream.
/// Mixes full-range fingerprints with clustered ones so both large and
/// tiny deltas appear, plus adversarial word patterns in the tail words.
fn random_sorted_keys(seed: u64, n: usize) -> Vec<Key> {
    let mut keys: Vec<Key> = (0..n as u64)
        .map(|i| {
            let a = mix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let b = mix64(a);
            let fp = if i % 4 == 0 {
                // Clustered: tiny fingerprint deltas.
                u128::from(seed % 1000) << 64 | u128::from(b % 512)
            } else {
                u128::from(a) << 64 | u128::from(b)
            };
            (fp, mix64(b) % 8, mix64(b ^ 1), u64::MAX - a % 3)
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

#[test]
fn run_encoder_round_trips_random_sorted_batches() {
    for (case, &(seed, n)) in [
        (1u64, 0usize),
        (2, 1),
        (3, 100),
        (5, 255),
        (7, 256),
        (11, 257),
        (13, 2048),
        (17, 10_000),
    ]
    .iter()
    .enumerate()
    {
        let keys = random_sorted_keys(seed, n);
        let set = CompressedKeySet::from_sorted(&keys);
        assert_eq!(set.len(), keys.len() as u64, "case {case}");
        let mut decoded = Vec::new();
        set.decode_into(&mut decoded);
        assert_eq!(decoded, keys, "case {case}: decode round-trip");
        for k in &keys {
            assert!(set.contains(k), "case {case}: present key {k:?}");
        }
        // Perturbed keys must be absent (unless the perturbation lands on a
        // real key, which the sorted batch rules out for the ctx-word flip).
        for k in keys.iter().step_by(7) {
            let absent = (k.0, k.1, k.2 ^ 0x8000_0000_0000_0000, k.3);
            assert!(!set.contains(&absent), "case {case}: absent key");
        }
    }
}

/// Encodes `keys` (strictly ascending) as one run and returns each block's
/// bytes with its key count.
fn encode_blocks(keys: &[Key]) -> Vec<(Vec<u8>, u32)> {
    let mut enc = RunEncoder::new();
    for &k in keys {
        enc.push(k);
    }
    let (bytes, fences, _, total) = enc.finish();
    assert_eq!(bytes.len() as u64, total, "nothing drained");
    fences
        .iter()
        .map(|f| {
            let start = f.offset as usize;
            (bytes[start..start + f.len as usize].to_vec(), f.count)
        })
        .collect()
}

/// The u128 varint at its chunk and width boundaries, both as a block's
/// absolute first fingerprint and as a delta from a zero predecessor.
#[test]
fn u128_varint_round_trips_at_width_boundaries() {
    for v in [0u128, (1 << 63) - 1, 1 << 63, 1 << 126, 1 << 127, u128::MAX] {
        let mut decoded = Vec::new();
        for (block, count) in encode_blocks(&[(v, 1, 2, 3)]) {
            decode_block_into(&block, count, &mut decoded);
        }
        assert_eq!(decoded, vec![(v, 1, 2, 3)], "absolute {v:#x}");
        if v > 0 {
            let keys = [(0, 0, 0, 0), (v, u64::MAX, 0, 1)];
            decoded.clear();
            for (block, count) in encode_blocks(&keys) {
                decode_block_into(&block, count, &mut decoded);
            }
            assert_eq!(decoded, keys, "delta {v:#x}");
        }
    }
}

/// The early-exit membership scan must agree with a full decode, including
/// on blocks whose fingerprint deltas take all 19 varint groups (≥ 2^126)
/// and on uniform random fingerprints (~17-byte deltas).
#[test]
fn block_contains_agrees_with_decode_on_wide_deltas() {
    let wide: Vec<Key> = vec![
        (0, 0, 0, 0),
        (0, 1, 0, 0),
        (1 << 126, 0, 5, 0),
        (1 << 127, 3, 0, 9),
        ((1 << 127) + (1 << 126), 0, 0, 0),
        ((1 << 127) + (1 << 126), 0, 0, 1),
        (u128::MAX, u64::MAX, u64::MAX, u64::MAX),
    ];
    let mut x = 0x5EED_u64;
    let mut random: Vec<Key> = (0..600)
        .map(|i| {
            x = mix64(x);
            let fp = u128::from(x) << 64 | u128::from(mix64(x ^ 1));
            (fp, i % 3, 0, x % 5)
        })
        .collect();
    random.sort_unstable();
    random.dedup();
    for keys in [wide, random] {
        for (block, count) in encode_blocks(&keys) {
            let mut decoded = Vec::new();
            decode_block_into(&block, count, &mut decoded);
            assert_eq!(decoded.len(), count as usize);
            for k in &decoded {
                assert!(block_contains(&block, count, k), "present {k:?}");
                for probe in [
                    (k.0.wrapping_add(1), k.1, k.2, k.3),
                    (k.0.wrapping_sub(1), k.1, k.2, k.3),
                    (k.0, k.1 ^ 1, k.2, k.3),
                    (k.0, k.1, k.2 ^ 1, k.3),
                    (k.0, k.1, k.2, k.3 ^ 1),
                ] {
                    assert_eq!(
                        block_contains(&block, count, &probe),
                        decoded.contains(&probe),
                        "probe {probe:?}"
                    );
                }
            }
        }
    }
}

/// The prefilter hashes the whole key: keys sharing a fingerprint but
/// differing in sleep set, bound word or context are each present, and
/// the filter's size depends only on the requested capacity.
#[test]
fn prefilter_has_no_false_negatives_across_trailing_words() {
    let fps = [0u128, 1, 1 << 127, u128::MAX, 0x0123_4567_89AB_CDEF << 40];
    let keys: Vec<Key> = fps
        .iter()
        .flat_map(|&fp| (0..64u64).map(move |i| (fp, i % 8, (i / 8) % 4 * (1 << 32), mix64(i) % 5)))
        .collect();
    let mut filter = Prefilter::with_capacity(keys.len());
    for k in &keys {
        filter.insert(k);
    }
    for k in &keys {
        assert!(filter.maybe_contains(k), "false negative for {k:?}");
    }
    // Sized at ~8 bits per key, rounded up to a power of two, ≥ 512 bits;
    // the visited store's logical byte accounting depends on these sizes.
    for (capacity, bytes) in [
        (0, 64),
        (64, 64),
        (65, 128),
        (1000, 1024),
        (4096, 4096),
        (1 << 20, 1 << 20),
    ] {
        assert_eq!(
            Prefilter::with_capacity(capacity).resident_bytes(),
            bytes,
            "capacity {capacity}"
        );
    }
}

#[test]
fn budgeted_store_agrees_with_reference_on_random_streams() {
    // Random insert stream with repeats; a tiny budget forces flushes and
    // log-structured merges while answers must track a plain set exactly.
    let mut store = VisitedStore::new(Some(4096), None);
    let mut reference = std::collections::HashSet::new();
    let mut x = 0xD15C_BAC6u64;
    for _ in 0..20_000 {
        x = mix64(x);
        // Small key universe → plenty of duplicate hits in every tier.
        let v = x % 3000;
        let key: Key = (u128::from(v) << 96 | u128::from(mix64(v)), v % 4, 0, v % 9);
        assert_eq!(
            store.insert(key, Vec::new) == shm_explore::store::Lookup::New,
            reference.insert(key),
        );
    }
    assert_eq!(store.len(), reference.len() as u64);
    assert!(store.spilled_bytes() > 0, "budget must have forced spills");
}

fn scenario<'a>(algo: &'a dyn SignalingAlgorithm, waiters: usize) -> ScenarioSpec<'a> {
    ScenarioSpec {
        algorithm: algo,
        waiters,
        max_polls: 1,
        signaler_polls_first: 1,
        model: CostModel::Dsm,
        seed: None,
    }
}

/// The whole point of the store: a forcing budget must not change a single
/// count, verdict, maximum, or schedule — only the memory-trajectory
/// fields. Exercises both spill paths (visited runs and packed frontier
/// nodes: at 8 KiB the frontier ring holds 4 nodes < the 64-node target).
#[test]
fn explore_reports_are_invariant_under_forced_spilling() {
    let algos: Vec<Box<dyn SignalingAlgorithm>> = vec![
        Box::new(Broadcast),
        Box::new(SingleWaiter),
        Box::new(SeededBuggy::new(2)),
    ];
    for algo in &algos {
        let s = scenario(algo.as_ref(), 2);
        let unspilled = check(&s, &Bounds::exhaustive());
        let spilled = check(
            &s,
            &Bounds {
                mem_budget: Some(8 * 1024),
                ..Bounds::exhaustive()
            },
        );
        // Tiny spaces can fit under the hot-tier floors (64 keys / 4
        // nodes) even at a forcing budget; single-waiter at n = 3 (~19k
        // states) cannot.
        if algo.name() == "single-waiter" {
            assert!(
                spilled.report.spilled_bytes > 0,
                "{}: 8 KiB must force spilling",
                algo.name()
            );
        }
        let logical = |o: &shm_explore::CheckOutcome| {
            let r = &o.report;
            (
                r.explored,
                r.deduped,
                r.sleep_pruned,
                r.bound_pruned,
                r.terminals,
                r.violations_found,
                r.violations_in_contract,
                r.exhaustive,
                r.frontier,
                r.max_objective
                    .as_ref()
                    .map(|m| (m.value, m.schedule.clone())),
                o.counterexample.as_ref().map(|c| c.schedule.clone()),
            )
        };
        assert_eq!(
            logical(&unspilled),
            logical(&spilled),
            "{}: spilling changed an answer",
            algo.name()
        );
    }
}
