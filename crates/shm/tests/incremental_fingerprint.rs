//! The incremental state fingerprint equals the reference full fold
//! (`state_fingerprint`, i.e. `fingerprint_words(&state_words())`) after
//! every operation of seeded random walks that mix stepping, checkpoint
//! snapshot/restore, cloning, crashes, call injection and certified
//! erasure — under DSM and every CC configuration.

use shm_sim::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Every cost model: DSM plus the twelve CC configurations.
fn all_models() -> Vec<CostModel> {
    let mut models = vec![CostModel::Dsm];
    for protocol in [Protocol::WriteThrough, Protocol::WriteBack] {
        for lfcu in [false, true] {
            for interconnect in [
                Interconnect::Bus,
                Interconnect::IdealDirectory,
                Interconnect::StatelessBroadcast,
            ] {
                models.push(CostModel::Cc(CcConfig {
                    protocol,
                    lfcu,
                    interconnect,
                }));
            }
        }
    }
    models
}

/// Four processes running seeded random op sequences over shared and
/// per-process cells. Every value a process stores carries its pid in the
/// high bits, and there is no test-and-set (which stores a bare 1), so a
/// survivor can never read a value an erased process wrote without its
/// result changing — the premise under which certified erasure's surgery
/// and replay paths record identical histories.
fn random_spec(seed: u64, model: CostModel) -> SimSpec {
    const N: usize = 4;
    let mut rng = XorShift64::new(seed);
    let mut layout = MemLayout::new();
    let mut cells: Vec<Addr> = (0..3).map(|v| layout.alloc_global(v)).collect();
    cells.extend((0..N).map(|i| layout.alloc_local(ProcId(i as u32), 0)));
    let sources = (0..N as u64)
        .map(|pid| {
            let calls = (0..rng.range_usize(2, 6))
                .map(|k| {
                    let ops: Vec<Op> = (0..rng.range_usize(1, 5))
                        .map(|_| {
                            let a = *rng.choose(&cells);
                            let small = rng.below(4);
                            let mine = (pid + 1) << 32 | rng.below(4);
                            match rng.below(7) {
                                0 => Op::Read(a),
                                1 => Op::Write(a, mine),
                                2 => Op::Cas(a, small, mine),
                                3 => Op::Ll(a),
                                4 => Op::Sc(a, mine),
                                5 => Op::Faa(a, 1),
                                _ => Op::Fas(a, mine),
                            }
                        })
                        .collect();
                    ScriptedCall::new(
                        CallKind(k as u32),
                        "walk",
                        Arc::new(move || {
                            Box::new(OpSequence::new(ops.clone())) as Box<dyn ProcedureCall>
                        }),
                    )
                })
                .collect();
            Box::new(Script::new(calls)) as Box<dyn CallSource>
        })
        .collect();
    SimSpec {
        layout,
        sources,
        model,
    }
}

fn assert_fresh(sim: &mut Simulator, what: &str) {
    let full = sim.state_fingerprint();
    assert_eq!(sim.incremental_fingerprint(), full, "after {what}");
}

/// One seeded walk of `ops` random operations. The fingerprint is compared
/// after about half of them, so stale blocks also accumulate across
/// several mutations (and across snapshots) before being read. Tallies
/// each operation that took effect into `seen`.
fn walk(model: CostModel, seed: u64, ops: usize, seen: &mut BTreeMap<&'static str, u64>) {
    let spec = random_spec(seed, model);
    let n = spec.n();
    let mut rng = XorShift64::new(seed ^ 0xF1F0);
    let mut sim = Simulator::new(&spec);
    if seed % 2 == 0 {
        sim.enable_checkpoints(3);
    }
    // Checkpoints of the current execution's prefixes, oldest first.
    let mut stack: Vec<Checkpoint> = Vec::new();
    let mut pool: Vec<Checkpoint> = Vec::new();
    // Certified erasure re-executes the recorded schedule, which does not
    // record crashes, so a walk erases only until its first crash.
    let mut crashed = false;
    for _ in 0..ops {
        let pid = ProcId(rng.below(n as u64) as u32);
        let what = match rng.below(20) {
            0..=9 => {
                let _ = sim.step(pid);
                "step"
            }
            10 | 11 => {
                stack.push(sim.snapshot_reuse(pool.pop()));
                "snapshot"
            }
            12 | 13 if !stack.is_empty() => {
                let i = rng.below(stack.len() as u64) as usize;
                sim.restore(&stack[i]);
                pool.extend(stack.drain(i + 1..));
                "restore"
            }
            14 => {
                // Continue on a clone; the original must stay consistent
                // while the clone diverges.
                let mut original = sim.clone();
                let _ = sim.step(pid);
                assert_fresh(&mut original, "clone (original)");
                "clone"
            }
            15 => {
                sim.crash(pid);
                crashed = true;
                "crash"
            }
            16 | 17 if !sim.has_pending_call(pid) && sim.status(pid) != Status::Crashed => {
                let a = Addr(rng.below(spec.layout.len() as u64) as u32);
                sim.inject_call(
                    pid,
                    Call::new(
                        CallKind(99),
                        "injected",
                        Box::new(OpSequence::new(vec![Op::Faa(a, 1), Op::Read(a)])),
                    ),
                );
                "inject_call"
            }
            18 if !crashed => {
                if !sim.erase_certified_in_place(&spec, &BTreeSet::from([pid])) {
                    continue;
                }
                // The erasure rewrote the execution; older snapshots no
                // longer describe its prefixes.
                pool.append(&mut stack);
                "erase_certified_in_place"
            }
            _ => continue,
        };
        *seen.entry(what).or_default() += 1;
        if rng.chance(1, 2) {
            assert_fresh(&mut sim, what);
        }
    }
    assert_fresh(&mut sim, "the walk");
}

#[test]
fn incremental_fingerprint_matches_full_fold_on_random_walks() {
    for model in all_models() {
        let mut seen = BTreeMap::new();
        for seed in 1..=6 {
            walk(model, seed * 0x9E37 + 1, 400, &mut seen);
        }
        assert_eq!(
            seen.keys().copied().collect::<Vec<_>>(),
            [
                "clone",
                "crash",
                "erase_certified_in_place",
                "inject_call",
                "restore",
                "snapshot",
                "step"
            ],
            "{}: every operation must occur",
            model_tag(model)
        );
    }
}
