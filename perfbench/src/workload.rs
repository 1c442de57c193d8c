//! The inputs of each workload, generated from the workload seed. The
//! program only ever sees the manifest texts built here.

use shm_scenario::Manifest;

/// Pool threads for the in-process workloads (the host has 2 cores).
pub const THREADS: u32 = 2;
/// The E9 deep row's exploration budget: small enough that the visited
/// store and frontier spill to disk.
pub const DEEP_MEM_BUDGET: u64 = 1 << 20;
/// How many E10 seeds the workload seed chooses among (each has a
/// reference result).
pub const E10_SEED_CHOICES: u64 = 8;
const E10_BASE_SEED: u64 = 0xE10;

const SCHEMA: &str = "\"schema\":\"cc-dsm/manifest/v1\"";

fn manifest(body: &str) -> String {
    format!("{{{SCHEMA},{body}}}")
}

/// splitmix64: the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE7C_4D5A_11A5)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The E10 `seed` the reproduce workload runs with.
pub fn e10_seed(seed: u64) -> u64 {
    E10_BASE_SEED + Rng::new(seed).next() % E10_SEED_CHOICES
}

/// `explore`: the E9 n = 3 sweep and the spilling E9 deep n = 4 row.
pub fn explore() -> Vec<String> {
    vec![
        manifest(&format!("\"kind\":\"e9\",\"threads\":{THREADS}")),
        manifest(&format!(
            "\"kind\":\"e9\",\"threads\":{THREADS},\"deep\":true,\"mem_budget\":{DEEP_MEM_BUDGET}"
        )),
    ]
}

/// `reproduce`: one manifest per kind for E1–E8 and E10 at the manifest
/// defaults, E10 with the seed-chosen `seed`.
pub fn reproduce(seed: u64) -> Vec<String> {
    reproduce_with_e10_seed(e10_seed(seed))
}

fn reproduce_with_e10_seed(e10: u64) -> Vec<String> {
    let mut out: Vec<String> = (1..=8)
        .map(|k| manifest(&format!("\"kind\":\"e{k}\",\"threads\":{THREADS}")))
        .collect();
    out.push(manifest(&format!(
        "\"kind\":\"e10\",\"threads\":{THREADS},\"seed\":{e10}"
    )));
    out
}

/// Every manifest a run can execute in-process, for the reference file.
pub fn all_batch_manifests() -> Vec<String> {
    let mut out = explore();
    out.extend(reproduce_with_e10_seed(E10_BASE_SEED));
    out.extend(
        (1..E10_SEED_CHOICES).map(|i| reproduce_with_e10_seed(E10_BASE_SEED + i)[8].clone()),
    );
    out
}

// ------------------------------------------------------------- serve ----

/// Requests per second of the serve stream. With the pool below the
/// server is busy about a sixth of the time: at half load, queueing
/// turned the host's speed swings into a run-to-run tail-latency spread
/// of 0.3 to 0.6.
pub const SERVE_RATE: f64 = 30.0;
/// Shares of the serve stream: fresh manifests and resubmissions; the rest
/// are malformed manifests.
pub const FRESH_SHARE: f64 = 0.60;
pub const CACHED_SHARE: f64 = 0.35;
/// A resubmission repeats a fresh manifest sent at least this many
/// requests earlier, so its first run has normally been answered.
const RESUBMIT_LAG: usize = 8;

/// The fixed pool of small manifests fresh serve requests are drawn from:
/// E3, E5, E7, E9 and E10 jobs of 1 to 20 ms each. Every one has a
/// reference result.
pub fn serve_pool() -> Vec<String> {
    let mut pool = Vec::new();
    for w in (4..=30u64).step_by(2) {
        for p in (4..=40u64).step_by(2) {
            pool.push(manifest(&format!(
                "\"kind\":\"e3\",\"waiters\":{w},\"polls\":{p}"
            )));
        }
    }
    for n in 8..=40u64 {
        pool.push(manifest(&format!("\"kind\":\"e5\",\"n\":{n}")));
    }
    for a in (64..=448u64).step_by(4) {
        for b in [a + 32, a + 64] {
            pool.push(manifest(&format!("\"kind\":\"e7\",\"sizes\":[{a},{b}]")));
        }
    }
    let algorithms = [
        "",
        ",\"algorithm\":\"broadcast\"",
        ",\"algorithm\":\"cc-flag\"",
        ",\"algorithm\":\"single-waiter\"",
        ",\"algorithm\":\"queue-faa\"",
        ",\"algorithm\":\"cas-list\"",
        ",\"algorithm\":\"seeded-buggy\"",
    ];
    for max_polls in 1..=2u64 {
        for a in algorithms {
            for m in ["", ",\"model\":\"cc\"", ",\"model\":\"dsm\""] {
                pool.push(manifest(&format!(
                    "\"kind\":\"e9\",\"waiters\":1,\"max_polls\":{max_polls}{a}{m}"
                )));
            }
        }
    }
    for seed in 0..50u64 {
        pool.push(manifest(&format!(
            "\"kind\":\"e10\",\"sizes\":[1],\"max_polls\":1,\"seed\":{seed}"
        )));
    }
    pool
}

/// Every this-many-th manifest of the pool is in the fixed set whose
/// closed-loop passes serve's `pass_s` times: 39 jobs of every kind.
const PASS_STRIDE: usize = 15;

/// The fixed manifest set of serve's timed passes, the same for every seed.
pub fn serve_pass_set() -> Vec<Request> {
    serve_pool()
        .into_iter()
        .step_by(PASS_STRIDE)
        .map(|text| Request {
            text,
            class: Class::Fresh,
            source: None,
            expect_error: None,
        })
        .collect()
}

/// Requests in a serve stream of `seconds`: the rate times the duration,
/// capped so the pool covers every fresh request.
pub fn serve_requests(seconds: f64) -> usize {
    let cap = (serve_pool().len() as f64 / FRESH_SHARE).floor();
    (seconds * SERVE_RATE).round().clamp(1.0, cap) as usize
}

/// Malformed manifests and the error code each must be refused with.
pub const MALFORMED: [(&str, &str); 7] = [
    (
        "{\"schema\":\"cc-dsm/manifest/v1\",\"kind\":\"e42\"}",
        "unknown_kind",
    ),
    ("{\"schema\":\"cc-dsm/manifest/v1\",\"kind\":", "bad_json"),
    (
        "{\"schema\":\"cc-dsm/manifest/v0\",\"kind\":\"e3\"}",
        "bad_schema",
    ),
    (
        "{\"schema\":\"cc-dsm/manifest/v1\",\"kind\":\"e3\",\"bogus\":1}",
        "unknown_field",
    ),
    (
        "{\"schema\":\"cc-dsm/manifest/v1\",\"kind\":\"e7\",\"sizes\":[0]}",
        "size_out_of_range",
    ),
    (
        "{\"schema\":\"cc-dsm/manifest/v1\",\"kind\":\"e5\",\"n\":9999}",
        "field_out_of_range",
    ),
    (
        "{\"schema\":\"cc-dsm/manifest/v1\",\"kind\":\"e7\",\"sizes\":[4,4]}",
        "duplicate_size",
    ),
];

/// What a serve request is generated as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Fresh,
    Cached,
    Malformed,
}

/// One request of the serve stream.
pub struct Request {
    pub text: String,
    pub class: Class,
    /// The index of the fresh request a resubmission repeats.
    pub source: Option<usize>,
    /// The error code a malformed request must be refused with.
    pub expect_error: Option<&'static str>,
}

/// The serve stream of `n` requests for `seed`: a seeded sample of the
/// pool as fresh manifests, resubmissions of earlier fresh ones, and a few
/// malformed manifests, in a seeded order.
pub fn serve_stream(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let cached = (n as f64 * CACHED_SHARE).round() as usize;
    let fresh = ((n as f64 * FRESH_SHARE).round() as usize).min(n - cached);
    let malformed = n - cached - fresh;

    let mut fresh_texts = serve_pool();
    assert!(
        fresh <= fresh_texts.len(),
        "serve stream exceeds the manifest pool"
    );
    rng.shuffle(&mut fresh_texts);
    fresh_texts.truncate(fresh);

    let mut classes = vec![Class::Fresh; fresh];
    classes.extend(std::iter::repeat_n(Class::Cached, cached));
    classes.extend(std::iter::repeat_n(Class::Malformed, malformed));
    rng.shuffle(&mut classes);
    // A resubmission needs a fresh request at least RESUBMIT_LAG earlier:
    // move early ones behind the next fresh request.
    let mut fresh_seen = Vec::new();
    for i in 0..n {
        if classes[i] == Class::Fresh {
            fresh_seen.push(i);
        }
        if classes[i] == Class::Cached && fresh_seen.first().is_none_or(|&f| f + RESUBMIT_LAG > i) {
            if let Some(j) = (i + 1..n).find(|&j| classes[j] == Class::Fresh) {
                classes.swap(i, j);
                fresh_seen.push(i);
            }
        }
    }

    let mut out: Vec<Request> = Vec::with_capacity(n);
    let mut next_fresh = fresh_texts.into_iter();
    let mut fresh_at: Vec<usize> = Vec::new();
    for (i, class) in classes.into_iter().enumerate() {
        let req = match class {
            Class::Fresh => {
                fresh_at.push(i);
                Request {
                    text: next_fresh.next().expect("one text per fresh slot"),
                    class,
                    source: None,
                    expect_error: None,
                }
            }
            Class::Cached => {
                let eligible = fresh_at.partition_point(|&f| f + RESUBMIT_LAG <= i);
                let src = if eligible > 0 {
                    fresh_at[rng.below(eligible)]
                } else {
                    fresh_at[rng.below(fresh_at.len())]
                };
                Request {
                    text: out[src].text.clone(),
                    class,
                    source: Some(src),
                    expect_error: None,
                }
            }
            Class::Malformed => {
                let (text, code) = MALFORMED[rng.below(MALFORMED.len())];
                Request {
                    text: text.to_owned(),
                    class,
                    source: None,
                    expect_error: Some(code),
                }
            }
        };
        out.push(req);
    }
    out
}

/// The key results are checked under: the job ID of the manifest with its
/// thread count cleared, since results do not depend on it.
pub fn reference_key(m: &Manifest) -> String {
    let mut m = m.clone();
    m.threads = None;
    m.job_id()
}
