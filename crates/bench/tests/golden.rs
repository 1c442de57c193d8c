//! Golden byte-equality pins: the canonical (timing-free) JSON of the
//! audited E2 sweep and the E9 exploration must match fixtures committed in
//! `tests/golden/` *byte for byte*. The determinism tests prove the output
//! is thread-count independent; these prove it does not drift across code
//! changes at all — any rewrite of the simulator core, pricing state, or
//! explorer that alters a single byte fails here and must either be a bug
//! or a deliberate, reviewed fixture update.
//!
//! Scaled-down parameters keep the debug-build runtime tractable; the same
//! canon code paths (`canon::e2_json` / `canon::e9_json`) serialize the
//! full-size binaries' `--canon` output.
//!
//! Regenerate after a deliberate output change with:
//! `BLESS_GOLDEN=1 cargo test -p bench --test golden`

use bench::{e2_dsm_lower_with, e9_explore};
use shm_scenario::canon;
use std::path::PathBuf;
use std::sync::Mutex;

static POOL_LOCK: Mutex<()> = Mutex::new(());

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the committed fixture, or rewrites the fixture
/// when `BLESS_GOLDEN` is set.
fn check(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {} (BLESS_GOLDEN=1 to create): {e}", path.display()));
    assert_eq!(
        expected, actual,
        "{name} drifted from the committed fixture; if the change is \
         deliberate, regenerate with BLESS_GOLDEN=1"
    );
}

/// Runs `f` at a fixed pool size, restoring the auto default afterwards.
fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    shm_pool::set_threads(n);
    let r = f();
    shm_pool::set_threads(0);
    r
}

#[test]
fn e2_audited_canon_matches_committed_fixture() {
    let _guard = POOL_LOCK.lock().unwrap();
    let json = at_threads(1, || canon::e2_json(&e2_dsm_lower_with(&[8, 12], true)));
    assert!(json.contains("\"audit_clean\": true"), "{json}");
    check("e2.json", &json);
}

#[test]
fn e9_canon_matches_committed_fixture() {
    let _guard = POOL_LOCK.lock().unwrap();
    let json = at_threads(1, || canon::e9_json(&e9_explore(2, 1)));
    assert!(json.contains("\"max_signaler_rmrs\""), "{json}");
    check("e9.json", &json);
}
