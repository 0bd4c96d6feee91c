//! Run-cache budget and maintenance tests: LRU eviction under byte
//! and entry budgets, pin protection for in-flight digests, and
//! `migrate` idempotency — alone, twice, and racing a concurrent
//! store.

use std::path::PathBuf;

use bw_core::workload::benchmark;
use bw_core::zoo::NamedPredictor;
use bw_core::{CacheBudget, CacheLookup, RunCache, RunKey, RunPlan, Runner, SimConfig};

fn tiny_cfg(seed: u64) -> SimConfig {
    SimConfig::builder()
        .warmup_insts(2_000)
        .measure_insts(1_000)
        .seed(seed)
        .build()
        .unwrap()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bw-cache-budget-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Fills `cache` with one entry per seed and returns the keys in
/// store order.
fn fill(cache: &RunCache, seeds: &[u64]) -> Vec<RunKey> {
    let runner = Runner::serial().cached(cache.clone());
    seeds
        .iter()
        .map(|&seed| {
            let mut plan = RunPlan::new();
            let key = plan.add(
                benchmark("gzip").unwrap(),
                NamedPredictor::Bim4k.config(),
                &tiny_cfg(seed),
            );
            runner.run(&plan, |_| {});
            key
        })
        .collect()
}

#[test]
fn entry_budget_evicts_down_to_the_cap() {
    let dir = scratch("entries");
    let cache = RunCache::new(dir.clone());
    let keys = fill(&cache, &[1, 2, 3, 4]);
    assert_eq!(cache.usage().1, 4);

    let budget = CacheBudget {
        max_bytes: None,
        max_entries: Some(2),
    };
    let report = cache.evict_to_budget(&budget, &|_| false);
    assert_eq!(report.evicted, 2, "{}", report.summary());
    assert_eq!(report.retained, 2, "{}", report.summary());
    assert_eq!(report.pinned_kept, 0);
    assert_eq!(cache.usage().1, 2);
    let hits = keys
        .iter()
        .filter(|k| matches!(cache.load_checked(k), CacheLookup::Hit(_)))
        .count();
    assert_eq!(hits, 2, "exactly the retained entries still load");

    // Already within budget: a second pass is a no-op.
    let again = cache.evict_to_budget(&budget, &|_| false);
    assert_eq!(again.evicted, 0);
    assert_eq!(again.retained, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn byte_budget_evicts_oldest_first() {
    let dir = scratch("bytes");
    let cache = RunCache::new(dir.clone());
    fill(&cache, &[11, 12, 13]);
    let (total, count) = cache.usage();
    assert_eq!(count, 3);

    // A budget that fits roughly one entry.
    let budget = CacheBudget {
        max_bytes: Some(total / 3),
        max_entries: None,
    };
    let report = cache.evict_to_budget(&budget, &|_| false);
    assert!(report.evicted >= 2, "{}", report.summary());
    assert!(report.retained_bytes <= total / 3, "{}", report.summary());
    assert_eq!(cache.usage().0, report.retained_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The eviction/single-flight interaction: a zero budget wants every
/// entry gone, but pinned digests (the daemon's in-flight runs) must
/// survive the pass — evicting one mid-flight could lose a stored
/// result or force a duplicate execution.
#[test]
fn zero_budget_spares_pinned_inflight_entries() {
    let dir = scratch("pins");
    let cache = RunCache::new(dir.clone());
    let keys = fill(&cache, &[21, 22, 23]);
    let pinned_digest = keys[1].digest();

    let budget = CacheBudget {
        max_bytes: Some(0),
        max_entries: Some(0),
    };
    let report = cache.evict_to_budget(&budget, &|d| d == pinned_digest);
    assert_eq!(report.evicted, 2, "{}", report.summary());
    assert_eq!(report.pinned_kept, 1, "{}", report.summary());
    assert_eq!(report.retained, 1);
    assert!(
        matches!(cache.load_checked(&keys[1]), CacheLookup::Hit(_)),
        "the pinned entry must survive a zero budget"
    );
    for key in [&keys[0], &keys[2]] {
        assert!(matches!(cache.load_checked(key), CacheLookup::Miss));
    }

    // Unpinned, the survivor goes too.
    let report = cache.evict_to_budget(&budget, &|_| false);
    assert_eq!(report.evicted, 1);
    assert_eq!(cache.usage(), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Foreign files beside the entries — the quarantine ledger, the
/// flight journal, staging leftovers — are not cache entries and are
/// never evicted, even by a zero budget.
#[test]
fn eviction_never_touches_ledger_journal_or_staging_files() {
    let dir = scratch("foreign");
    let cache = RunCache::new(dir.clone());
    fill(&cache, &[31]);
    bw_core::fsutil::atomic_write(
        &dir.join("quarantine.json"),
        b"{\"format_version\": 1, \"entries\": []}",
    )
    .unwrap();
    bw_core::fsutil::append_line(&dir.join("flight-journal.bwj"), "0123 {\"type\":\"x\"}").unwrap();
    bw_core::fsutil::atomic_write(&dir.join("partial.json.tmp.keep"), b"staging").unwrap();

    let budget = CacheBudget {
        max_bytes: Some(0),
        max_entries: Some(0),
    };
    let report = cache.evict_to_budget(&budget, &|_| false);
    assert_eq!(report.evicted, 1, "only the real entry is evictable");
    assert!(dir.join("quarantine.json").is_file());
    assert!(dir.join("flight-journal.bwj").is_file());
    assert!(dir.join("partial.json.tmp.keep").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `migrate` is idempotent: the first pass moves every legacy flat
/// entry into its shard, the second finds nothing to do, and entries
/// load identically afterward.
#[test]
fn migrate_twice_moves_once_and_loses_nothing() {
    let dir = scratch("migrate-twice");
    let cache = RunCache::new(dir.clone());
    let keys = fill(&cache, &[41, 42, 43]);
    // Rebuild the legacy flat layout: move each sharded entry to the
    // cache root, as an old-version writer would have left it.
    for key in &keys {
        std::fs::rename(cache.path_for(key), cache.legacy_path_for(key)).unwrap();
    }

    assert_eq!(cache.migrate(), 3, "first pass moves every flat entry");
    assert_eq!(cache.migrate(), 0, "second pass is a no-op");
    for key in &keys {
        assert!(cache.path_for(key).is_file(), "entry is in its shard");
        assert!(!cache.legacy_path_for(key).is_file());
        assert!(matches!(cache.load_checked(key), CacheLookup::Hit(_)));
    }
    assert_eq!(cache.usage().1, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `migrate` racing a concurrent store: the rename pass and a writer
/// adding new sharded entries interleave without losing either the
/// migrated legacy entries or the freshly stored ones.
#[test]
fn migrate_concurrent_with_store_keeps_every_entry() {
    let dir = scratch("migrate-race");
    let cache = RunCache::new(dir.clone());
    let legacy_keys = fill(&cache, &[51, 52, 53, 54]);
    for key in &legacy_keys {
        std::fs::rename(cache.path_for(key), cache.legacy_path_for(key)).unwrap();
    }

    let writer_cache = cache.clone();
    let writer = std::thread::spawn(move || {
        // Fresh stores land directly in shards while migrate renames
        // the legacy files.
        fill(&writer_cache, &[61, 62, 63])
    });
    let mut moved = cache.migrate();
    let stored_keys = writer.join().expect("writer thread");
    // A second pass catches any file the first enumerated around.
    moved += cache.migrate();

    assert_eq!(moved, 4, "every legacy entry migrated exactly once");
    for key in legacy_keys.iter().chain(&stored_keys) {
        assert!(
            matches!(cache.load_checked(key), CacheLookup::Hit(_)),
            "no entry may be lost by the race"
        );
    }
    assert_eq!(cache.usage().1, 7);
    let _ = std::fs::remove_dir_all(&dir);
}
