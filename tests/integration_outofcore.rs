//! Integration tests for out-of-core chunked storage + sketch profiling.
//!
//! Three contracts pin the tentpole down:
//!
//! 1. **Exact mode is frozen.** `ProfileMode::Exact` (the default) must
//!    reproduce the seed profiles bit-for-bit, at any thread count —
//!    the golden FNV hashes below were captured on this PR's exact path
//!    (which is byte-identical to the pre-sketch code) and must not move.
//! 2. **Sketch mode is a controlled approximation.** Distinct counts,
//!    missing counts, min/max/mean are exact or within pinned error
//!    bounds of the exact profile; the median is within a pinned rank
//!    error. Sketch profiles are byte-identical across thread counts
//!    and across the in-memory and spill-file (out-of-core) paths.
//! 3. **Sketch merges are partition-invariant** where the algebra
//!    promises it (distinct and moment sketches: any chunking, same
//!    result) and rank-bounded where it does not (quantile compaction
//!    depends on chunk boundaries, but the answer stays within ε).

use catdb_data::{generate, GenOptions};
use catdb_profiler::{
    profile_chunked, profile_table, DistinctSketch, MomentSketch, ProfileMode, ProfileOptions,
    QuantileSketch, DISTINCT_K, QUANTILE_K,
};
use catdb_table::{read_csv_str, ChunkedTable, Column, CsvOptions, Table};
use proptest::prelude::*;

/// Serialize a profile with the wall-clock field zeroed: everything else
/// must be deterministic.
fn profile_json(profile: &catdb_profiler::DataProfile) -> String {
    let mut p = profile.clone();
    p.elapsed_seconds = 0.0;
    serde_json::to_string(&p).expect("profiles serialize")
}

/// FNV-1a over a byte string.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn tier2_table(name: &str) -> (Table, String) {
    table_at_rows(name, 500)
}

fn table_at_rows(name: &str, max_rows: usize) -> (Table, String) {
    let g = generate(name, &GenOptions { max_rows, scale: 1.0, seed: 13 }).unwrap();
    (g.dataset.materialize().unwrap(), g.target)
}

// Golden exact-profile hashes, as (dataset, rows, hash), captured on the
// exact path (byte-identical to the pre-sketch profiler). If these move,
// the bit-frozen default changed. The wide tables (kdd98: 478 columns,
// volkert: 181) pin the lane-tiled pairwise pass; their hashes were
// captured on the scalar per-pair kernel it replaced.
const GOLDEN_EXACT: &[(&str, usize, u64)] = &[
    ("diabetes", 500, 0x87337c6b5445353e),
    ("cmc", 500, 0x5040547921063285),
    ("bike-sharing", 500, 0xfde2ca23413398a8),
    ("kdd98", 2000, 0xee8ab1c7fc622186),
    ("volkert", 2000, 0x9db62517d60e37d6),
];

#[test]
fn exact_mode_is_bit_identical_to_goldens_at_any_thread_count() {
    for &(name, rows, golden) in GOLDEN_EXACT {
        let (table, _) = table_at_rows(name, rows);
        for threads in [1usize, 2, 8] {
            let opts = ProfileOptions { n_threads: threads, ..Default::default() };
            let h = hash_bytes(profile_json(&profile_table(name, &table, &opts)).as_bytes());
            assert_eq!(
                h, golden,
                "{name}: exact profile drifted at n_threads={threads} (got {h:#018x})"
            );
        }
    }
}

#[test]
fn sketch_mode_is_byte_identical_across_thread_counts() {
    for name in ["diabetes", "cmc", "bike-sharing", "utility"] {
        let (table, _) = tier2_table(name);
        let json_for = |threads: usize| {
            let opts = ProfileOptions {
                n_threads: threads,
                mode: ProfileMode::Sketch { chunk_rows: 64 },
                ..Default::default()
            };
            profile_json(&profile_table(name, &table, &opts))
        };
        let j1 = json_for(1);
        assert_eq!(j1, json_for(2), "{name}: sketch profile differs between 1 and 2 threads");
        assert_eq!(j1, json_for(8), "{name}: sketch profile differs between 1 and 8 threads");
    }
}

/// Error bounds pinned for sketch mode. Distinct counts below the
/// sketch's K = 1024 retained values are exact; beyond that the KMV
/// estimator's relative standard error is ≈ 1/√(K−1) ≈ 3.1%, pinned
/// at 10%. The median's rank error is pinned at 0.05.
const DISTINCT_REL_TOLERANCE: f64 = 0.10;
const MEDIAN_RANK_TOLERANCE: f64 = 0.05;

#[test]
fn sketch_statistics_track_exact_on_paper_datasets() {
    for name in ["diabetes", "cmc", "bike-sharing", "utility"] {
        let (table, _) = tier2_table(name);
        let exact = profile_table(name, &table, &ProfileOptions::default());
        let opts =
            ProfileOptions { mode: ProfileMode::Sketch { chunk_rows: 128 }, ..Default::default() };
        let sketch = profile_table(name, &table, &opts);
        for (e, s) in exact.columns.iter().zip(&sketch.columns) {
            assert_eq!(e.name, s.name);
            assert_eq!(e.data_type, s.data_type, "{name}.{}", e.name);
            // 500-row tables stay below the sketch's K: distinct counts,
            // missing counts, and feature types must match exactly.
            assert!(e.distinct_count <= DISTINCT_K);
            assert_eq!(e.distinct_count, s.distinct_count, "{name}.{}: distinct", e.name);
            assert_eq!(e.missing_count, s.missing_count, "{name}.{}: missing", e.name);
            assert_eq!(e.feature_type, s.feature_type, "{name}.{}: feature type", e.name);
            if let (Some(es), Some(ss)) = (&e.statistics, &s.statistics) {
                assert_eq!(es.min, ss.min, "{name}.{}: min", e.name);
                assert_eq!(es.max, ss.max, "{name}.{}: max", e.name);
                let scale = es.mean.abs().max(1.0);
                assert!(
                    (es.mean - ss.mean).abs() <= 1e-9 * scale,
                    "{name}.{}: mean {} vs {}",
                    e.name,
                    es.mean,
                    ss.mean
                );
                // Median: compare by rank against the sorted column.
                let mut vals: Vec<f64> =
                    table.column(&e.name).unwrap().to_f64_vec().into_iter().flatten().collect();
                vals.sort_by(|a, b| a.total_cmp(b));
                let rank_of =
                    |v: f64| vals.iter().filter(|&&x| x <= v).count() as f64 / vals.len() as f64;
                let err = (rank_of(ss.median) - 0.5).abs();
                assert!(
                    err <= MEDIAN_RANK_TOLERANCE + 1.0 / vals.len() as f64,
                    "{name}.{}: median rank error {err:.4}",
                    e.name
                );
            } else {
                assert_eq!(
                    e.statistics.is_some(),
                    s.statistics.is_some(),
                    "{name}.{}: statistics presence",
                    e.name
                );
            }
        }
    }
}

#[test]
fn sketch_distinct_estimate_is_bounded_beyond_capacity() {
    // 30k distinct float values — far past the sketch's 1024 retained.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let vals: Vec<Option<f64>> = (0..30_000)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            Some(((state >> 20) as f64) / 1024.0)
        })
        .collect();
    let table = Table::from_columns(vec![("v".to_string(), Column::Float(vals.clone()))]).unwrap();
    let exact = profile_table("hicard", &table, &ProfileOptions::default());
    let opts =
        ProfileOptions { mode: ProfileMode::Sketch { chunk_rows: 4096 }, ..Default::default() };
    let sketch = profile_table("hicard", &table, &opts);
    let (e, s) = (exact.columns[0].distinct_count, sketch.columns[0].distinct_count);
    let rel = (s as f64 - e as f64).abs() / e as f64;
    assert!(rel <= DISTINCT_REL_TOLERANCE, "distinct estimate {s} strays {rel:.3} from exact {e}");
    // And the median still holds its rank bound at this cardinality.
    let med = sketch.columns[0].statistics.as_ref().unwrap().median;
    let mut sorted: Vec<f64> = vals.into_iter().flatten().collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = sorted.iter().filter(|&&x| x <= med).count() as f64 / sorted.len() as f64;
    assert!((rank - 0.5).abs() <= MEDIAN_RANK_TOLERANCE, "median rank {rank:.4}");
}

#[test]
fn out_of_core_profile_matches_in_memory_sketch_profile() {
    // Build a CSV, profile it via the spill-file chunked path and via
    // the in-memory sketch path with the same chunk size: byte-identical.
    let mut csv = String::from("id,score,city,active\n");
    let mut state = 7u64;
    for i in 0..1000 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let city = ["oslo", "lima", "pune", "kiel"][(state >> 33) as usize % 4];
        let score = ((state >> 12) % 10_000) as f64 / 100.0;
        if i % 97 == 0 {
            csv.push_str(&format!("{i},,{city},true\n"));
        } else {
            csv.push_str(&format!("{i},{score},{city},{}\n", i % 3 == 0));
        }
    }
    let dir = std::env::temp_dir().join(format!("catdb-outofcore-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.csv");
    std::fs::write(&path, &csv).unwrap();

    let chunk_rows = 128;
    let opts = ProfileOptions { mode: ProfileMode::Sketch { chunk_rows }, ..Default::default() };
    let chunked =
        ChunkedTable::from_csv_path(path.to_str().unwrap(), &CsvOptions::default(), chunk_rows)
            .unwrap();
    let streamed = profile_chunked("data", &chunked, &opts).unwrap();

    let table = read_csv_str(&csv, &CsvOptions::default()).unwrap();
    let in_memory = profile_table("data", &table, &opts);

    assert_eq!(profile_json(&streamed), profile_json(&in_memory));
    drop(chunked);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// KMV distinct sketches are partition-invariant: any way of
    /// splitting the input into chunks merges to the same sketch.
    #[test]
    fn distinct_sketch_is_partition_invariant(
        vals in prop::collection::vec(0u32..5_000, 1..400),
        split in 0usize..400,
    ) {
        let strs: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
        let mut whole = DistinctSketch::new(64);
        for s in &strs {
            whole.insert(s, 1);
        }
        let cut = split % strs.len();
        let mut left = DistinctSketch::new(64);
        let mut right = DistinctSketch::new(64);
        for s in &strs[..cut] {
            left.insert(s, 1);
        }
        for s in &strs[cut..] {
            right.insert(s, 1);
        }
        left.merge(&right);
        prop_assert_eq!(whole.estimate(), left.estimate());
        prop_assert_eq!(whole.sorted_values(), left.sorted_values());
    }

    /// Moment sketches merge to exactly the sequential result: count,
    /// min and max are bit-equal; mean agrees to floating-point noise.
    #[test]
    fn moment_sketch_merge_matches_sequential(
        vals in prop::collection::vec(-1e6f64..1e6, 1..400),
        split in 0usize..400,
    ) {
        let mut whole = MomentSketch::default();
        for &v in &vals {
            whole.push(v);
        }
        let cut = split % vals.len();
        let mut left = MomentSketch::default();
        let mut right = MomentSketch::default();
        for &v in &vals[..cut] {
            left.push(v);
        }
        for &v in &vals[cut..] {
            right.push(v);
        }
        left.merge(&right);
        prop_assert_eq!(whole.n, left.n);
        prop_assert_eq!(whole.min, left.min);
        prop_assert_eq!(whole.max, left.max);
        prop_assert!((whole.mean - left.mean).abs() <= 1e-6 * whole.mean.abs().max(1.0));
    }

    /// Quantile compaction depends on chunk boundaries, so merges are
    /// not partition-invariant — but any chunking's median stays within
    /// the pinned rank bound, and a fixed chunking is deterministic.
    #[test]
    fn chunk_merged_quantile_sketch_holds_the_rank_bound(
        vals in prop::collection::vec(-1e6f64..1e6, 10..2_000),
        chunk in 1usize..256,
    ) {
        let mut merged = QuantileSketch::new(QUANTILE_K);
        let mut again = QuantileSketch::new(QUANTILE_K);
        for part in vals.chunks(chunk) {
            let mut s = QuantileSketch::new(QUANTILE_K);
            for &v in part {
                s.push(v);
            }
            merged.merge(&s);
            let mut s2 = QuantileSketch::new(QUANTILE_K);
            for &v in part {
                s2.push(v);
            }
            again.merge(&s2);
        }
        let med = merged.query(0.5).unwrap();
        // Same chunking, same order — byte-identical result.
        prop_assert_eq!(med.to_bits(), again.query(0.5).unwrap().to_bits());
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = sorted.iter().filter(|&&x| x <= med).count() as f64 / sorted.len() as f64;
        prop_assert!(
            (rank - 0.5).abs() <= MEDIAN_RANK_TOLERANCE + 1.0 / sorted.len() as f64,
            "median rank {} strayed", rank
        );
    }
}
