//! CART decision trees for classification (Gini) and regression (variance
//! reduction), with capped threshold candidates and optional feature
//! subsampling so the trees double as random-forest base learners.
//!
//! Both split-search strategies start from one per-fit [`SplitIndex`],
//! built by [`split_index`] and shared by every tree of a forest and every
//! round (and class) of a boosting ensemble:
//!
//! * [`SplitMode::Exact`] — sorted-scan search, bit-identical to the seed
//!   implementation. The index is an [`ExactIndex`]: each feature's dense
//!   `total_cmp` rank per row plus each rank's value. A node orders its
//!   rows per candidate feature by `(rank, position)` with an LSD radix
//!   sort instead of a float sort, which reproduces the seed's stable
//!   `(value, row)` order exactly; regression scans then evaluate four
//!   candidate cuts per pass over the gathered targets, each accumulator
//!   adding the same terms in the same order as the scalar loop.
//! * [`SplitMode::Binned`] — LightGBM-style histogram search over a shared
//!   [`BinnedDataset`]: per-node histograms of (count, class counts |
//!   sum, sum-of-squares) are accumulated in one pass over `u8` codes, and
//!   each sibling's histogram is derived as parent − scanned-child instead
//!   of rescanned.

use crate::binned::{BinnedDataset, MAX_BINS};
use crate::estimator::{
    check_finite, validate_classification, validate_regression, Classifier, ClassifierModel,
    Regressor, RegressorModel, Result,
};
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

/// Split-search strategy for tree training.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SplitMode {
    /// Sorted-scan threshold search (bit-identical to the seed trees).
    #[default]
    Exact,
    /// Histogram search over quantized features (`2..=256` bins).
    Binned { bins: usize },
}

impl SplitMode {
    /// Parse `exact`, `binned`, or `binned:<bins>` (bins in `2..=256`).
    pub fn parse(s: &str) -> std::result::Result<SplitMode, String> {
        match s {
            "exact" => Ok(SplitMode::Exact),
            "binned" => Ok(SplitMode::Binned { bins: MAX_BINS }),
            other => match other.strip_prefix("binned:") {
                Some(n) => {
                    let bins: usize = n.parse().map_err(|_| format!("invalid bin count `{n}`"))?;
                    if !(2..=MAX_BINS).contains(&bins) {
                        return Err(format!("bins must be in 2..=256, got {bins}"));
                    }
                    Ok(SplitMode::Binned { bins })
                }
                None => Err(format!(
                    "unknown split mode `{other}` (expected `exact`, `binned`, or \
                     `binned:<bins>`)"
                )),
            },
        }
    }
}

impl fmt::Display for SplitMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitMode::Exact => write!(f, "exact"),
            SplitMode::Binned { bins } => write!(f, "binned:{bins}"),
        }
    }
}

/// Hyper-parameters shared by classification and regression trees.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    pub max_depth: usize,
    pub min_samples_leaf: usize,
    /// Cap on candidate thresholds per feature per node (quantile-strided;
    /// exact mode only — binned mode considers every bin edge).
    pub max_thresholds: usize,
    /// Features sampled per split; `None` = all (single trees),
    /// `Some(k)` for forests.
    pub feature_subsample: Option<usize>,
    pub seed: u64,
    /// Split-search strategy.
    pub split_mode: SplitMode,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 10,
            min_samples_leaf: 1,
            max_thresholds: 32,
            feature_subsample: None,
            seed: 0,
            split_mode: SplitMode::Exact,
        }
    }
}

enum Node {
    ClassLeaf(Vec<f64>),
    RegLeaf(f64),
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

enum Target<'a> {
    Class { y: &'a [usize], n_classes: usize },
    Reg { y: &'a [f64] },
}

impl Target<'_> {
    /// Impurity × count for the rows (so parent − children differences are
    /// comparable without re-normalizing): Gini for classes, SSE for
    /// regression.
    fn weighted_impurity(&self, rows: &[usize]) -> f64 {
        match self {
            Target::Class { y, n_classes } => {
                let mut counts = vec![0usize; *n_classes];
                for &r in rows {
                    counts[y[r]] += 1;
                }
                gini_weighted(&counts, rows.len())
            }
            Target::Reg { y } => {
                let n = rows.len() as f64;
                if rows.is_empty() {
                    return 0.0;
                }
                let mean: f64 = rows.iter().map(|&r| y[r]).sum::<f64>() / n;
                rows.iter().map(|&r| (y[r] - mean).powi(2)).sum()
            }
        }
    }

    fn leaf(&self, rows: &[usize]) -> Node {
        match self {
            Target::Class { y, n_classes } => {
                let mut counts = vec![0.0; *n_classes];
                for &r in rows {
                    counts[y[r]] += 1.0;
                }
                let total: f64 = counts.iter().sum();
                if total > 0.0 {
                    for c in &mut counts {
                        *c /= total;
                    }
                }
                Node::ClassLeaf(counts)
            }
            Target::Reg { y } => {
                let mean = if rows.is_empty() {
                    0.0
                } else {
                    rows.iter().map(|&r| y[r]).sum::<f64>() / rows.len() as f64
                };
                Node::RegLeaf(mean)
            }
        }
    }

    fn is_pure(&self, rows: &[usize]) -> bool {
        match self {
            Target::Class { y, .. } => rows.windows(2).all(|w| y[w[0]] == y[w[1]]),
            Target::Reg { y } => rows.windows(2).all(|w| (y[w[0]] - y[w[1]]).abs() < 1e-12),
        }
    }
}

fn gini_weighted(counts: &[usize], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n_f = n as f64;
    let sum_sq: f64 = counts.iter().map(|&c| (c as f64).powi(2)).sum();
    n_f * (1.0 - sum_sq / (n_f * n_f))
}

/// [`gini_weighted`] of the complement counts (`parent − left`) without
/// materializing them. Identical arithmetic to calling `gini_weighted`
/// on the right-side counts, since the differences are exact integers.
fn gini_weighted_rest(parent: &[usize], left: &[usize], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n_f = n as f64;
    let sum_sq: f64 = parent.iter().zip(left).map(|(&p, &l)| ((p - l) as f64).powi(2)).sum();
    n_f * (1.0 - sum_sq / (n_f * n_f))
}

/// Exact mode's per-fit preparation: for every feature, the dense rank of
/// each row's value in `total_cmp` order (bit-equal values share a rank,
/// distinct bit patterns never do) and each rank's value. Ranks are stored
/// column-major (`ranks[f · rows + r]`), so a node's per-feature gather
/// reads one contiguous `u32` column. Built once per fit and shared by
/// every tree of an ensemble: `rows × features × 4` bytes of ranks.
pub(crate) struct ExactIndex {
    rows: usize,
    ranks: Vec<u32>,
    /// `values[offsets[f] + k]` is feature `f`'s value of rank `k`.
    values: Vec<f64>,
    offsets: Vec<usize>,
}

impl ExactIndex {
    /// Rank every feature of `x`, in parallel on the shared runtime (each
    /// feature is independent, so the result is the same at any thread
    /// count).
    pub(crate) fn build(x: &Matrix) -> ExactIndex {
        let rows = x.rows();
        assert!(u32::try_from(rows).is_ok(), "exact split search supports < 2^32 rows");
        let feats: Vec<usize> = (0..x.cols()).collect();
        let limit = catdb_runtime::pool_size().saturating_add(1);
        let ranked = catdb_runtime::parallel_map(limit, &feats, |_, &f| {
            rank_feature(&(0..rows).map(|r| x.get(r, f)).collect::<Vec<f64>>())
        });
        let mut ranks = Vec::with_capacity(rows * feats.len());
        let mut values = Vec::new();
        let mut offsets = Vec::with_capacity(feats.len() + 1);
        for (col_ranks, col_values) in ranked {
            offsets.push(values.len());
            ranks.extend_from_slice(&col_ranks);
            values.extend_from_slice(&col_values);
        }
        offsets.push(values.len());
        ExactIndex { rows, ranks, values, offsets }
    }

    #[inline]
    fn col_ranks(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.rows..(f + 1) * self.rows]
    }

    #[inline]
    fn col_values(&self, f: usize) -> &[f64] {
        &self.values[self.offsets[f]..self.offsets[f + 1]]
    }
}

/// Dense `total_cmp` ranks of one column and the value of each rank.
fn rank_feature(col: &[f64]) -> (Vec<u32>, Vec<f64>) {
    let mut order: Vec<u32> = (0..col.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
    let mut ranks = vec![0u32; col.len()];
    let mut values: Vec<f64> = Vec::new();
    for &r in &order {
        let v = col[r as usize];
        // `total_cmp` orders by bit pattern, so equal bits ⇔ same rank.
        if values.last().is_none_or(|last| last.to_bits() != v.to_bits()) {
            values.push(v);
        }
        ranks[r as usize] = (values.len() - 1) as u32;
    }
    (ranks, values)
}

/// Per-fit preparation for either split mode, shared across every tree of
/// an ensemble.
pub(crate) enum SplitIndex {
    Exact(ExactIndex),
    Binned(BinnedDataset),
}

/// Build the per-fit index a config's split mode needs. Ensemble fits call
/// this once and share the result across every tree.
pub(crate) fn split_index(x: &Matrix, cfg: &TreeConfig) -> SplitIndex {
    match cfg.split_mode {
        SplitMode::Binned { bins } => SplitIndex::Binned(BinnedDataset::build(x, bins)),
        SplitMode::Exact => SplitIndex::Exact(ExactIndex::build(x)),
    }
}

/// Nodes this small order their keys with `sort_unstable` (the 256-bucket
/// radix passes cost more than they save).
const RADIX_MIN_ROWS: usize = 65;

/// Sort `(rank << 32) | position` keys ascending. The keys arrive in
/// ascending position order and positions are distinct, so a stable LSD
/// radix sort on the rank bits alone (8 bits per pass, as many passes as
/// `max_rank` needs) yields full key order: rank first, ties by position.
/// One read pass builds every digit's histogram; a pass whose digit is the
/// same for every key is skipped. `tmp` is scratch space.
fn sort_rank_keys(keys: &mut Vec<u64>, tmp: &mut Vec<u64>, max_rank: u32) {
    let n = keys.len();
    if n < RADIX_MIN_ROWS {
        keys.sort_unstable();
        return;
    }
    let passes = (32 - max_rank.leading_zeros()).div_ceil(8) as usize;
    let mut counts = [[0usize; 256]; 4];
    for &k in keys.iter() {
        let rank = key_rank(k);
        for (p, hist) in counts.iter_mut().enumerate().take(passes) {
            hist[(rank >> (8 * p)) & 0xFF] += 1;
        }
    }
    tmp.clear();
    tmp.resize(n, 0);
    for (p, hist) in counts.iter_mut().enumerate().take(passes) {
        if hist.contains(&n) {
            continue; // every key shares this digit: the pass is a no-op
        }
        let mut start = 0usize;
        for c in hist.iter_mut() {
            let len = *c;
            *c = start;
            start += len;
        }
        let shift = 8 * p;
        for &k in keys.iter() {
            let digit = (key_rank(k) >> shift) & 0xFF;
            tmp[hist[digit]] = k;
            hist[digit] += 1;
        }
        std::mem::swap(keys, tmp);
    }
}

#[inline]
fn key_rank(key: u64) -> usize {
    (key >> 32) as usize
}

#[inline]
fn key_pos(key: u64) -> usize {
    key as u32 as usize
}

/// Reusable per-node buffers of the exact split search, owned by the
/// builder so a fit allocates them once instead of once per node.
#[derive(Default)]
struct ExactScratch {
    /// `(rank << 32) | position-in-rows`, sorted by [`sort_rank_keys`].
    keys: Vec<u64>,
    tmp: Vec<u64>,
    /// Sorted positions where the value strictly increases.
    boundaries: Vec<usize>,
    /// Regression targets gathered in sorted order.
    ys: Vec<f64>,
    /// Regression candidates that pass `min_samples_leaf`, their left
    /// prefix sums, and their child impurities.
    cuts: Vec<usize>,
    sums: Vec<f64>,
    child: Vec<f64>,
}

impl ExactScratch {
    /// Order the node's `rows` by feature `f` into `keys` and collect the
    /// boundaries between distinct values. Returns `false` when the
    /// feature is constant at this node (no candidates). The order, the
    /// `==` constant test and the `>` boundary test match a stable
    /// `total_cmp` sort of `(value, row)` pairs exactly, `±0.0` included.
    fn order(&mut self, index: &ExactIndex, f: usize, rows: &[usize]) -> bool {
        let ranks = index.col_ranks(f);
        let values = index.col_values(f);
        self.keys.clear();
        self.keys.extend(
            rows.iter().enumerate().map(|(pos, &r)| (u64::from(ranks[r]) << 32) | pos as u64),
        );
        // The feature's largest rank bounds the node's; digits every key
        // shares are skipped by the sort.
        sort_rank_keys(&mut self.keys, &mut self.tmp, (values.len() - 1) as u32);
        let (first, last) = (self.keys[0], self.keys[self.keys.len() - 1]);
        if values[key_rank(first)] == values[key_rank(last)] {
            return false;
        }
        // Equal ranks mean equal values, so only a rank change can be a
        // boundary; `>` then keeps `-0.0 → +0.0` inside one group.
        self.boundaries.clear();
        let (mut prev_rank, mut prev_value) = (key_rank(first), values[key_rank(first)]);
        for (i, &k) in self.keys.iter().enumerate().skip(1) {
            let rank = key_rank(k);
            if rank != prev_rank {
                let value = values[rank];
                if value > prev_value {
                    self.boundaries.push(i);
                }
                (prev_rank, prev_value) = (rank, value);
            }
        }
        true
    }

    /// Midpoint threshold between sorted positions `cut − 1` and `cut`.
    fn threshold(&self, index: &ExactIndex, f: usize, cut: usize) -> f64 {
        let values = index.col_values(f);
        (values[key_rank(self.keys[cut - 1])] + values[key_rank(self.keys[cut])]) / 2.0
    }
}

/// Child impurity (left SSE + right SSE) of one regression cut over the
/// sorted targets `ys`, given the left prefix sum: the scalar reference
/// loop every blocked accumulator reproduces term for term.
fn reg_child(ys: &[f64], cut: usize, left_sum: f64) -> f64 {
    let left_mean = left_sum / cut as f64;
    let mut left_sse = 0.0f64;
    for &v in &ys[..cut] {
        left_sse += (v - left_mean).powi(2);
    }
    let mut right_sum = 0.0f64;
    for &v in &ys[cut..] {
        right_sum += v;
    }
    let right_mean = right_sum / (ys.len() - cut) as f64;
    let mut right_sse = 0.0f64;
    for &v in &ys[cut..] {
        right_sse += (v - right_mean).powi(2);
    }
    left_sse + right_sse
}

/// [`reg_child`] for four ascending cuts `c[0] < c[1] < c[2] < c[3]` at
/// once. Each pass runs as segment loops between consecutive cuts over
/// four register accumulators, so the four dependency chains overlap
/// instead of each pass stalling on one. Accumulator `k` starts at `0.0`
/// and adds exactly the terms of `reg_child(ys, c[k], …)` in the same
/// order, so the results are bit-identical.
fn reg_child_x4(ys: &[f64], c: [usize; 4], left_sum: [f64; 4]) -> [f64; 4] {
    let n = ys.len();
    let lm = [0, 1, 2, 3].map(|k| left_sum[k] / c[k] as f64);
    // Left SSE: accumulator k covers ys[..c[k]].
    let (mut l0, mut l1, mut l2, mut l3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for &v in &ys[..c[0]] {
        l0 += (v - lm[0]).powi(2);
        l1 += (v - lm[1]).powi(2);
        l2 += (v - lm[2]).powi(2);
        l3 += (v - lm[3]).powi(2);
    }
    for &v in &ys[c[0]..c[1]] {
        l1 += (v - lm[1]).powi(2);
        l2 += (v - lm[2]).powi(2);
        l3 += (v - lm[3]).powi(2);
    }
    for &v in &ys[c[1]..c[2]] {
        l2 += (v - lm[2]).powi(2);
        l3 += (v - lm[3]).powi(2);
    }
    for &v in &ys[c[2]..c[3]] {
        l3 += (v - lm[3]).powi(2);
    }
    // Right sums: accumulator k covers ys[c[k]..].
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for &v in &ys[c[0]..c[1]] {
        s0 += v;
    }
    for &v in &ys[c[1]..c[2]] {
        s0 += v;
        s1 += v;
    }
    for &v in &ys[c[2]..c[3]] {
        s0 += v;
        s1 += v;
        s2 += v;
    }
    for &v in &ys[c[3]..] {
        s0 += v;
        s1 += v;
        s2 += v;
        s3 += v;
    }
    let right_sum = [s0, s1, s2, s3];
    let rm = [0, 1, 2, 3].map(|k| right_sum[k] / (n - c[k]) as f64);
    // Right SSE: same segments as the right sums.
    let (mut r0, mut r1, mut r2, mut r3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for &v in &ys[c[0]..c[1]] {
        r0 += (v - rm[0]).powi(2);
    }
    for &v in &ys[c[1]..c[2]] {
        r0 += (v - rm[0]).powi(2);
        r1 += (v - rm[1]).powi(2);
    }
    for &v in &ys[c[2]..c[3]] {
        r0 += (v - rm[0]).powi(2);
        r1 += (v - rm[1]).powi(2);
        r2 += (v - rm[2]).powi(2);
    }
    for &v in &ys[c[3]..] {
        r0 += (v - rm[0]).powi(2);
        r1 += (v - rm[1]).powi(2);
        r2 += (v - rm[2]).powi(2);
        r3 += (v - rm[3]).powi(2);
    }
    [l0 + r0, l1 + r1, l2 + r2, l3 + r3]
}

/// Child impurities of every candidate cut (ascending), four at a time
/// through [`reg_child_x4`], the tail through [`reg_child`].
fn reg_children(ys: &[f64], cuts: &[usize], sums: &[f64], child: &mut Vec<f64>) {
    child.clear();
    let blocks = cuts.chunks_exact(4);
    let tail = blocks.remainder().len();
    for (c, s) in blocks.zip(sums.chunks_exact(4)) {
        child.extend(reg_child_x4(ys, [c[0], c[1], c[2], c[3]], [s[0], s[1], s[2], s[3]]));
    }
    let done = cuts.len() - tail;
    for (&cut, &sum) in cuts[done..].iter().zip(&sums[done..]) {
        child.push(reg_child(ys, cut, sum));
    }
}

/// Flattened per-node histogram over all features of a [`BinnedDataset`]:
/// classification keeps per-(bin, class) counts, regression keeps per-bin
/// (count, Σy, Σy²). Sibling histograms subtract exactly (u32 counts are
/// exact; the f64 sums are deterministic but not order-identical to a
/// rescan, which binned mode accepts).
enum Hist {
    Class(Vec<u32>),
    Reg { count: Vec<u32>, sum: Vec<f64>, sumsq: Vec<f64> },
}

impl Hist {
    /// In-place `self −= child`, turning a parent histogram into the
    /// sibling of the scanned child.
    fn subtract(&mut self, child: &Hist) {
        match (self, child) {
            (Hist::Class(p), Hist::Class(c)) => {
                for (a, b) in p.iter_mut().zip(c) {
                    *a -= b;
                }
            }
            (Hist::Reg { count, sum, sumsq }, Hist::Reg { count: cc, sum: cs, sumsq: cq }) => {
                for (a, b) in count.iter_mut().zip(cc) {
                    *a -= b;
                }
                for (a, b) in sum.iter_mut().zip(cs) {
                    *a -= b;
                }
                for (a, b) in sumsq.iter_mut().zip(cq) {
                    *a -= b;
                }
            }
            _ => unreachable!("histogram kind mismatch"),
        }
    }
}

/// Allocate a zeroed histogram covering `bins` bins of the given target
/// kind (classification scales by the class count).
fn empty_hist(target: &Target, bins: usize) -> Hist {
    match target {
        Target::Class { n_classes, .. } => Hist::Class(vec![0; bins * n_classes]),
        Target::Reg { .. } => {
            Hist::Reg { count: vec![0; bins], sum: vec![0.0; bins], sumsq: vec![0.0; bins] }
        }
    }
}

/// `(base, width)` of feature `f`'s element range inside a flattened
/// histogram (element units, i.e. already scaled by the class count).
fn feature_range(target: &Target, b: &BinnedDataset, f: usize) -> (usize, usize) {
    let scale = match target {
        Target::Class { n_classes, .. } => *n_classes,
        Target::Reg { .. } => 1,
    };
    (b.bin_offset(f) * scale, b.n_bins(f) * scale)
}

/// Per-node training payload gathered once per histogram scan, so every
/// feature pass streams flat arrays (row index, label | target value)
/// instead of re-chasing `rows → y` through two indirections per feature.
enum NodePayload {
    Class(Vec<u32>),
    Reg(Vec<f64>),
}

/// Accumulate one feature's codes into `hist` starting at element offset
/// `base`. This is the monomorphic hot loop of binned training: one `u8`
/// gather plus one indexed add per row.
fn scan_feature(
    codes: &[u8],
    idx: &[u32],
    payload: &NodePayload,
    n_classes: usize,
    base: usize,
    hist: &mut Hist,
) {
    match (hist, payload) {
        (Hist::Class(h), NodePayload::Class(labels)) => {
            for (&r, &lab) in idx.iter().zip(labels) {
                h[base + codes[r as usize] as usize * n_classes + lab as usize] += 1;
            }
        }
        (Hist::Reg { count, sum, sumsq }, NodePayload::Reg(vals)) => {
            for (&r, &v) in idx.iter().zip(vals) {
                let bin = base + codes[r as usize] as usize;
                count[bin] += 1;
                sum[bin] += v;
                sumsq[bin] += v * v;
            }
        }
        _ => unreachable!("histogram kind mismatch"),
    }
}

/// Row-count × feature-count product above which a node's histogram scan
/// fans out per-feature on the shared runtime (each feature's bin range is
/// an independent output slice, so the merge is a plain input-ordered
/// concatenation and the result is identical at any thread count).
const PARALLEL_SCAN_CELLS: usize = 1 << 15;

struct Builder<'a> {
    x: &'a Matrix,
    target: Target<'a>,
    cfg: &'a TreeConfig,
    rng: StdRng,
    index: &'a SplitIndex,
    hist_builds: u64,
    hist_subtractions: u64,
    scratch: ExactScratch,
}

impl<'a> Builder<'a> {
    fn new(x: &'a Matrix, target: Target<'a>, cfg: &'a TreeConfig, index: &'a SplitIndex) -> Self {
        debug_assert_eq!(
            matches!(index, SplitIndex::Exact(_)),
            cfg.split_mode == SplitMode::Exact,
            "split index does not match the configured split mode"
        );
        Builder {
            x,
            target,
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            index,
            hist_builds: 0,
            hist_subtractions: 0,
            scratch: ExactScratch::default(),
        }
    }

    fn fit(&mut self, rows: Vec<usize>) -> Node {
        match self.index {
            SplitIndex::Exact(index) => self.build(index, rows, 0),
            SplitIndex::Binned(_) => self.build_binned(rows, 0, None),
        }
    }

    fn binned(&self) -> &'a BinnedDataset {
        match self.index {
            SplitIndex::Binned(b) => b,
            SplitIndex::Exact(_) => unreachable!("histogram search without a binned dataset"),
        }
    }

    /// Build the full-feature histogram for a node in one pass over the u8
    /// codes. Large nodes fan out per feature on the runtime pool; each
    /// feature's bins land in a disjoint slice, so the input-ordered merge
    /// is a plain copy and the result is identical at any thread count.
    fn scan_hist(&mut self, rows: &[usize]) -> Hist {
        self.hist_builds += 1;
        let b = self.binned();
        let target = &self.target;
        // Gather the node's row indices and targets into flat arrays once;
        // the d feature passes then stream them sequentially.
        let idx: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
        let (payload, n_classes) = match target {
            Target::Class { y, n_classes } => {
                (NodePayload::Class(rows.iter().map(|&r| y[r] as u32).collect()), *n_classes)
            }
            Target::Reg { y } => (NodePayload::Reg(rows.iter().map(|&r| y[r]).collect()), 1),
        };
        let mut hist = empty_hist(target, b.total_bins());
        if rows.len() * b.cols() >= PARALLEL_SCAN_CELLS && b.cols() > 1 {
            let feats: Vec<usize> = (0..b.cols()).collect();
            let limit = catdb_runtime::pool_size().saturating_add(1);
            let parts = catdb_runtime::parallel_map(limit, &feats, |_, &f| {
                let mut part = empty_hist(target, b.n_bins(f));
                scan_feature(b.col_codes(f), &idx, &payload, n_classes, 0, &mut part);
                part
            });
            for (f, part) in parts.into_iter().enumerate() {
                let (base, width) = feature_range(target, b, f);
                match (&mut hist, part) {
                    (Hist::Class(h), Hist::Class(p)) => {
                        h[base..base + width].copy_from_slice(&p);
                    }
                    (
                        Hist::Reg { count, sum, sumsq },
                        Hist::Reg { count: pc, sum: ps, sumsq: pq },
                    ) => {
                        count[base..base + width].copy_from_slice(&pc);
                        sum[base..base + width].copy_from_slice(&ps);
                        sumsq[base..base + width].copy_from_slice(&pq);
                    }
                    _ => unreachable!("histogram kind mismatch"),
                }
            }
        } else {
            for f in 0..b.cols() {
                let (base, _) = feature_range(target, b, f);
                scan_feature(b.col_codes(f), &idx, &payload, n_classes, base, &mut hist);
            }
        }
        hist
    }

    /// Histogram-based recursion: `hist`, when present, was derived by the
    /// parent (scan of the smaller sibling + subtraction), so each level
    /// scans the raw codes at most once for the smaller half of its rows.
    fn build_binned(&mut self, rows: Vec<usize>, depth: usize, hist: Option<Hist>) -> Node {
        if depth >= self.cfg.max_depth || rows.len() < 2 * self.cfg.min_samples_leaf {
            return self.target.leaf(&rows);
        }
        // One pass over the node's labels covers purity + parent impurity
        // (the exact path pays three passes here; with full-feature
        // histogram scans per node the savings are material).
        let parent_class_counts: Option<Vec<usize>> = match &self.target {
            Target::Class { y, n_classes } => {
                let mut counts = vec![0usize; *n_classes];
                for &r in &rows {
                    counts[y[r]] += 1;
                }
                if counts.iter().filter(|&&c| c > 0).count() <= 1 {
                    return self.target.leaf(&rows);
                }
                Some(counts)
            }
            Target::Reg { .. } => {
                if self.target.is_pure(&rows) {
                    return self.target.leaf(&rows);
                }
                None
            }
        };
        let parent_impurity = match &parent_class_counts {
            Some(counts) => gini_weighted(counts, rows.len()),
            None => self.target.weighted_impurity(&rows),
        };
        if parent_impurity <= 1e-12 {
            return self.target.leaf(&rows);
        }
        let binned = self.binned();

        let d = self.x.cols();
        let mut features: Vec<usize> = (0..d).collect();
        if let Some(k) = self.cfg.feature_subsample {
            features.shuffle(&mut self.rng);
            features.truncate(k.max(1).min(d));
        }

        let hist = match hist {
            Some(h) => h,
            None => self.scan_hist(&rows),
        };

        // Cumulative left-to-right sweep over each feature's bins: split at
        // bin b sends codes ≤ b left, which is exactly `value ≤ edges[b]`.
        let mut best: Option<(f64, usize, usize)> = None; // (gain, feature, bin)
        match (&hist, &self.target) {
            (Hist::Class(h), Target::Class { n_classes, .. }) => {
                let nc = *n_classes;
                let parent_counts =
                    parent_class_counts.as_ref().expect("class counts computed above");
                let mut left_counts = vec![0usize; nc];
                for &f in &features {
                    let nb = binned.n_bins(f);
                    if nb < 2 {
                        continue; // constant feature
                    }
                    let base = binned.bin_offset(f) * nc;
                    left_counts.fill(0);
                    let mut left_n = 0usize;
                    for b in 0..nb - 1 {
                        let slot = &h[base + b * nc..base + (b + 1) * nc];
                        for (acc, &v) in left_counts.iter_mut().zip(slot) {
                            *acc += v as usize;
                            left_n += v as usize;
                        }
                        let right_n = rows.len() - left_n;
                        if left_n < self.cfg.min_samples_leaf.max(1)
                            || right_n < self.cfg.min_samples_leaf.max(1)
                        {
                            continue;
                        }
                        let child = gini_weighted(&left_counts, left_n)
                            + gini_weighted_rest(parent_counts, &left_counts, right_n);
                        let gain = parent_impurity - child;
                        if best.as_ref().is_none_or(|x| gain > x.0) && gain > 1e-12 {
                            best = Some((gain, f, b));
                        }
                    }
                }
            }
            (Hist::Reg { count, sum, sumsq }, Target::Reg { .. }) => {
                for &f in &features {
                    let nb = binned.n_bins(f);
                    if nb < 2 {
                        continue;
                    }
                    let base = binned.bin_offset(f);
                    let bins = base..base + nb;
                    let total_n: u32 = count[bins.clone()].iter().sum();
                    let total_sum: f64 = sum[bins.clone()].iter().sum();
                    let total_sumsq: f64 = sumsq[bins].iter().sum();
                    let mut left_n = 0u32;
                    let mut left_sum = 0.0f64;
                    let mut left_sumsq = 0.0f64;
                    for b in 0..nb - 1 {
                        left_n += count[base + b];
                        left_sum += sum[base + b];
                        left_sumsq += sumsq[base + b];
                        let right_n = total_n - left_n;
                        if (left_n as usize) < self.cfg.min_samples_leaf.max(1)
                            || (right_n as usize) < self.cfg.min_samples_leaf.max(1)
                        {
                            continue;
                        }
                        let left_sse = left_sumsq - left_sum * left_sum / left_n as f64;
                        let right_sum = total_sum - left_sum;
                        let right_sse =
                            (total_sumsq - left_sumsq) - right_sum * right_sum / right_n as f64;
                        let child = left_sse + right_sse;
                        let gain = parent_impurity - child;
                        if best.as_ref().is_none_or(|x| gain > x.0) && gain > 1e-12 {
                            best = Some((gain, f, b));
                        }
                    }
                }
            }
            _ => unreachable!("histogram kind mismatch"),
        }

        let Some((_, feature, bin)) = best else {
            return self.target.leaf(&rows);
        };
        let threshold = binned.edges(feature)[bin];
        let codes = binned.col_codes(feature);
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.into_iter().partition(|&r| codes[r] as usize <= bin);
        if left_rows.is_empty() || right_rows.is_empty() {
            // Histogram counts guarantee both sides are non-empty; keep the
            // exact path's defensive fallback anyway.
            let all: Vec<usize> = left_rows.into_iter().chain(right_rows).collect();
            return self.target.leaf(&all);
        }

        // Subtraction trick: scan only the smaller child, derive the larger
        // sibling as parent − child.
        let scan_left = left_rows.len() <= right_rows.len();
        let small = if scan_left { &left_rows } else { &right_rows };
        let small_hist = self.scan_hist(small);
        let mut large_hist = hist;
        large_hist.subtract(&small_hist);
        self.hist_subtractions += 1;
        let (left_hist, right_hist) =
            if scan_left { (small_hist, large_hist) } else { (large_hist, small_hist) };

        let left = Box::new(self.build_binned(left_rows, depth + 1, Some(left_hist)));
        let right = Box::new(self.build_binned(right_rows, depth + 1, Some(right_hist)));
        Node::Split { feature, threshold, left, right }
    }

    fn build(&mut self, index: &ExactIndex, rows: Vec<usize>, depth: usize) -> Node {
        if depth >= self.cfg.max_depth
            || rows.len() < 2 * self.cfg.min_samples_leaf
            || self.target.is_pure(&rows)
        {
            return self.target.leaf(&rows);
        }
        let parent_impurity = self.target.weighted_impurity(&rows);
        if parent_impurity <= 1e-12 {
            return self.target.leaf(&rows);
        }

        let d = self.x.cols();
        let mut features: Vec<usize> = (0..d).collect();
        if let Some(k) = self.cfg.feature_subsample {
            features.shuffle(&mut self.rng);
            features.truncate(k.max(1).min(d));
        }

        // Candidate scan. Split positions are boundaries between distinct
        // sorted values, strided to at most max_thresholds. The node's rows
        // are ordered per feature by rank (see `ExactScratch::order`), the
        // same order a stable float sort gives. Classification keeps
        // incremental class counts (exact integers, so the Gini floats
        // match a recount); regression keeps a running prefix sum for the
        // left mean and evaluates the SSE of four cuts per pass.
        let msl = self.cfg.min_samples_leaf;
        let s = &mut self.scratch;
        // (gain, feature, threshold, cut)
        let mut best: Option<(f64, usize, f64, usize)> = None;
        match &self.target {
            Target::Class { y, n_classes } => {
                let mut parent_counts = vec![0usize; *n_classes];
                for &r in &rows {
                    parent_counts[y[r]] += 1;
                }
                let mut left_counts = vec![0usize; *n_classes];
                for &f in &features {
                    if !s.order(index, f, &rows) {
                        continue; // constant feature at this node
                    }
                    let n = s.keys.len();
                    let stride = (s.boundaries.len() / self.cfg.max_thresholds).max(1);
                    left_counts.fill(0);
                    let mut pos = 0usize;
                    for &cut in s.boundaries.iter().step_by(stride) {
                        while pos < cut {
                            left_counts[y[rows[key_pos(s.keys[pos])]]] += 1;
                            pos += 1;
                        }
                        if cut < msl || n - cut < msl {
                            continue;
                        }
                        let child = gini_weighted(&left_counts, cut)
                            + gini_weighted_rest(&parent_counts, &left_counts, n - cut);
                        let gain = parent_impurity - child;
                        if best.as_ref().is_none_or(|b| gain > b.0) && gain > 1e-12 {
                            best = Some((gain, f, s.threshold(index, f, cut), cut));
                        }
                    }
                }
            }
            Target::Reg { y } => {
                for &f in &features {
                    if !s.order(index, f, &rows) {
                        continue; // constant feature at this node
                    }
                    let n = s.keys.len();
                    s.ys.clear();
                    s.ys.extend(s.keys.iter().map(|&k| y[rows[key_pos(k)]]));
                    let stride = (s.boundaries.len() / self.cfg.max_thresholds).max(1);
                    s.cuts.clear();
                    s.sums.clear();
                    let mut pos = 0usize;
                    let mut left_sum = 0.0f64;
                    for &cut in s.boundaries.iter().step_by(stride) {
                        while pos < cut {
                            left_sum += s.ys[pos];
                            pos += 1;
                        }
                        if cut < msl || n - cut < msl {
                            continue;
                        }
                        s.cuts.push(cut);
                        s.sums.push(left_sum);
                    }
                    reg_children(&s.ys, &s.cuts, &s.sums, &mut s.child);
                    // Strict `>` in candidate order: the first best wins.
                    for (&cut, &child) in s.cuts.iter().zip(&s.child) {
                        let gain = parent_impurity - child;
                        if best.as_ref().is_none_or(|b| gain > b.0) && gain > 1e-12 {
                            best = Some((gain, f, s.threshold(index, f, cut), cut));
                        }
                    }
                }
            }
        }

        let Some((_, feature, threshold, cut)) = best else {
            return self.target.leaf(&rows);
        };
        // `values[rank]` is `x[r][feature]` bit for bit, read from one
        // contiguous rank column instead of a strided row-major gather.
        // `cut` rows sort left of the threshold, so it sizes the children
        // (a capacity hint only: the comparison decides).
        let (ranks, values) = (index.col_ranks(feature), index.col_values(feature));
        let mut left_rows = Vec::with_capacity(cut);
        let mut right_rows = Vec::with_capacity(rows.len() - cut);
        for r in rows {
            if values[ranks[r] as usize] <= threshold {
                left_rows.push(r);
            } else {
                right_rows.push(r);
            }
        }
        if left_rows.is_empty() || right_rows.is_empty() {
            // Should not happen given boundary selection; fall back to a leaf
            // out of an abundance of caution.
            let all: Vec<usize> = left_rows.into_iter().chain(right_rows).collect();
            return self.target.leaf(&all);
        }
        let left = Box::new(self.build(index, left_rows, depth + 1));
        let right = Box::new(self.build(index, right_rows, depth + 1));
        Node::Split { feature, threshold, left, right }
    }
}

fn descend<'n>(mut node: &'n Node, row: &[f64]) -> &'n Node {
    loop {
        match node {
            Node::Split { feature, threshold, left, right } => {
                node = if row[*feature] <= *threshold { left } else { right };
            }
            _ => return node,
        }
    }
}

/// Decision-tree classifier.
#[derive(Debug, Clone, Default)]
pub struct DecisionTreeClassifier {
    pub config: TreeConfig,
}

pub(crate) struct TreeClassifierModel {
    root: Node,
    n_classes: usize,
}

impl Classifier for DecisionTreeClassifier {
    fn name(&self) -> &'static str {
        "decision_tree"
    }

    fn fit(&self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<Box<dyn ClassifierModel>> {
        validate_classification(x, y, n_classes)?;
        let index = split_index(x, &self.config);
        let rows = (0..x.rows()).collect();
        Ok(Box::new(fit_class_tree_on(x, y, rows, n_classes, &self.config, &index)))
    }
}

/// Flush the per-fit histogram counters into the trace layer.
fn flush_hist_counters(builder: &Builder) {
    if builder.hist_builds > 0 {
        catdb_trace::add_counter("ml.hist_builds", builder.hist_builds as f64);
    }
    if builder.hist_subtractions > 0 {
        catdb_trace::add_counter("ml.hist_subtractions", builder.hist_subtractions as f64);
    }
}

/// Internal fit over a row subset (for bagging) that skips validation
/// (ensembles validate once up front). `index` must be [`split_index`] of
/// `x` under the same split mode as `cfg`.
pub(crate) fn fit_class_tree_on(
    x: &Matrix,
    y: &[usize],
    rows: Vec<usize>,
    n_classes: usize,
    cfg: &TreeConfig,
    index: &SplitIndex,
) -> TreeClassifierModel {
    let _span = catdb_trace::span("tree_fit");
    let mut builder = Builder::new(x, Target::Class { y, n_classes }, cfg, index);
    let root = builder.fit(rows);
    flush_hist_counters(&builder);
    TreeClassifierModel { root, n_classes }
}

impl ClassifierModel for TreeClassifierModel {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<Vec<f64>>> {
        check_finite(x, "prediction features")?;
        Ok((0..x.rows())
            .map(|r| match descend(&self.root, x.row(r)) {
                Node::ClassLeaf(p) => p.clone(),
                _ => vec![1.0 / self.n_classes as f64; self.n_classes],
            })
            .collect())
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

impl TreeClassifierModel {
    /// Add this tree's class probabilities for every row of `x` into `acc`
    /// (one `n_classes` vector per row) without the finite check: forests
    /// validate once and accumulate every tree in place. The values and the
    /// addition order match summing [`ClassifierModel::predict_proba`].
    pub(crate) fn add_proba_unchecked(&self, x: &Matrix, acc: &mut [Vec<f64>]) {
        let uniform = 1.0 / self.n_classes as f64;
        for (r, row_acc) in acc.iter_mut().enumerate() {
            match descend(&self.root, x.row(r)) {
                Node::ClassLeaf(p) => {
                    for (a, v) in row_acc.iter_mut().zip(p) {
                        *a += v;
                    }
                }
                _ => {
                    for a in row_acc.iter_mut() {
                        *a += uniform;
                    }
                }
            }
        }
    }
}

/// Decision-tree regressor.
#[derive(Debug, Clone, Default)]
pub struct DecisionTreeRegressor {
    pub config: TreeConfig,
}

pub(crate) struct TreeRegressorModel {
    root: Node,
}

impl Regressor for DecisionTreeRegressor {
    fn name(&self) -> &'static str {
        "decision_tree"
    }

    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn RegressorModel>> {
        validate_regression(x, y)?;
        let index = split_index(x, &self.config);
        Ok(Box::new(fit_reg_tree(x, y, (0..x.rows()).collect(), &self.config, &index)))
    }
}

/// Internal regression-tree fit over a row subset. `index` must be
/// [`split_index`] of `x` under the same split mode as `cfg`.
pub(crate) fn fit_reg_tree(
    x: &Matrix,
    y: &[f64],
    rows: Vec<usize>,
    cfg: &TreeConfig,
    index: &SplitIndex,
) -> TreeRegressorModel {
    let _span = catdb_trace::span("tree_fit");
    let mut builder = Builder::new(x, Target::Reg { y }, cfg, index);
    let root = builder.fit(rows);
    flush_hist_counters(&builder);
    TreeRegressorModel { root }
}

impl RegressorModel for TreeRegressorModel {
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        check_finite(x, "prediction features")?;
        Ok((0..x.rows())
            .map(|r| match descend(&self.root, x.row(r)) {
                Node::RegLeaf(v) => *v,
                _ => 0.0,
            })
            .collect())
    }
}

impl TreeRegressorModel {
    /// Prediction without the finite check (hot path inside boosting, where
    /// the ensemble validated inputs once).
    pub(crate) fn predict_unchecked(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows())
            .map(|r| match descend(&self.root, x.row(r)) {
                Node::RegLeaf(v) => *v,
                _ => 0.0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};

    fn xor_data() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                let a = i as f64 / 8.0;
                let b = j as f64 / 8.0;
                rows.push(vec![a, b]);
                y.push(((a > 0.5) ^ (b > 0.5)) as usize);
            }
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn tree_learns_xor() {
        let (x, y) = xor_data();
        let model = DecisionTreeClassifier::default().fit(&x, &y, 2).unwrap();
        let pred = model.predict(&x).unwrap();
        assert!(accuracy(&y, &pred) > 0.95);
    }

    #[test]
    fn depth_one_tree_cannot_learn_xor() {
        let (x, y) = xor_data();
        let cfg = TreeConfig { max_depth: 1, ..Default::default() };
        let model = DecisionTreeClassifier { config: cfg }.fit(&x, &y, 2).unwrap();
        let pred = model.predict(&x).unwrap();
        let acc = accuracy(&y, &pred);
        assert!(acc < 0.8, "xor should not be separable at depth 1, got {acc}");
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let x = Matrix::from_rows(&rows);
        let model = DecisionTreeRegressor::default().fit(&x, &y).unwrap();
        let pred = model.predict(&x).unwrap();
        assert!(r2(&y, &pred) > 0.99);
    }

    #[test]
    fn probabilities_reflect_leaf_distribution() {
        // One feature, mixed labels on the left.
        let x = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![0.0], vec![10.0]]);
        let y = vec![0, 0, 1, 1];
        let cfg = TreeConfig { max_depth: 1, min_samples_leaf: 1, ..Default::default() };
        let model = DecisionTreeClassifier { config: cfg }.fit(&x, &y, 2).unwrap();
        let proba = model.predict_proba(&x).unwrap();
        assert!((proba[0][0] - 2.0 / 3.0).abs() < 1e-9);
        assert!((proba[3][1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_features_yield_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]);
        let y = vec![0, 1, 0, 1];
        let model = DecisionTreeClassifier::default().fit(&x, &y, 2).unwrap();
        let proba = model.predict_proba(&x).unwrap();
        assert!((proba[0][0] - 0.5).abs() < 1e-9);
    }

    // ---------------------------------------------------------------------
    // Reference: the exact split search before the rank index — a float
    // `sort_by(total_cmp)` per node and feature, and scalar regression
    // scans. Kept verbatim; the equivalence proptest fits both.
    // ---------------------------------------------------------------------

    /// Sort `(value, row)` pairs for feature `f` into `vals` and collect the
    /// boundaries between distinct values into `boundaries`. Returns `false`
    /// when the feature is constant at this node (no candidates).
    fn prepare_candidates(
        x: &Matrix,
        rows: &[usize],
        f: usize,
        vals: &mut Vec<(f64, usize)>,
        boundaries: &mut Vec<usize>,
    ) -> bool {
        vals.clear();
        vals.extend(rows.iter().map(|&r| (x.get(r, f), r)));
        vals.sort_by(|a, b| a.0.total_cmp(&b.0));
        if vals[0].0 == vals[vals.len() - 1].0 {
            return false;
        }
        boundaries.clear();
        for i in 1..vals.len() {
            if vals[i].0 > vals[i - 1].0 {
                boundaries.push(i);
            }
        }
        true
    }

    impl Builder<'_> {
        fn build_reference(&mut self, rows: Vec<usize>, depth: usize) -> Node {
            if depth >= self.cfg.max_depth
                || rows.len() < 2 * self.cfg.min_samples_leaf
                || self.target.is_pure(&rows)
            {
                return self.target.leaf(&rows);
            }
            let parent_impurity = self.target.weighted_impurity(&rows);
            if parent_impurity <= 1e-12 {
                return self.target.leaf(&rows);
            }

            let d = self.x.cols();
            let mut features: Vec<usize> = (0..d).collect();
            if let Some(k) = self.cfg.feature_subsample {
                features.shuffle(&mut self.rng);
                features.truncate(k.max(1).min(d));
            }

            // Candidate scan. Split positions are boundaries between distinct
            // sorted values, strided to at most max_thresholds. Rather than
            // materializing left/right row sets and recomputing impurity from
            // scratch per candidate (O(n) each), the scan walks the sorted
            // order once: classification keeps incremental class counts (the
            // counts are exact integers, so the Gini floats are bit-identical
            // to the recomputing version), regression keeps a running prefix
            // sum for the left mean (same addition order as before) and only
            // touches each side once per candidate for the SSE.
            let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
            let mut vals: Vec<(f64, usize)> = Vec::with_capacity(rows.len());
            let mut boundaries: Vec<usize> = Vec::new();
            match &self.target {
                Target::Class { y, n_classes } => {
                    let mut parent_counts = vec![0usize; *n_classes];
                    for &r in &rows {
                        parent_counts[y[r]] += 1;
                    }
                    let mut left_counts = vec![0usize; *n_classes];
                    for &f in &features {
                        if !prepare_candidates(self.x, &rows, f, &mut vals, &mut boundaries) {
                            continue; // constant feature at this node
                        }
                        let stride = (boundaries.len() / self.cfg.max_thresholds).max(1);
                        left_counts.fill(0);
                        let mut pos = 0usize;
                        for &cut in boundaries.iter().step_by(stride) {
                            while pos < cut {
                                left_counts[y[vals[pos].1]] += 1;
                                pos += 1;
                            }
                            if cut < self.cfg.min_samples_leaf
                                || vals.len() - cut < self.cfg.min_samples_leaf
                            {
                                continue;
                            }
                            let child = gini_weighted(&left_counts, cut)
                                + gini_weighted_rest(
                                    &parent_counts,
                                    &left_counts,
                                    vals.len() - cut,
                                );
                            let gain = parent_impurity - child;
                            if best.as_ref().is_none_or(|b| gain > b.0) && gain > 1e-12 {
                                let threshold = (vals[cut - 1].0 + vals[cut].0) / 2.0;
                                best = Some((gain, f, threshold));
                            }
                        }
                    }
                }
                Target::Reg { y } => {
                    for &f in &features {
                        if !prepare_candidates(self.x, &rows, f, &mut vals, &mut boundaries) {
                            continue; // constant feature at this node
                        }
                        let stride = (boundaries.len() / self.cfg.max_thresholds).max(1);
                        let mut pos = 0usize;
                        let mut left_sum = 0.0f64;
                        for &cut in boundaries.iter().step_by(stride) {
                            while pos < cut {
                                left_sum += y[vals[pos].1];
                                pos += 1;
                            }
                            if cut < self.cfg.min_samples_leaf
                                || vals.len() - cut < self.cfg.min_samples_leaf
                            {
                                continue;
                            }
                            let left_mean = left_sum / cut as f64;
                            let mut left_sse = 0.0f64;
                            for &(_, r) in &vals[..cut] {
                                left_sse += (y[r] - left_mean).powi(2);
                            }
                            let mut right_sum = 0.0f64;
                            for &(_, r) in &vals[cut..] {
                                right_sum += y[r];
                            }
                            let right_mean = right_sum / (vals.len() - cut) as f64;
                            let mut right_sse = 0.0f64;
                            for &(_, r) in &vals[cut..] {
                                right_sse += (y[r] - right_mean).powi(2);
                            }
                            let child = left_sse + right_sse;
                            let gain = parent_impurity - child;
                            if best.as_ref().is_none_or(|b| gain > b.0) && gain > 1e-12 {
                                let threshold = (vals[cut - 1].0 + vals[cut].0) / 2.0;
                                best = Some((gain, f, threshold));
                            }
                        }
                    }
                }
            }

            let Some((_, feature, threshold)) = best else {
                return self.target.leaf(&rows);
            };
            let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                rows.into_iter().partition(|&r| self.x.get(r, feature) <= threshold);
            if left_rows.is_empty() || right_rows.is_empty() {
                // Should not happen given boundary selection; fall back to a leaf
                // out of an abundance of caution.
                let all: Vec<usize> = left_rows.into_iter().chain(right_rows).collect();
                return self.target.leaf(&all);
            }
            let left = Box::new(self.build_reference(left_rows, depth + 1));
            let right = Box::new(self.build_reference(right_rows, depth + 1));
            Node::Split { feature, threshold, left, right }
        }
    }

    /// Render a tree with every float as its bit pattern, so two renders
    /// are equal exactly when the trees are bit-identical.
    fn render(node: &Node, out: &mut String) {
        use std::fmt::Write as _;
        match node {
            Node::ClassLeaf(p) => {
                let bits: Vec<u64> = p.iter().map(|v| v.to_bits()).collect();
                write!(out, "C{bits:x?}").unwrap();
            }
            Node::RegLeaf(v) => write!(out, "R{:x}", v.to_bits()).unwrap(),
            Node::Split { feature, threshold, left, right } => {
                write!(out, "S({feature},{:x},", threshold.to_bits()).unwrap();
                render(left, out);
                out.push(',');
                render(right, out);
                out.push(')');
            }
        }
    }

    fn rendered(node: &Node) -> String {
        let mut out = String::new();
        render(node, &mut out);
        out
    }

    /// Fit the same tree with the rank-indexed search and with the
    /// reference; return both renders.
    fn fit_both(
        x: &Matrix,
        target: Target,
        cfg: &TreeConfig,
        rows: Vec<usize>,
    ) -> (String, String) {
        let index = split_index(x, cfg);
        let reference = {
            let target = match &target {
                Target::Class { y, n_classes } => Target::Class { y, n_classes: *n_classes },
                Target::Reg { y } => Target::Reg { y },
            };
            let mut b = Builder::new(x, target, cfg, &index);
            rendered(&b.build_reference(rows.clone(), 0))
        };
        let mut b = Builder::new(x, target, cfg, &index);
        (rendered(&b.fit(rows)), reference)
    }

    /// One synthetic feature column of the given kind: continuous,
    /// small integers, binary, a `±0.0` mix, or constant.
    fn column(kind: u64, n: usize, rng: &mut StdRng) -> Vec<f64> {
        use rand::Rng;
        (0..n)
            .map(|_| match kind {
                0 => rng.gen_range(-50.0..50.0),
                1 => rng.gen_range(0..6u64) as f64,
                2 => rng.gen_range(0..2u64) as f64,
                3 => [-0.0, 0.0, 0.0, -0.0, 1.5, -2.0][rng.gen_range(0..6usize)],
                _ => 3.25,
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// The rank-indexed search builds the same tree, bit for bit, as
        /// the float-sort reference: ties, `±0.0`, constant columns,
        /// duplicate (bootstrap) rows, tiny and radix-sized nodes, every
        /// leaf size and threshold cap, feature subsampling, both targets.
        #[test]
        fn rank_search_matches_float_sort_reference(
            seed in 0u64..u64::MAX,
            n in 1usize..300,
            d in 1usize..6,
            msl in 1usize..4,
            cap in 0usize..3,
            shape in 0u64..6,
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let cols: Vec<Vec<f64>> =
                (0..d).map(|_| column(rng.gen_range(0..5u64), n, &mut rng)).collect();
            let x = Matrix::from_rows(
                &(0..n).map(|r| cols.iter().map(|c| c[r]).collect()).collect::<Vec<_>>(),
            );
            let rows: Vec<usize> = match shape % 3 {
                0 => (0..n).collect(),
                1 => (0..n).map(|_| rng.gen_range(0..n)).collect(), // bootstrap
                _ => (0..n).rev().filter(|r| r % 3 != 1).chain(0..n.min(7)).collect(),
            };
            let cfg = TreeConfig {
                max_depth: rng.gen_range(1..12usize),
                min_samples_leaf: msl,
                max_thresholds: [1, 16, 32][cap],
                feature_subsample: if shape < 3 { None } else { Some(rng.gen_range(1..d + 1)) },
                seed,
                split_mode: SplitMode::Exact,
            };
            let n_classes = rng.gen_range(2..5usize);
            let yc: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n_classes)).collect();
            let yr: Vec<f64> = (0..n)
                .map(|r| match seed % 3 {
                    0 => rng.gen_range(-10.0..10.0),
                    1 => rng.gen_range(0..4u64) as f64, // tied targets
                    _ => cols[0][r] * 0.5 + rng.gen_range(0.0..1.0),
                })
                .collect();
            let (new, reference) =
                fit_both(&x, Target::Class { y: &yc, n_classes }, &cfg, rows.clone());
            proptest::prop_assert_eq!(new, reference);
            let (new, reference) = fit_both(&x, Target::Reg { y: &yr }, &cfg, rows);
            proptest::prop_assert_eq!(new, reference);
        }
    }

    /// Keys for `n` rows whose ranks cover `0..distinct` (every rank at
    /// least once when `n ≥ distinct`), in a scrambled row order.
    fn scrambled_keys(n: usize, distinct: u32) -> Vec<u64> {
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        (0..n)
            .map(|pos| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let rank = if pos < distinct as usize {
                    ((pos as u64 * 7919) % u64::from(distinct)) as u32
                } else {
                    ((state >> 33) % u64::from(distinct)) as u32
                };
                (u64::from(rank) << 32) | pos as u64
            })
            .collect()
    }

    #[test]
    fn radix_sort_matches_sort_unstable_at_pass_edges() {
        // 255/256 distinct ranks fit one 8-bit pass, 257 needs two, and
        // 65,537 needs three.
        for (n, distinct) in [(600, 255), (600, 256), (600, 257), (70_000, 65_537)] {
            let keys = scrambled_keys(n, distinct);
            let max_rank = keys.iter().map(|&k| key_rank(k) as u32).max().unwrap();
            assert_eq!(max_rank, distinct - 1);
            let mut expected = keys.clone();
            expected.sort_unstable();
            let (mut got, mut tmp) = (keys, Vec::new());
            sort_rank_keys(&mut got, &mut tmp, max_rank);
            assert_eq!(got, expected, "{distinct} distinct ranks over {n} rows");
        }
    }

    #[test]
    fn radix_sort_matches_sort_unstable_around_the_small_node_cutoff() {
        for n in [1, 2, 63, 64, 65, 66, 300] {
            for distinct in [1, 2, 40, 300] {
                let keys = scrambled_keys(n, distinct);
                let max_rank = keys.iter().map(|&k| key_rank(k) as u32).max().unwrap();
                let mut expected = keys.clone();
                expected.sort_unstable();
                let (mut got, mut tmp) = (keys, Vec::new());
                sort_rank_keys(&mut got, &mut tmp, max_rank);
                assert_eq!(got, expected, "{n} rows, {distinct} distinct ranks");
            }
        }
    }

    #[test]
    fn exact_index_ranks_follow_total_cmp_and_bit_equality() {
        let x = Matrix::from_rows(
            &[2.0, -0.0, 0.0, 2.0, -3.5, 0.0, 1e300]
                .iter()
                .map(|&v| vec![v, 1.0])
                .collect::<Vec<_>>(),
        );
        let index = ExactIndex::build(&x);
        assert_eq!(index.col_ranks(0), &[3, 1, 2, 3, 0, 2, 4]);
        let bits: Vec<u64> = index.col_values(0).iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = [-3.5f64, -0.0, 0.0, 2.0, 1e300].iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want);
        assert_eq!(index.col_ranks(1), &[0; 7]);
        assert_eq!(index.col_values(1), &[1.0]);
    }

    #[test]
    fn signed_zeros_form_one_group() {
        // -0.0 and +0.0 have different ranks but compare equal, so a column
        // of only signed zeros is constant and gets no split.
        let x = Matrix::from_rows(&[vec![-0.0], vec![0.0], vec![-0.0], vec![0.0]]);
        let y = vec![0, 1, 0, 1];
        let model = DecisionTreeClassifier::default().fit(&x, &y, 2).unwrap();
        let proba = model.predict_proba(&x).unwrap();
        assert!((proba[0][0] - 0.5).abs() < 1e-12);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// Every blocked accumulator reproduces the scalar cut evaluation
        /// bit for bit, for any ascending cut set (full blocks and tail).
        #[test]
        fn blocked_regression_kernel_matches_scalar_bitwise(
            seed in 0u64..u64::MAX,
            n in 2usize..200,
            n_cuts in 1usize..12,
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let ys: Vec<f64> = (0..n)
                .map(|_| if seed % 2 == 0 { rng.gen_range(-1e3..1e3) } else { rng.gen_range(0..5u64) as f64 })
                .collect();
            let mut cuts: Vec<usize> = (0..n_cuts).map(|_| rng.gen_range(1..n)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let sums: Vec<f64> = cuts.iter().map(|&c| ys[..c].iter().fold(0.0, |a, &v| a + v)).collect();
            let mut child = Vec::new();
            reg_children(&ys, &cuts, &sums, &mut child);
            for (i, (&c, &s)) in cuts.iter().zip(&sums).enumerate() {
                proptest::prop_assert_eq!(child[i].to_bits(), reg_child(&ys, c, s).to_bits(), "cut {}", c);
            }
        }
    }
}
