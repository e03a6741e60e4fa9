//! Exact pairwise |Pearson| correlation over every numeric column pair,
//! as a lane-tiled kernel.
//!
//! Blocks of [`LANES`] numeric columns are packed row-interleaved into a
//! tile once, and every earlier column is swept against the whole tile:
//! one pass over the rows feeds all `LANES` pairs, and the per-lane
//! accumulators vectorize across lanes while each lane keeps its own
//! row-order sums.
//!
//! Every lane is bit-identical to the scalar per-pair formula (a copy of
//! which is the test reference below). That formula sums over the rows
//! where both columns are present, in row order. A lane instead visits
//! every row and *selects out* the rows where its pair is not
//! co-present by adding `-0.0`, the exact IEEE additive identity
//! (`a + -0.0 == a` bit for bit for every `a`, including `-0.0`, the
//! infinities and NaN; adding `+0.0` would turn a `-0.0` sum into
//! `+0.0`). So each lane performs the same additions, on the same
//! operands, in the same order as the scalar formula. A column's nulls
//! are stored as `-0.0` for the same reason.
//!
//! When both columns of a pair have no nulls, the co-present rows are all
//! rows, so the pair's means and variances are the columns' own, summed
//! in the same order. Those are computed once per column and the pair
//! does a single covariance pass over pre-centred values.

use catdb_table::Column;

/// Columns packed side by side in one tile.
const LANES: usize = 8;

/// Lanes the general path accumulates at once: the three sums and two
/// means of 4 lanes fit the 16 SSE2 registers, 8 lanes spill.
const BLOCK: usize = 4;

/// Dense `f64` view of one numeric column, built straight from the
/// column: values in row order plus validity.
pub(crate) struct NumericView {
    /// Null rows hold `-0.0`, the additive identity.
    values: Vec<f64>,
    /// Per-row validity; `None` when no row is null.
    valid: Option<Vec<bool>>,
}

impl NumericView {
    /// View of an `Int` or `Float` column (`None` for other dtypes), with
    /// the values `Column::to_f64_vec` yields.
    pub(crate) fn new(col: &Column) -> Option<NumericView> {
        fn build<T: Copy>(cells: &[Option<T>], to_f64: impl Fn(T) -> f64) -> NumericView {
            let values = cells.iter().map(|c| c.map_or(-0.0, &to_f64)).collect();
            let valid = cells
                .iter()
                .any(Option::is_none)
                .then(|| cells.iter().map(Option::is_some).collect());
            NumericView { values, valid }
        }
        match col {
            Column::Int(v) => Some(build(v, |i| i as f64)),
            Column::Float(v) => Some(build(v, |x| x)),
            Column::Str(_) | Column::Bool(_) => None,
        }
    }

    /// The present values, in row order.
    pub(crate) fn present(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().enumerate().filter(|(r, _)| self.is_valid(*r)).map(|(_, &x)| x)
    }

    fn is_valid(&self, r: usize) -> bool {
        self.valid.as_ref().is_none_or(|v| v[r])
    }

    /// Mean and sum of squared deviations over all rows, summed in row
    /// order exactly as the scalar formula sums a fully co-present pair.
    /// `None` when the column has nulls.
    fn own_moments(&self) -> Option<(f64, f64)> {
        if self.valid.is_some() {
            return None;
        }
        let mean = self.values.iter().sum::<f64>() / self.values.len() as f64;
        let ss = self.values.iter().fold(0.0, |acc, &x| acc + (x - mean) * (x - mean));
        Some((mean, ss))
    }
}

/// |Pearson| of every unordered pair of numeric views.
pub(crate) struct PairCorrelations {
    m: usize,
    /// Row-major upper triangle: entry `(p, q)`, `p < q`.
    corr: Vec<f64>,
}

impl PairCorrelations {
    /// Run the tiled pass over `views` (all of one length) on up to
    /// `n_threads` runtime threads. The result is independent of
    /// `n_threads`: every pair is a pure function of its two columns.
    pub(crate) fn compute(views: &[&NumericView], n_threads: usize) -> PairCorrelations {
        let m = views.len();
        let moments: Vec<Option<(f64, f64)>> = views.iter().map(|v| v.own_moments()).collect();
        // Columns without nulls first, so their tiles take the no-null
        // path against every other column without nulls.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&p| moments[p].is_none());
        // Tile t sweeps the (t + 1) * LANES columns up to its end, so
        // the last tiles are the heaviest: hand them out first.
        let tiles: Vec<usize> = (0..m.div_ceil(LANES)).rev().collect();
        let swept: Vec<Vec<[f64; LANES]>> =
            catdb_runtime::parallel_map(n_threads, &tiles, |_, &t| {
                let end = ((t + 1) * LANES).min(m);
                let lanes: Vec<_> =
                    order[t * LANES..end].iter().map(|&p| (views[p], moments[p])).collect();
                let tile = Tile::pack(&lanes);
                order[..end]
                    .iter()
                    .map(|&p| match (tile.no_nulls, moments[p]) {
                        (true, Some(own)) => tile.sweep_no_nulls(&views[p].values, own),
                        _ => tile.sweep(views[p]),
                    })
                    .collect()
            });

        let mut out = PairCorrelations { m, corr: vec![0.0; m * m.saturating_sub(1) / 2] };
        for (&t, rows) in tiles.iter().zip(&swept) {
            for (a, lanes) in rows.iter().enumerate() {
                for (l, &r) in lanes.iter().enumerate().take(m - t * LANES) {
                    let b = t * LANES + l;
                    if a < b {
                        let (p, q) = (order[a], order[b]);
                        let idx = out.index(p.min(q), p.max(q));
                        out.corr[idx] = r;
                    }
                }
            }
        }
        out
    }

    fn index(&self, p: usize, q: usize) -> usize {
        debug_assert!(p < q && q < self.m);
        p * (2 * self.m - p - 1) / 2 + (q - p - 1)
    }

    /// |Pearson| of views `p` and `q` (`p != q`). Symmetric: the scalar
    /// formula is, bit for bit, because its products commute.
    pub(crate) fn get(&self, p: usize, q: usize) -> f64 {
        self.corr[self.index(p.min(q), p.max(q))]
    }
}

/// Up to [`LANES`] columns, row-interleaved. Unused lanes hold `-0.0`
/// with validity off, so they count no rows and their results are
/// dropped.
struct Tile {
    values: Vec<[f64; LANES]>,
    /// All ones where the lane's row is present, else zero.
    masks: Vec<[u64; LANES]>,
    /// Every lane's column has no nulls.
    no_nulls: bool,
    /// When `no_nulls`: values minus each lane column's own mean.
    centred: Vec<[f64; LANES]>,
    /// When `no_nulls`: each lane column's own sum of squared deviations.
    ss: [f64; LANES],
}

impl Tile {
    /// Pack up to [`LANES`] columns, each with its own moments when it
    /// has no nulls.
    fn pack(lanes: &[(&NumericView, Option<(f64, f64)>)]) -> Tile {
        let rows = lanes.first().map_or(0, |(v, _)| v.values.len());
        let mut values = vec![[-0.0; LANES]; rows];
        let mut masks = vec![[0u64; LANES]; rows];
        for (l, (view, _)) in lanes.iter().enumerate() {
            for r in 0..rows {
                values[r][l] = view.values[r];
                masks[r][l] = if view.is_valid(r) { u64::MAX } else { 0 };
            }
        }
        let no_nulls = lanes.iter().all(|(_, own)| own.is_some());
        let mut centred = Vec::new();
        let mut ss = [0.0; LANES];
        if no_nulls {
            let mut means = [0.0; LANES];
            for (l, (_, own)) in lanes.iter().enumerate() {
                (means[l], ss[l]) = own.expect("no-null lanes have own moments");
            }
            centred = values.iter().map(|y| std::array::from_fn(|l| y[l] - means[l])).collect();
        }
        Tile { values, masks, no_nulls, centred, ss }
    }

    /// The general path: column `x` against every lane, over the rows
    /// where both are present.
    fn sweep(&self, x: &NumericView) -> [f64; LANES] {
        let mut out = [0.0; LANES];
        for b in (0..LANES).step_by(BLOCK) {
            out[b..b + BLOCK].copy_from_slice(&self.sweep_block(x, b));
        }
        out
    }

    /// [`Tile::sweep`] over lanes `b..b + BLOCK`, two lanes per register.
    fn sweep_block(&self, x: &NumericView, b: usize) -> [f64; BLOCK] {
        const V: usize = BLOCK / 2;
        let rows = || (0..self.values.len()).filter(|&r| x.is_valid(r));
        let at = |r: usize, k: usize| {
            let o = b + 2 * k;
            (F2::load(&self.values[r][o..o + 2]), Keep::load(&self.masks[r][o..o + 2]))
        };
        let mut n = [Count2::default(); V];
        let mut sx = [F2::splat(-0.0); V];
        let mut sy = [F2::splat(-0.0); V];
        for r in rows() {
            let xr = F2::splat(x.values[r]);
            for k in 0..V {
                let (y, keep) = at(r, k);
                n[k] = n[k].add(keep);
                sx[k] = sx[k].add(keep.select(xr));
                // Absent y rows hold -0.0 already.
                sy[k] = sy[k].add(y);
            }
        }
        let nf: [F2; V] = std::array::from_fn(|k| n[k].to_f2());
        let mx: [F2; V] = std::array::from_fn(|k| sx[k].div(nf[k]));
        let my: [F2; V] = std::array::from_fn(|k| sy[k].div(nf[k]));
        let mut cov = [F2::splat(0.0); V];
        let mut vx = [F2::splat(0.0); V];
        let mut vy = [F2::splat(0.0); V];
        for r in rows() {
            let xr = F2::splat(x.values[r]);
            for k in 0..V {
                let (y, keep) = at(r, k);
                let dx = xr.sub(mx[k]);
                let dy = y.sub(my[k]);
                cov[k] = cov[k].add(keep.select(dx.mul(dy)));
                vx[k] = vx[k].add(keep.select(dx.mul(dx)));
                vy[k] = vy[k].add(keep.select(dy.mul(dy)));
            }
        }
        std::array::from_fn(|l| {
            let (k, h) = (l / 2, l % 2);
            finish(n[k].get(h), cov[k].get(h), vx[k].get(h), vy[k].get(h))
        })
    }

    /// The no-null path: `x` and every lane are fully present, so only
    /// the covariance is pair-specific.
    fn sweep_no_nulls(&self, x: &[f64], (mean, ss): (f64, f64)) -> [f64; LANES] {
        let mut cov = [F2::splat(0.0); LANES / 2];
        for (&xr, c) in x.iter().zip(&self.centred) {
            let dx = F2::splat(xr - mean);
            for (k, acc) in cov.iter_mut().enumerate() {
                *acc = acc.add(dx.mul(F2::load(&c[2 * k..2 * k + 2])));
            }
        }
        std::array::from_fn(|l| finish(x.len() as u64, cov[l / 2].get(l % 2), ss, self.ss[l]))
    }
}

/// The scalar formula's guards and final ratio.
fn finish(n: u64, cov: f64, vx: f64, vy: f64) -> f64 {
    if n < 3 || vx < 1e-12 || vy < 1e-12 {
        return 0.0;
    }
    (cov / (vx.sqrt() * vy.sqrt())).abs()
}

// Two-lane vector primitives: SSE2 registers on x86_64, where SSE2 is
// part of the baseline (no runtime detection), and plain pairs elsewhere.
// Every operation is the element-wise IEEE operation, so both give the
// scalar formula's bits.
#[cfg(not(target_arch = "x86_64"))]
use lanes_portable::{Count2, Keep, F2};
#[cfg(target_arch = "x86_64")]
use lanes_sse2::{Count2, Keep, F2};

#[cfg(target_arch = "x86_64")]
mod lanes_sse2 {
    //! SAFETY (every `unsafe` block here): SSE2 is part of the x86_64
    //! baseline, so its intrinsics are always available; the loads and
    //! stores go through references of exactly the accessed size.
    use std::arch::x86_64::*;

    /// Two `f64` lanes.
    #[derive(Clone, Copy)]
    pub(super) struct F2(__m128d);

    impl F2 {
        #[inline(always)]
        pub(super) fn splat(x: f64) -> F2 {
            unsafe { F2(_mm_set1_pd(x)) }
        }
        #[inline(always)]
        pub(super) fn load(s: &[f64]) -> F2 {
            let s: &[f64; 2] = s.try_into().expect("two lanes");
            unsafe { F2(_mm_loadu_pd(s.as_ptr())) }
        }
        #[inline(always)]
        pub(super) fn add(self, o: F2) -> F2 {
            unsafe { F2(_mm_add_pd(self.0, o.0)) }
        }
        #[inline(always)]
        pub(super) fn sub(self, o: F2) -> F2 {
            unsafe { F2(_mm_sub_pd(self.0, o.0)) }
        }
        #[inline(always)]
        pub(super) fn mul(self, o: F2) -> F2 {
            unsafe { F2(_mm_mul_pd(self.0, o.0)) }
        }
        #[inline(always)]
        pub(super) fn div(self, o: F2) -> F2 {
            unsafe { F2(_mm_div_pd(self.0, o.0)) }
        }
        pub(super) fn get(self, h: usize) -> f64 {
            let mut out = [0.0; 2];
            unsafe { _mm_storeu_pd(out.as_mut_ptr(), self.0) };
            out[h]
        }
    }

    /// Per-lane row masks (all ones = present) and the `-0.0` fill of
    /// the absent lanes.
    #[derive(Clone, Copy)]
    pub(super) struct Keep {
        mask: __m128d,
        fill: __m128d,
    }

    impl Keep {
        #[inline(always)]
        pub(super) fn load(s: &[u64]) -> Keep {
            let s: &[u64; 2] = s.try_into().expect("two lanes");
            unsafe {
                let mask = _mm_castsi128_pd(_mm_loadu_si128(s.as_ptr().cast()));
                Keep { mask, fill: _mm_andnot_pd(mask, _mm_set1_pd(-0.0)) }
            }
        }
        /// `x` in present lanes, `-0.0` in absent ones.
        #[inline(always)]
        pub(super) fn select(self, x: F2) -> F2 {
            unsafe { F2(_mm_or_pd(_mm_and_pd(self.mask, x.0), self.fill)) }
        }
    }

    /// Two lanes of present-row counts.
    #[derive(Clone, Copy)]
    pub(super) struct Count2(__m128i);

    impl Default for Count2 {
        fn default() -> Count2 {
            unsafe { Count2(_mm_setzero_si128()) }
        }
    }

    impl Count2 {
        /// Count the present lanes (a mask lane of all ones is -1).
        #[inline(always)]
        pub(super) fn add(self, keep: Keep) -> Count2 {
            unsafe { Count2(_mm_sub_epi64(self.0, _mm_castpd_si128(keep.mask))) }
        }
        pub(super) fn get(self, h: usize) -> u64 {
            let mut out = [0u64; 2];
            unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), self.0) };
            out[h]
        }
        #[inline(always)]
        pub(super) fn to_f2(self) -> F2 {
            let mut out = [0.0; 2];
            for (h, o) in out.iter_mut().enumerate() {
                *o = self.get(h) as f64;
            }
            F2::load(&out)
        }
    }
}

// Compiled in tests on x86_64 too, where it is checked against SSE2.
#[cfg(any(test, not(target_arch = "x86_64")))]
mod lanes_portable {
    #[derive(Clone, Copy)]
    pub(super) struct F2([f64; 2]);

    impl F2 {
        pub(super) fn splat(x: f64) -> F2 {
            F2([x; 2])
        }
        pub(super) fn load(s: &[f64]) -> F2 {
            F2(s.try_into().expect("two lanes"))
        }
        pub(super) fn add(self, o: F2) -> F2 {
            F2([self.0[0] + o.0[0], self.0[1] + o.0[1]])
        }
        pub(super) fn sub(self, o: F2) -> F2 {
            F2([self.0[0] - o.0[0], self.0[1] - o.0[1]])
        }
        pub(super) fn mul(self, o: F2) -> F2 {
            F2([self.0[0] * o.0[0], self.0[1] * o.0[1]])
        }
        pub(super) fn div(self, o: F2) -> F2 {
            F2([self.0[0] / o.0[0], self.0[1] / o.0[1]])
        }
        pub(super) fn get(self, h: usize) -> f64 {
            self.0[h]
        }
    }

    #[derive(Clone, Copy)]
    pub(super) struct Keep([u64; 2]);

    impl Keep {
        pub(super) fn load(s: &[u64]) -> Keep {
            Keep(s.try_into().expect("two lanes"))
        }
        pub(super) fn select(self, x: F2) -> F2 {
            let pick = |h: usize| {
                f64::from_bits((x.0[h].to_bits() & self.0[h]) | (!self.0[h] & (1 << 63)))
            };
            F2([pick(0), pick(1)])
        }
    }

    #[derive(Clone, Copy, Default)]
    pub(super) struct Count2([u64; 2]);

    impl Count2 {
        pub(super) fn add(self, keep: Keep) -> Count2 {
            Count2([self.0[0] + (keep.0[0] & 1), self.0[1] + (keep.0[1] & 1)])
        }
        pub(super) fn get(self, h: usize) -> u64 {
            self.0[h]
        }
        pub(super) fn to_f2(self) -> F2 {
            F2([self.0[0] as f64, self.0[1] as f64])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng, StdRng};

    /// The scalar per-pair kernel the tiled pass replaced, verbatim: the
    /// bit-level reference.
    fn pearson_abs(a: &Column, b: &Column) -> f64 {
        let av = a.to_f64_vec();
        let bv = b.to_f64_vec();
        let pairs: Vec<(f64, f64)> =
            av.iter().zip(&bv).filter_map(|(x, y)| Some(((*x)?, (*y)?))).collect();
        if pairs.len() < 3 {
            return 0.0;
        }
        let n = pairs.len() as f64;
        let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for (x, y) in &pairs {
            cov += (x - mx) * (y - my);
            vx += (x - mx).powi(2);
            vy += (y - my).powi(2);
        }
        if vx < 1e-12 || vy < 1e-12 {
            return 0.0;
        }
        (cov / (vx.sqrt() * vy.sqrt())).abs()
    }

    /// A random column of `rows` rows drawn to hit the kernel's edge
    /// cases: nulls (none, some, or nearly all), ±0.0, ±inf, NaN,
    /// constants, and integer columns.
    fn random_column(rng: &mut StdRng, rows: usize) -> Column {
        let null_share = [0.0, 0.0, 0.1, 0.5, 0.95][rng.gen_range(0..5usize)];
        let special_share = [0.0, 0.0, 0.02, 0.3][rng.gen_range(0..4usize)];
        let constant = rng.gen_range(0..6) == 0;
        let base: f64 = rng.gen_range(-1e3..1e3);
        if rng.gen_range(0..4) == 0 {
            let cells = (0..rows)
                .map(|_| {
                    let v = if constant { 7 } else { rng.gen_range(-50i64..50) };
                    (rng.gen::<f64>() >= null_share).then_some(v)
                })
                .collect();
            return Column::Int(cells);
        }
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN];
        let cells = (0..rows)
            .map(|_| {
                let v = if rng.gen::<f64>() < special_share {
                    specials[rng.gen_range(0..specials.len())]
                } else if constant {
                    base
                } else {
                    base + rng.gen_range(-10.0..10.0) * rng.gen_range(0.0..1e3)
                };
                (rng.gen::<f64>() >= null_share).then_some(v)
            })
            .collect();
        Column::Float(cells)
    }

    fn check_against_reference(cols: &[Column], n_threads: usize) {
        let views: Vec<NumericView> = cols.iter().map(|c| NumericView::new(c).unwrap()).collect();
        let refs: Vec<&NumericView> = views.iter().collect();
        let corr = PairCorrelations::compute(&refs, n_threads);
        for p in 0..cols.len() {
            for q in p + 1..cols.len() {
                let want = pearson_abs(&cols[p], &cols[q]);
                let got = corr.get(p, q);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "pair ({p}, {q}) of {}: tiled {got:e} vs scalar {want:e}\n{:?}\n{:?}",
                    cols.len(),
                    cols[p],
                    cols[q]
                );
                assert_eq!(corr.get(q, p).to_bits(), got.to_bits());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Row and column counts straddle multiples of `LANES`, and the
        /// row count reaches below the 3-row guard.
        #[test]
        fn tiled_pass_is_bit_identical_to_scalar_pearson(
            seed in 0u64..u64::MAX,
            rows in 0usize..40,
            n_cols in 1usize..(3 * LANES + 2),
            n_threads in 1usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cols: Vec<Column> = (0..n_cols).map(|_| random_column(&mut rng, rows)).collect();
            check_against_reference(&cols, n_threads);
        }
    }

    #[test]
    fn full_columns_take_the_no_null_path_bit_identically() {
        // Correlated, null-free columns across two full tiles plus a
        // column with nulls, so every kernel pairing is exercised.
        let rows = 203;
        let mut rng = StdRng::seed_from_u64(7);
        let base: Vec<f64> = (0..rows).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut cols: Vec<Column> = (0..2 * LANES + 1)
            .map(|k| {
                Column::Float(
                    base.iter().map(|b| Some(b * k as f64 + rng.gen_range(-1.0..1.0))).collect(),
                )
            })
            .collect();
        cols.push(Column::Float(
            base.iter().enumerate().map(|(r, b)| (r % 3 != 0).then_some(-b)).collect(),
        ));
        check_against_reference(&cols, 2);
    }

    /// The portable lanes are what non-x86_64 targets run the kernel on:
    /// they must agree with SSE2 bit for bit, specials included.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn portable_lanes_match_sse2_bit_for_bit() {
        use super::{lanes_portable as p, lanes_sse2 as x};
        let specials = [0.0, -0.0, 1.5, -3.25, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e-300];
        let mut rng = StdRng::seed_from_u64(11);
        let mut draw = || -> [f64; 2] {
            std::array::from_fn(|_| {
                if rng.gen_range(0..3usize) == 0 {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(-1e6..1e6)
                }
            })
        };
        let bits = |v: [f64; 2]| v.map(f64::to_bits);
        for _ in 0..2000 {
            let (a, b) = (draw(), draw());
            let masks = [[u64::MAX, 0], [0, u64::MAX], [u64::MAX; 2], [0; 2]];
            let (pa, pb, xa, xb) =
                (p::F2::load(&a), p::F2::load(&b), x::F2::load(&a), x::F2::load(&b));
            let pairs = [
                (pa.add(pb), xa.add(xb)),
                (pa.sub(pb), xa.sub(xb)),
                (pa.mul(pb), xa.mul(xb)),
                (pa.div(pb), xa.div(xb)),
                (p::F2::splat(a[1]), x::F2::splat(a[1])),
            ];
            for (pv, xv) in pairs {
                assert_eq!(
                    bits([pv.get(0), pv.get(1)]),
                    bits([xv.get(0), xv.get(1)]),
                    "{a:?} {b:?}"
                );
            }
            for m in masks {
                let (pk, xk) = (p::Keep::load(&m), x::Keep::load(&m));
                let (ps, xs) = (pk.select(pa), xk.select(xa));
                assert_eq!(bits([ps.get(0), ps.get(1)]), bits([xs.get(0), xs.get(1)]));
                let (pc, xc) =
                    (p::Count2::default().add(pk).add(pk), x::Count2::default().add(xk).add(xk));
                assert_eq!([pc.get(0), pc.get(1)], [xc.get(0), xc.get(1)]);
                let (pf, xf) = (pc.to_f2(), xc.to_f2());
                assert_eq!(bits([pf.get(0), pf.get(1)]), bits([xf.get(0), xf.get(1)]));
            }
        }
    }

    #[test]
    fn present_values_skip_nulls_and_match_to_f64_vec() {
        let col = Column::Int(vec![Some(3), None, Some(-1), None]);
        let view = NumericView::new(&col).unwrap();
        let want: Vec<f64> = col.to_f64_vec().into_iter().flatten().collect();
        assert_eq!(view.present().collect::<Vec<_>>(), want);
        assert!(NumericView::new(&Column::Bool(vec![Some(true)])).is_none());
    }
}
