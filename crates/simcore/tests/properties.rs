//! Property-style tests for the simcore statistics primitives.
//!
//! No external property-testing framework: cases are generated in seeded
//! `Pcg32` loops, so the suite is deterministic, dependency-free, and every
//! failure reproduces from the loop seed printed in the assertion message.
//!
//! Pinned invariants:
//!
//! * quantiles are monotone in `q` and bounded by `[min, max]` — for both
//!   the exact `Ecdf` and the sketching `Histogram`;
//! * `Histogram::merge` is associative and equivalent to recording the
//!   union of samples directly (the property the sharded telemetry merge
//!   in `soc-cluster` relies on);
//! * `Pcg32` streams derived from distinct `(seed, stream)` pairs are
//!   independent, and equal pairs reproduce bit-identical sequences (the
//!   property the per-rack shard RNG derivation relies on);
//! * the Box–Muller normal stream is pinned bit for bit;
//! * `fill_standard_normal` (the polar method) draws standard normals
//!   (mean, variance, Kolmogorov–Smirnov distance to Φ), its pair members
//!   are uncorrelated, it is deterministic, and a fill of either parity
//!   consumes whole pairs.

use simcore::hist::Histogram;
use simcore::rng::Pcg32;
use simcore::stats::{percentile, Ecdf};

/// Draw `n` non-negative samples from a mix of shapes so buckets spread
/// over several orders of magnitude.
fn samples(rng: &mut Pcg32, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| match i % 4 {
            0 => rng.gen_range_f64(0.0, 1.0),
            1 => rng.gen_range_f64(1.0, 100.0),
            2 => rng.sample_exp(0.01),
            _ => rng.sample_lognormal(2.0, 1.0),
        })
        .collect()
}

#[test]
fn ecdf_quantiles_are_monotone_and_bounded() {
    for case in 0..50u64 {
        let mut rng = Pcg32::seed_from_u64(1000 + case);
        let n = 1 + rng.gen_index(400);
        let xs = samples(&mut rng, n);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let ecdf = Ecdf::from_samples(&xs);
        let mut prev = f64::NEG_INFINITY;
        for step in 0..=100 {
            let q = f64::from(step) / 100.0;
            let v = ecdf.quantile(q);
            assert!(v >= prev, "case {case}: quantile not monotone at q={q}");
            assert!(
                (min..=max).contains(&v),
                "case {case}: quantile({q})={v} outside [{min}, {max}]"
            );
            prev = v;
        }
        assert_eq!(ecdf.quantile(0.0), min, "case {case}: q=0 must be the min");
        assert_eq!(ecdf.quantile(1.0), max, "case {case}: q=1 must be the max");
    }
}

#[test]
fn percentile_agrees_with_ecdf_and_is_bounded() {
    for case in 0..50u64 {
        let mut rng = Pcg32::seed_from_u64(2000 + case);
        let n = 1 + rng.gen_index(200);
        let xs = samples(&mut rng, n);
        let ecdf = Ecdf::from_samples(&xs);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            // `percentile` is scaled 0–100, `Ecdf::quantile` 0–1; same math.
            let v = percentile(&xs, q * 100.0);
            assert_eq!(
                v,
                ecdf.quantile(q),
                "case {case}: percentile and Ecdf::quantile disagree at q={q}"
            );
        }
    }
}

#[test]
fn histogram_quantiles_are_monotone_and_bounded() {
    for case in 0..30u64 {
        let mut rng = Pcg32::seed_from_u64(3000 + case);
        let n = 1 + rng.gen_index(500);
        let xs = samples(&mut rng, n);
        let mut h = Histogram::new(0.01);
        for &x in &xs {
            h.record(x);
        }
        // Sketch buckets widen values by at most the relative precision.
        let lo = h.min() * (1.0 - 0.011);
        let hi = h.max() * (1.0 + 0.011);
        let mut prev = f64::NEG_INFINITY;
        for step in 0..=100 {
            let q = f64::from(step) / 100.0;
            let v = h.quantile(q);
            assert!(
                v >= prev,
                "case {case}: histogram quantile not monotone at q={q}"
            );
            assert!(
                v >= lo && v <= hi,
                "case {case}: quantile({q})={v} outside [{lo}, {hi}]"
            );
            prev = v;
        }
    }
}

#[test]
fn histogram_merge_is_associative() {
    for case in 0..30u64 {
        let mut rng = Pcg32::seed_from_u64(4000 + case);
        let parts: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                let n = 1 + rng.gen_index(150);
                samples(&mut rng, n)
            })
            .collect();
        let hist_of = |xs: &[f64]| {
            let mut h = Histogram::new(0.01);
            for &x in xs {
                h.record(x);
            }
            h
        };
        let (a, b, c) = (hist_of(&parts[0]), hist_of(&parts[1]), hist_of(&parts[2]));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.count(), right.count(), "case {case}: counts differ");
        assert_eq!(left.min(), right.min(), "case {case}: min differs");
        assert_eq!(left.max(), right.max(), "case {case}: max differs");
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(
                left.quantile(q),
                right.quantile(q),
                "case {case}: quantile({q}) differs between associations"
            );
        }
        // Bucket sums are float additions in different orders; means agree
        // only to rounding.
        assert!(
            (left.mean() - right.mean()).abs() <= 1e-9 * left.mean().abs().max(1.0),
            "case {case}: means differ beyond float tolerance"
        );
    }
}

#[test]
fn histogram_merge_equals_recording_the_union() {
    for case in 0..30u64 {
        let mut rng = Pcg32::seed_from_u64(5000 + case);
        let nx = 1 + rng.gen_index(200);
        let xs = samples(&mut rng, nx);
        let ny = 1 + rng.gen_index(200);
        let ys = samples(&mut rng, ny);
        let mut merged = Histogram::new(0.01);
        for &x in &xs {
            merged.record(x);
        }
        let mut other = Histogram::new(0.01);
        for &y in &ys {
            other.record(y);
        }
        merged.merge(&other);
        let mut direct = Histogram::new(0.01);
        for &v in xs.iter().chain(ys.iter()) {
            direct.record(v);
        }
        assert_eq!(merged.count(), direct.count(), "case {case}: counts differ");
        assert_eq!(merged.min(), direct.min(), "case {case}: min differs");
        assert_eq!(merged.max(), direct.max(), "case {case}: max differs");
        for q in [0.0, 0.1, 0.5, 0.9, 0.999, 1.0] {
            assert_eq!(
                merged.quantile(q),
                direct.quantile(q),
                "case {case}: quantile({q}) differs from direct recording"
            );
        }
    }
}

#[test]
fn rng_streams_reproduce_and_distinct_pairs_diverge() {
    // Equal (seed, stream) pairs → bit-identical sequences: the shard layer
    // derives one stream per rack and replays it on any thread count.
    for seed in [0u64, 1, 42, u64::MAX] {
        for stream in [0u64, 1, 7, 1 << 40] {
            let a: Vec<u64> = {
                let mut r = Pcg32::new(seed, stream);
                (0..64).map(|_| r.next_u64()).collect()
            };
            let b: Vec<u64> = {
                let mut r = Pcg32::new(seed, stream);
                (0..64).map(|_| r.next_u64()).collect()
            };
            assert_eq!(a, b, "({seed}, {stream}) must reproduce exactly");
        }
    }
    // Distinct (seed, stream) pairs → distinct sequences. 64 draws of 64
    // bits colliding by chance is ~2^-4096; any equality is a derivation
    // bug (e.g. the stream being ignored).
    let pairs: Vec<(u64, u64)> = (0..8)
        .flat_map(|seed| (0..8).map(move |rack| (seed, rack)))
        .collect();
    let sequences: Vec<Vec<u64>> = pairs
        .iter()
        .map(|&(seed, rack)| {
            let mut r = Pcg32::new(seed, rack);
            (0..64).map(|_| r.next_u64()).collect()
        })
        .collect();
    for i in 0..sequences.len() {
        for j in (i + 1)..sequences.len() {
            assert_ne!(
                sequences[i], sequences[j],
                "pairs {:?} and {:?} produced the same stream",
                pairs[i], pairs[j]
            );
        }
    }
}

#[test]
fn forked_rng_does_not_echo_the_parent() {
    for seed in 0..16u64 {
        let mut parent = Pcg32::seed_from_u64(seed);
        let mut fork = parent.fork(1);
        let parent_seq: Vec<u64> = (0..32).map(|_| parent.next_u64()).collect();
        let fork_seq: Vec<u64> = (0..32).map(|_| fork.next_u64()).collect();
        assert_ne!(parent_seq, fork_seq, "seed {seed}: fork mirrors its parent");
    }
}

/// The first 64 `sample_standard_normal` draws of `Pcg32::seed_from_u64(42)`
/// and of seed 1009, as raw bits. The microservice log-normal, prediction
/// evaluation and inference draw from this Box–Muller sampler; its stream
/// must not move when other samplers are added beside it.
#[rustfmt::skip]
const BOX_MULLER_SEED_42: [u64; 64] = [
    0x3ff08f46c501f51a, 0xbfd5b3c7532835bd, 0xbfc42c5a6569ce3f, 0xbfe8319a5d481075,
    0xbfdbf5f18d4228fe, 0x3ff75435728c8cf6, 0x4004c8e16ee01795, 0xbff0e06eb64fbdb7,
    0x3fe3fb344dba2f43, 0x3fcf440753ed9751, 0x3ff287c850250d82, 0xbff1ca0db7ff32e0,
    0x3fd02f28d2e1b941, 0xbfea6d80aa3636b8, 0xbf898c45641b0f3c, 0xbfe96e37f1b29c49,
    0xbfd3a71013ab3f47, 0xbfed431be581aaaf, 0xbfa1099dbb4d3d63, 0xbfab5932b03f961b,
    0xbfcaf09f0dea2106, 0x400c0a96db1595bf, 0xbfabfead7bf2f1de, 0xbff174c7010391f8,
    0xbfbbc71dc167bb21, 0x3fe3eb0605175e97, 0x3ff79785874fe8f6, 0x3f7e304e95938a1d,
    0x3fe8f26233586a2e, 0xbfddf0f875c3053e, 0x3fe1500515d492f1, 0x3fe0abde2abedcd4,
    0x3fdd0bc66510d656, 0xbfd31e670ab3d416, 0x3fe2d3511140ead8, 0xbff0e11d3e6c4b30,
    0x3fed223b964cb905, 0x3fd7905b724edaff, 0xbffb494751d93849, 0xbfe61908fab664bf,
    0x3fda0d3d2b79b9fa, 0xbfdfd537ba770069, 0x3fefa0bef68e9012, 0x3feb42f66f0ddf01,
    0x3fd1f179d9ab51df, 0xbfbc6bfdfab16c8d, 0x3feeef03c81f9584, 0xbfd623119c682659,
    0xc000e733b1778384, 0xc000b05a4855e622, 0xbfe58dcfc93a69ff, 0x400284e9cf2a6c56,
    0x3ff0bbf5acbfe424, 0xbff603f52cc920ee, 0x3fee11af81460a7b, 0x3feed2bd6cea1ac2,
    0x3fd46ddf32d71f6c, 0xbfe121c3988e57a2, 0x3fbbe97097912692, 0x3fc73179b696bdc7,
    0x3fdd46572bf66ae6, 0x3fcd63eba311bfae, 0x3fe3eea6bb09186b, 0x3fe3ec96977e15da,
];

#[rustfmt::skip]
const BOX_MULLER_SEED_1009: [u64; 64] = [
    0xbff974bf8f4cf5de, 0x3fd0d205f7e56803, 0xbfc7ef867277080b, 0x3fc282e3355eb087,
    0xbfef5839b3f2158a, 0xbff2989971c7f48a, 0xbfe57b4607d8c0ae, 0x3fed088015190c2b,
    0x3ff917adaee408fb, 0x3ffc14677926f4ae, 0xbfcb2c84cbf0bd90, 0xbfd040e5046c464d,
    0xbfcf4c502ffdb4ce, 0xbfde12f217d5b43a, 0x3ffef336be709e8d, 0xbfc6d780b9c8d7ff,
    0x3fdc5751f1360d3d, 0x3fe955a9026b16ee, 0x3fd6a1a5b77dde60, 0xbfe16f3c22928b2e,
    0x3fd5dfef9063eaee, 0xbfe70de69d3a273d, 0x3fc27f7e5624d46e, 0x3ff5da82a99a9f52,
    0x3ff6593278595383, 0xbfcb8b47744b6dec, 0x3fe11976e2a9503a, 0xbff03d668433178b,
    0xbfd3f7d5fbd59fa2, 0xbfe271198b0fda11, 0xbf91b457ee724b51, 0xbfe01fdb0ee16a01,
    0xbfe109722b82f59c, 0xbff30840cbc21d0f, 0x3fd5be0c7a44dae6, 0xbff6b3af8c2301ba,
    0x3fd3776d26d849b7, 0xbfb61d643794d7d6, 0x3fbed9e428e62fe0, 0xbfc98957f015b102,
    0xbffd2311a3651a64, 0xbfb2ad5bece96d22, 0x3ff252b55b73f786, 0xbfe48f4e4608a278,
    0xbfd03d9a9778acd0, 0x3febeaf945d30b6d, 0xbff6c745a441d23f, 0x3febd4badf49d6fa,
    0x3fbd298a5975fe46, 0x3fdd1e8eb54895a5, 0xbfe2b63cfc91f569, 0xbff379875fbcafdd,
    0xbff0f000e97575c6, 0xbfdf1ac1885b073e, 0x3fd3884a000c552a, 0x3fdf052c86d9514c,
    0x3ff18d9eca9d7dbd, 0xbfda02b7aceb3273, 0xbffc1c0928a5bcf4, 0x3fcfad371eeacf1d,
    0xbfcb2c9f6abd0bfa, 0xbff4dfa4958a9a3e, 0x3ff8d5832a920fa3, 0x3f5e71942a1fb11f,
];

#[test]
fn box_muller_stream_is_pinned() {
    for (seed, pinned) in [(42, &BOX_MULLER_SEED_42), (1009, &BOX_MULLER_SEED_1009)] {
        let mut rng = Pcg32::seed_from_u64(seed);
        for (i, &bits) in pinned.iter().enumerate() {
            let x = rng.sample_standard_normal();
            assert_eq!(x.to_bits(), bits, "seed {seed}: draw {i} is {x}");
        }
    }
}

/// Φ, the standard normal CDF, via the Abramowitz–Stegun 7.1.26 `erf`
/// (absolute error below 1.5e-7, far under the KS bound below).
fn normal_cdf(x: f64) -> f64 {
    let z = x.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * z);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-z * z).exp();
    if x >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    }
}

fn polar_draws(seed: u64, n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n];
    Pcg32::seed_from_u64(seed).fill_standard_normal(&mut out);
    out
}

#[test]
fn polar_normals_match_the_standard_normal() {
    const N: usize = 100_000;
    for seed in [1u64, 42, 1009, 0xdead_beef] {
        let mut xs = polar_draws(seed, N);
        let n = N as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        // Standard errors: 1/sqrt(N) ≈ 0.0032 for the mean, sqrt(2/N) ≈
        // 0.0045 for the variance; the bounds sit at about 5 of them.
        assert!(mean.abs() < 0.016, "seed {seed}: mean {mean}");
        assert!((var - 1.0).abs() < 0.023, "seed {seed}: variance {var}");
        // Kolmogorov–Smirnov distance to Φ. The 0.1 % critical value is
        // 1.95 / sqrt(N) ≈ 0.0062.
        xs.sort_by(f64::total_cmp);
        let ks = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let cdf = normal_cdf(x);
                (cdf - i as f64 / n).abs().max((i as f64 + 1.0) / n - cdf)
            })
            .fold(0.0, f64::max);
        assert!(ks < 0.0062, "seed {seed}: KS distance {ks}");
    }
}

#[test]
fn polar_pair_members_are_uncorrelated() {
    for seed in [7u64, 42, 1009] {
        let xs = polar_draws(seed, 100_000);
        let (a, b): (Vec<f64>, Vec<f64>) = xs.chunks(2).map(|p| (p[0], p[1])).unzip();
        let n = a.len() as f64;
        let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
        let cov: f64 = a.iter().zip(&b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
        let r = cov / (va * vb).sqrt();
        // Standard error 1/sqrt(50 000) ≈ 0.0045.
        assert!(r.abs() < 0.02, "seed {seed}: pair correlation {r}");
    }
}

#[test]
fn polar_fill_is_deterministic_and_splits_at_pairs() {
    for seed in [0u64, 42, u64::MAX] {
        let whole = polar_draws(seed, 64);
        assert_eq!(
            whole.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            polar_draws(seed, 64)
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            "seed {seed}: same seed, different draws"
        );
        // Filling in even-length pieces continues the same stream.
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut pieces = vec![0.0; 64];
        for chunk in pieces.chunks_mut(16) {
            rng.fill_standard_normal(chunk);
        }
        assert_eq!(whole, pieces, "seed {seed}: split fill diverged");
    }
}

#[test]
fn polar_fill_consumes_whole_pairs() {
    for seed in [3u64, 42] {
        for pairs in 1..=8usize {
            let mut odd_rng = Pcg32::seed_from_u64(seed);
            let mut even_rng = odd_rng.clone();
            let mut odd = vec![0.0; 2 * pairs - 1];
            let mut even = vec![0.0; 2 * pairs];
            odd_rng.fill_standard_normal(&mut odd);
            even_rng.fill_standard_normal(&mut even);
            assert_eq!(odd[..], even[..odd.len()], "seed {seed}: prefixes differ");
            assert_eq!(
                odd_rng,
                even_rng,
                "seed {seed}: lengths {} and {} left the generator in different states",
                odd.len(),
                even.len()
            );
        }
        // An empty fill draws nothing.
        let mut rng = Pcg32::seed_from_u64(seed);
        rng.fill_standard_normal(&mut []);
        assert_eq!(rng, Pcg32::seed_from_u64(seed));
    }
}
