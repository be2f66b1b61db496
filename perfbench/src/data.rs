//! Seeded inputs: numerical columns drawn from a few distribution families, with
//! headers, plus the configurations the workloads fit with.

use gem_core::{Composition, GemColumn, GemConfig};
use gem_gmm::GmmConfig;
use gem_rand::rngs::StdRng;
use gem_rand::{Rng, SeedableRng};

const WORDS: [&str; 16] = [
    "price",
    "age",
    "year",
    "count",
    "rate",
    "score",
    "weight",
    "height",
    "amount",
    "duration",
    "temperature",
    "salary",
    "distance",
    "quantity",
    "latitude",
    "population",
];

/// A generator for one stream of inputs. Streams derived from the same seed and stream
/// number are identical.
pub struct Inputs {
    rng: StdRng,
    serial: u64,
}

impl Inputs {
    /// The input stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Inputs {
            rng: StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            serial: 0,
        }
    }

    /// The underlying generator, for request choices.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.rng.gen::<f64>();
        let u2: f64 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// One column of `n` values from a randomly chosen family, with a fresh header.
    pub fn column(&mut self, n: usize) -> GemColumn {
        self.serial += 1;
        let word = WORDS[self.rng.gen_range(0..WORDS.len())];
        let header = format!("{word}_{}", self.serial);
        let family = self.rng.gen_range(0..5usize);
        let location = self.rng.gen_range(-50.0..500.0);
        let scale = self.rng.gen_range(0.5..40.0);
        let values = (0..n)
            .map(|_| match family {
                0 => location + scale * self.normal(),
                1 => location + scale * self.rng.gen::<f64>(),
                2 => location - scale * (1.0 - self.rng.gen::<f64>()).ln(),
                3 => (location + scale * self.rng.gen::<f64>()).round(),
                _ => (location.abs().ln_1p() + 0.5 * self.normal()).exp(),
            })
            .collect();
        GemColumn::new(values, header)
    }

    /// `columns` fresh columns of `values` values each.
    pub fn corpus(&mut self, columns: usize, values: usize) -> Vec<GemColumn> {
        (0..columns).map(|_| self.column(values)).collect()
    }
}

/// EM iterations every restart runs: the tolerance is set below what EM reaches in this
/// many iterations, so a fit's cost does not depend on how quickly the seed's data
/// converges.
pub const EM_ITERATIONS: usize = 25;

/// The GEM configuration with `k` components and `restarts` EM restarts of
/// [`EM_ITERATIONS`] iterations (concatenation, parallel transforms, default header
/// dimension).
pub fn config(k: usize, restarts: usize) -> GemConfig {
    GemConfig {
        gmm: GmmConfig::with_components(k)
            .restarts(restarts)
            .with_tolerance(1e-12)
            .with_max_iterations(EM_ITERATIONS),
        composition: Composition::Concatenation,
        ..GemConfig::default()
    }
}
