//! Synthetic permeability models.
//!
//! The paper's simulations consume "highly detailed geomodels" that are proprietary.
//! In their place this module provides synthetic permeability generators that
//! exercise the same code path — the transmissibility computation and the
//! heterogeneous matrix-free operator — with controlled heterogeneity:
//!
//! * [`PermeabilityModel::Homogeneous`] — a single scalar permeability;
//! * [`PermeabilityModel::Layered`] — piecewise-constant layers along Z, the
//!   classic "layer-cake" reservoir description;
//! * [`PermeabilityModel::LogNormal`] — spatially uncorrelated log-normal
//!   permeability, the standard stochastic model for field heterogeneity;
//! * [`PermeabilityModel::Channelized`] — high-permeability sinusoidal channels in a
//!   low-permeability background, mimicking fluvial geomodels (SPE10-like contrast).

use crate::dims::Dims;
use crate::field::CellField;
use crate::rng::DeterministicRng;

/// Millidarcy expressed in square metres, the usual unit conversion for reservoir
/// permeability.
pub const MILLIDARCY: f64 = 9.869_233e-16;

/// A synthetic permeability model. All permeabilities are isotropic scalars, as in
/// the paper (Eq. 1a uses a scalar κ).
#[derive(Clone, Debug, PartialEq)]
pub enum PermeabilityModel {
    /// Uniform permeability everywhere (value in m²).
    Homogeneous { value: f64 },
    /// Horizontal layers along Z; `layer_values[z * layer_values.len() / nz]` is used
    /// for depth `z`.
    Layered { layer_values: Vec<f64> },
    /// Log-normal permeability: `exp(N(mean_log, std_log))` per cell, reproducible
    /// from `seed`.
    LogNormal {
        mean_log: f64,
        std_log: f64,
        seed: u64,
    },
    /// Sinusoidal high-permeability channels embedded in a background.
    Channelized {
        background: f64,
        channel: f64,
        /// Number of channels across the Y extent.
        num_channels: usize,
        /// Channel half-width in cells.
        half_width: f64,
        /// Amplitude of the sinusoidal meander, in cells.
        amplitude: f64,
        seed: u64,
    },
}

impl PermeabilityModel {
    /// A reasonable default: 100 mD homogeneous.
    pub fn default_homogeneous() -> Self {
        PermeabilityModel::Homogeneous {
            value: 100.0 * MILLIDARCY,
        }
    }

    /// Evaluate the model on a grid, producing a per-cell permeability field in m².
    pub fn generate(&self, dims: Dims) -> CellField<f64> {
        match self {
            PermeabilityModel::Homogeneous { value } => {
                assert!(*value > 0.0, "permeability must be positive");
                CellField::constant(dims, *value)
            }
            PermeabilityModel::Layered { layer_values } => {
                assert!(!layer_values.is_empty(), "at least one layer required");
                assert!(
                    layer_values.iter().all(|&v| v > 0.0),
                    "permeability must be positive"
                );
                let n_layers = layer_values.len();
                CellField::from_fn(dims, |c| {
                    let layer = (c.z * n_layers) / dims.nz;
                    layer_values[layer.min(n_layers - 1)]
                })
            }
            PermeabilityModel::LogNormal {
                mean_log,
                std_log,
                seed,
            } => {
                assert!(*std_log >= 0.0, "standard deviation must be non-negative");
                let mut rng = DeterministicRng::seed_from_u64(*seed);
                let mut values = Vec::with_capacity(dims.num_cells());
                for _ in 0..dims.num_cells() {
                    let z = sample_standard_normal(&mut rng);
                    values.push((mean_log + std_log * z).exp());
                }
                CellField::from_vec(dims, values)
            }
            PermeabilityModel::Channelized {
                background,
                channel,
                num_channels,
                half_width,
                amplitude,
                seed,
            } => {
                assert!(
                    *background > 0.0 && *channel > 0.0,
                    "permeability must be positive"
                );
                assert!(*num_channels > 0, "at least one channel required");
                let mut rng = DeterministicRng::seed_from_u64(*seed);
                // Random phase per channel so different seeds give different geometries.
                let phases: Vec<f64> = (0..*num_channels)
                    .map(|_| rng.gen_range(0.0..std::f64::consts::TAU))
                    .collect();
                let spacing = dims.ny as f64 / *num_channels as f64;
                CellField::from_fn(dims, |c| {
                    let x = c.x as f64;
                    let y = c.y as f64;
                    let mut inside = false;
                    for (k, phase) in phases.iter().enumerate() {
                        let center = (k as f64 + 0.5) * spacing
                            + amplitude
                                * (x / dims.nx.max(1) as f64 * std::f64::consts::TAU + phase).sin();
                        if (y - center).abs() <= *half_width {
                            inside = true;
                            break;
                        }
                    }
                    if inside {
                        *channel
                    } else {
                        *background
                    }
                })
            }
        }
    }

    /// The model with its random seed replaced, for stochastic models
    /// ([`LogNormal`](PermeabilityModel::LogNormal) /
    /// [`Channelized`](PermeabilityModel::Channelized)); deterministic models
    /// are returned unchanged.  Scenario sweeps use this to fan one spec
    /// across reproducible permeability realisations.
    pub fn reseeded(&self, seed: u64) -> Self {
        let mut model = self.clone();
        match &mut model {
            PermeabilityModel::LogNormal { seed: s, .. } => *s = seed,
            PermeabilityModel::Channelized { seed: s, .. } => *s = seed,
            PermeabilityModel::Homogeneous { .. } | PermeabilityModel::Layered { .. } => {}
        }
        model
    }

    /// Short human-readable label used in workload names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            PermeabilityModel::Homogeneous { .. } => "homogeneous",
            PermeabilityModel::Layered { .. } => "layered",
            PermeabilityModel::LogNormal { .. } => "log-normal",
            PermeabilityModel::Channelized { .. } => "channelized",
        }
    }
}

/// Box–Muller sample of a standard normal variate.
fn sample_standard_normal(rng: &mut DeterministicRng) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// Contrast ratio (max/min) of a permeability field — a quick heterogeneity metric
/// used in tests and reports.
pub fn contrast_ratio(perm: &CellField<f64>) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for &v in perm.as_slice() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    hi / lo
}

/// Arithmetic mean of a permeability field (explicitly sequential fold: the
/// value feeds reports that must be bitwise-reproducible).
pub fn mean(perm: &CellField<f64>) -> f64 {
    crate::reduce::seq_sum(perm.as_slice().iter().copied()) / perm.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::CellIndex;

    fn dims() -> Dims {
        Dims::new(8, 6, 10)
    }

    #[test]
    fn homogeneous_is_constant() {
        let f = PermeabilityModel::Homogeneous { value: 5.0 }.generate(dims());
        assert!(f.as_slice().iter().all(|&v| v == 5.0));
        assert_eq!(contrast_ratio(&f), 1.0);
        assert_eq!(mean(&f), 5.0);
    }

    #[test]
    fn layered_respects_depth() {
        let layers = vec![1.0, 10.0, 100.0];
        let f = PermeabilityModel::Layered {
            layer_values: layers.clone(),
        }
        .generate(dims());
        // nz = 10 with 3 layers: z in 0..=3 -> layer 0, 4..=6 -> layer 1, 7..=9 -> layer 2
        assert_eq!(f.at(CellIndex::new(0, 0, 0)), 1.0);
        assert_eq!(f.at(CellIndex::new(0, 0, 9)), 100.0);
        // Same value within one horizontal plane.
        for y in 0..6 {
            for x in 0..8 {
                assert_eq!(f.at(CellIndex::new(x, y, 5)), f.at(CellIndex::new(0, 0, 5)));
            }
        }
        assert!(contrast_ratio(&f) >= 100.0 - 1e-12);
    }

    #[test]
    fn log_normal_is_reproducible_and_positive() {
        let m = PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 1.0,
            seed: 42,
        };
        let a = m.generate(dims());
        let b = m.generate(dims());
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&v| v > 0.0));
        let c = PermeabilityModel::LogNormal {
            mean_log: 0.0,
            std_log: 1.0,
            seed: 43,
        }
        .generate(dims());
        assert_ne!(a, c);
    }

    #[test]
    fn log_normal_zero_std_is_exp_mean() {
        let m = PermeabilityModel::LogNormal {
            mean_log: 2.0,
            std_log: 0.0,
            seed: 1,
        };
        let f = m.generate(dims());
        for &v in f.as_slice() {
            assert!((v - 2.0f64.exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn channelized_contains_both_values() {
        let m = PermeabilityModel::Channelized {
            background: 1.0,
            channel: 1000.0,
            num_channels: 2,
            half_width: 1.0,
            amplitude: 1.5,
            seed: 7,
        };
        let f = m.generate(Dims::new(32, 32, 4));
        let has_bg = f.as_slice().contains(&1.0);
        let has_ch = f.as_slice().contains(&1000.0);
        assert!(has_bg && has_ch);
        assert_eq!(contrast_ratio(&f), 1000.0);
    }

    #[test]
    fn labels() {
        assert_eq!(
            PermeabilityModel::default_homogeneous().label(),
            "homogeneous"
        );
        assert_eq!(
            PermeabilityModel::Layered {
                layer_values: vec![1.0]
            }
            .label(),
            "layered"
        );
    }

    #[test]
    fn millidarcy_constant_is_sane() {
        assert!((MILLIDARCY - 9.87e-16).abs() < 1e-17);
    }
}
