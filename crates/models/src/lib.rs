//! Bayesian model substrates for CoopMC: Markov random fields, Bayesian
//! networks and latent Dirichlet allocation.
//!
//! The paper evaluates its accelerator optimizations on ten workloads over
//! three model families (Table I). This crate implements all three model
//! families from scratch, each exposing its Gibbs-sampling structure through
//! the [`GibbsModel`] trait so the engine in `coopmc-core` can drive any of
//! them through any Probability Generation datapath:
//!
//! - [`mrf`] — 4-connected grid Markov random fields with pluggable
//!   data/smooth cost functions and the paper's four applications
//!   (image restoration, stereo matching, image segmentation, sound source
//!   separation).
//! - [`bn`] — discrete Bayesian networks with evidence, the three published
//!   benchmark networks (ASIA, EARTHQUAKE, SURVEY), and exact inference by
//!   variable elimination for golden references.
//! - [`lda`] — collapsed-Gibbs latent Dirichlet allocation with synthetic
//!   corpora shaped like the paper's NIPS / Enron / RNA workloads.
//! - [`workloads`] — the Table I registry mapping every paper workload to a
//!   scaled, reproducible configuration.
//! - [`metrics`] — the evaluation metrics of §II-A (normalized MSE,
//!   convergence traces).

pub mod bn;
pub mod coloring;
pub mod diagnostics;
pub mod lda;
pub mod metrics;
pub mod mrf;
pub mod workloads;

/// The per-label input handed from a model to the Probability Generation
/// step.
///
/// MRFs produce scores already in the log domain (`-β · TotalCost`, Eq. 4);
/// Bayesian networks and LDA produce products/ratios of linear-domain
/// factors (Eq. 5, Eq. 6). The PG pipeline decides how to evaluate either
/// form (directly, or fused in the log domain).
#[derive(Debug, Clone, PartialEq)]
pub enum LabelScore {
    /// The score is `log p` (natural log), e.g. a negated, scaled MRF
    /// energy.
    LogDomain(f64),
    /// The score is `Π numerators / Π denominators` of linear-domain
    /// factors.
    Factors {
        /// Numerator factors `a_i` of Eq. 11.
        numerators: Vec<f64>,
        /// Denominator factors `b_j` of Eq. 11.
        denominators: Vec<f64>,
    },
}

impl LabelScore {
    /// Exact (float) probability value of this score.
    pub fn reference_value(&self) -> f64 {
        match self {
            LabelScore::LogDomain(s) => s.exp(),
            LabelScore::Factors {
                numerators,
                denominators,
            } => {
                let num: f64 = numerators.iter().product();
                let den: f64 = denominators.iter().product();
                if den == 0.0 {
                    0.0
                } else {
                    num / den
                }
            }
        }
    }
}

/// An empty factor row.
const EMPTY_FACTORS: LabelScore = LabelScore::Factors {
    numerators: Vec::new(),
    denominators: Vec::new(),
};

/// Resize `out` to `n` [`LabelScore::Factors`] rows and hand each row's
/// cleared `(numerators, denominators)` to `fill(label, ..)`.
///
/// Rows already holding `Factors` keep their inner vectors, so refilling a
/// warm buffer allocates nothing; any other slot is replaced.
pub(crate) fn fill_factor_rows(
    out: &mut Vec<LabelScore>,
    n: usize,
    mut fill: impl FnMut(usize, &mut Vec<f64>, &mut Vec<f64>),
) {
    out.truncate(n);
    out.resize_with(n, || EMPTY_FACTORS);
    for (label, slot) in out.iter_mut().enumerate() {
        if !matches!(slot, LabelScore::Factors { .. }) {
            *slot = EMPTY_FACTORS;
        }
        if let LabelScore::Factors {
            numerators,
            denominators,
        } = slot
        {
            numerators.clear();
            denominators.clear();
            fill(label, numerators, denominators);
        }
    }
}

/// A model that can be trained by single-site Gibbs sampling through the
/// three-step PG → SD → PU flow of the paper (§III, Fig. 1).
pub trait GibbsModel {
    /// Number of random variables in the model.
    fn num_variables(&self) -> usize;

    /// Number of labels variable `var` can take.
    fn num_labels(&self, var: usize) -> usize;

    /// True if `var` is clamped (e.g. Bayesian-network evidence) and must
    /// not be resampled.
    fn is_clamped(&self, var: usize) -> bool {
        let _ = var;
        false
    }

    /// Prepare to resample `var`: remove its current assignment from any
    /// sufficient statistics (collapsed samplers need this; default no-op).
    fn begin_resample(&mut self, var: usize) {
        let _ = var;
    }

    /// Fill `out` with one [`LabelScore`] per label of `var`, given the
    /// current state of every other variable (the PG input, gathered in
    /// place).
    ///
    /// The result is the same whatever `out` holds on entry: the call
    /// overwrites every slot and leaves exactly `num_labels(var)` of them.
    /// It may recycle what it finds there, in particular the inner
    /// numerator/denominator vectors of [`LabelScore::Factors`] rows, so a
    /// buffer warmed by earlier calls makes the gather allocation-free.
    fn scores_into(&self, var: usize, out: &mut Vec<LabelScore>);

    /// Commit the sampled label for `var` (the PU step).
    fn update(&mut self, var: usize, label: usize);

    /// Current label of `var`.
    fn label(&self, var: usize) -> usize;

    /// Snapshot of all labels.
    fn labels(&self) -> Vec<usize> {
        (0..self.num_variables()).map(|v| self.label(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_score_reference_values() {
        assert!((LabelScore::LogDomain(0.0).reference_value() - 1.0).abs() < 1e-15);
        let f = LabelScore::Factors {
            numerators: vec![0.5, 0.5],
            denominators: vec![0.25],
        };
        assert!((f.reference_value() - 1.0).abs() < 1e-15);
        let z = LabelScore::Factors {
            numerators: vec![1.0],
            denominators: vec![0.0],
        };
        assert_eq!(z.reference_value(), 0.0);
    }
}
