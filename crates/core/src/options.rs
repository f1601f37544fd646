//! The option spellings every front end accepts: the machine overrides
//! applied to Table I and the strings that name a scheduling policy, a
//! Table II model, and a representative-selection method. The CLI
//! (`--policy gto`) and the prediction service (`"policy":"gto"`) both
//! resolve here; each keeps only its mapping of [`OptionError`].

use gpumech_isa::{ConfigError, SchedulingPolicy, SimConfig};

use crate::cluster::SelectionMethod;
use crate::model::Model;
use crate::request::Weighting;

/// One prediction's options as a front end received them. `None` takes
/// the default: Table I's value for a machine override, then `rr`,
/// `full` and `clustering`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RequestOptions<'a> {
    /// Resident warps per core.
    pub warps: Option<usize>,
    /// MSHR entries per core.
    pub mshrs: Option<usize>,
    /// DRAM bandwidth, GB/s.
    pub bw: Option<f64>,
    /// SFU lanes per core.
    pub sfu: Option<usize>,
    /// `rr|gto`.
    pub policy: Option<&'a str>,
    /// `naive|markov|mt|mt_mshr|full` (`mt_mshr_band` is an alias of `full`).
    pub model: Option<&'a str>,
    /// `max|min|clustering|weighted` (`weighted` is clustering selection
    /// with population weighting).
    pub selection: Option<&'a str>,
}

/// [`RequestOptions`] resolved to the pipeline's types.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedOptions {
    /// The validated machine configuration.
    pub config: SimConfig,
    /// The warp scheduling policy.
    pub policy: SchedulingPolicy,
    /// The Table II model.
    pub model: Model,
    /// The representative-selection method.
    pub selection: SelectionMethod,
    /// The cluster weighting.
    pub weighting: Weighting,
}

/// Why a [`RequestOptions`] did not resolve.
#[derive(Debug, Clone, PartialEq)]
pub enum OptionError {
    /// A string option named none of its accepted values.
    BadChoice {
        /// The option name (`policy`, `model`, or `selection`).
        field: &'static str,
        /// The offending value.
        value: String,
        /// The accepted values, `|`-separated.
        expected: &'static str,
    },
    /// The machine overrides produced an invalid configuration.
    Config(ConfigError),
}

fn bad_choice(field: &'static str, value: &str, expected: &'static str) -> OptionError {
    OptionError::BadChoice { field, value: value.to_owned(), expected }
}

impl RequestOptions<'_> {
    /// Resolves every option: the machine configuration first, then
    /// policy, model and selection. The first failure is returned.
    ///
    /// # Errors
    ///
    /// [`OptionError::Config`] when the overridden [`SimConfig::table1`]
    /// fails [`SimConfig::validate`], or [`OptionError::BadChoice`] for
    /// an unknown spelling.
    pub fn resolve(&self) -> Result<ResolvedOptions, OptionError> {
        let mut config = SimConfig::table1();
        if let Some(w) = self.warps {
            config = config.with_warps_per_core(w);
        }
        if let Some(m) = self.mshrs {
            config = config.with_mshrs(m);
        }
        if let Some(b) = self.bw {
            config = config.with_dram_bandwidth(b);
        }
        if let Some(s) = self.sfu {
            config = config.with_sfu_per_core(s);
        }
        config.validate().map_err(OptionError::Config)?;
        let policy = match self.policy.unwrap_or("rr") {
            "rr" => SchedulingPolicy::RoundRobin,
            "gto" => SchedulingPolicy::GreedyThenOldest,
            other => return Err(bad_choice("policy", other, "rr|gto")),
        };
        let model = match self.model.unwrap_or("full") {
            "naive" => Model::NaiveInterval,
            "markov" => Model::MarkovChain,
            "mt" => Model::Mt,
            "mt_mshr" => Model::MtMshr,
            "full" | "mt_mshr_band" => Model::MtMshrBand,
            other => return Err(bad_choice("model", other, "naive|markov|mt|mt_mshr|full")),
        };
        let (selection, weighting) = match self.selection.unwrap_or("clustering") {
            "max" => (SelectionMethod::Max, Weighting::SingleRepresentative),
            "min" => (SelectionMethod::Min, Weighting::SingleRepresentative),
            "clustering" => (SelectionMethod::Clustering, Weighting::SingleRepresentative),
            "weighted" => (SelectionMethod::Clustering, Weighting::PopulationWeighted),
            other => return Err(bad_choice("selection", other, "max|min|clustering|weighted")),
        };
        Ok(ResolvedOptions { config, policy, model, selection, weighting })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use SchedulingPolicy::{GreedyThenOldest as Gto, RoundRobin as Rr};
    use SelectionMethod::{Clustering, Max, Min};
    use Weighting::{PopulationWeighted as Pop, SingleRepresentative as Single};

    #[test]
    fn every_spelling_resolves_and_every_rejection_is_typed() {
        let none = RequestOptions::default();
        let with = |policy, model, selection| RequestOptions { policy, model, selection, ..none };
        let ok = |policy, model, selection, weighting| {
            let config = SimConfig::table1();
            Ok(ResolvedOptions { config, policy, model, selection, weighting })
        };
        let bad = |field, value: &str, expected| Err(bad_choice(field, value, expected));
        let models = "naive|markov|mt|mt_mshr|full";
        let full = Model::MtMshrBand;
        let rows = [
            // Absent fields resolve to the defaults.
            (none, ok(Rr, full, Clustering, Single)),
            (with(Some("rr"), None, None), ok(Rr, full, Clustering, Single)),
            (with(Some("gto"), None, None), ok(Gto, full, Clustering, Single)),
            (with(None, Some("naive"), None), ok(Rr, Model::NaiveInterval, Clustering, Single)),
            (with(None, Some("markov"), None), ok(Rr, Model::MarkovChain, Clustering, Single)),
            (with(None, Some("mt"), None), ok(Rr, Model::Mt, Clustering, Single)),
            (with(None, Some("mt_mshr"), None), ok(Rr, Model::MtMshr, Clustering, Single)),
            (with(None, Some("full"), None), ok(Rr, full, Clustering, Single)),
            (with(None, Some("mt_mshr_band"), None), ok(Rr, full, Clustering, Single)),
            (with(None, None, Some("max")), ok(Rr, full, Max, Single)),
            (with(None, None, Some("min")), ok(Rr, full, Min, Single)),
            (with(None, None, Some("clustering")), ok(Rr, full, Clustering, Single)),
            (with(None, None, Some("weighted")), ok(Rr, full, Clustering, Pop)),
            (with(Some("lifo"), None, None), bad("policy", "lifo", "rr|gto")),
            (with(Some("GTO"), None, None), bad("policy", "GTO", "rr|gto")),
            (with(Some(""), None, None), bad("policy", "", "rr|gto")),
            (with(None, Some("oracle"), None), bad("model", "oracle", models)),
            (with(None, None, Some("x")), bad("selection", "x", "max|min|clustering|weighted")),
            // Policy is checked before model, model before selection.
            (with(Some("x"), Some("y"), None), bad("policy", "x", "rr|gto")),
            (with(None, Some("y"), Some("z")), bad("model", "y", models)),
            // The machine configuration is checked before any string.
            (
                RequestOptions { mshrs: Some(0), ..with(Some("x"), None, None) },
                Err(OptionError::Config(SimConfig::table1().with_mshrs(0).validate().unwrap_err())),
            ),
        ];
        for (opts, want) in rows {
            assert_eq!(opts.resolve(), want, "{opts:?}");
        }
    }
}
