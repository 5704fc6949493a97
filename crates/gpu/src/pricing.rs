//! Cloud GPU rental pricing.
//!
//! The paper prices GPU hours on CUDO Compute ("as other popular cloud
//! providers do not offer cost/hour rates for the NVIDIA A40") and notes the
//! rates can be swapped for AWS or Lambda. The CUDO rates below are the ones
//! printed in the paper's Table IV; the other providers carry representative
//! 2024 on-demand rates and exist so users can re-run the cost study against
//! a different price book.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A cloud GPU provider with a known price book.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CloudProvider {
    /// CUDO Compute — the provider the paper budgets against (Table IV).
    Cudo,
    /// Amazon Web Services (on-demand, single-GPU share of the instance).
    Aws,
    /// Lambda Labs on-demand.
    Lambda,
}

impl CloudProvider {
    /// The provider's listed hourly rates in USD, by GPU catalog name.
    ///
    /// CUDO rates are the paper's Table IV values (A40 $0.79, A100-80GB
    /// $1.67, H100 $2.10); A100-40GB is interpolated from CUDO's 2024
    /// listings. AWS/Lambda rates are representative on-demand prices.
    /// [`PriceTable::for_provider`] builds from this same list, so each
    /// price is written once.
    fn listed_rates(&self) -> &'static [(&'static str, f64)] {
        match self {
            CloudProvider::Cudo => &[
                ("A40", 0.79),
                ("A100-40GB", 1.35),
                ("A100-80GB", 1.67),
                ("H100-80GB", 2.10),
            ],
            CloudProvider::Aws => &[
                ("A100-40GB", 4.10),
                ("A100-80GB", 5.12),
                ("H100-80GB", 12.29),
            ],
            CloudProvider::Lambda => &[
                ("A100-40GB", 1.29),
                ("A100-80GB", 1.79),
                ("H100-80GB", 2.49),
            ],
        }
    }

    /// The listed hourly rate for `gpu_name`, looked up without building a
    /// [`PriceTable`]; equals `PriceTable::for_provider(self).usd_per_hour`.
    pub fn listed_usd_per_hour(&self, gpu_name: &str) -> Option<f64> {
        self.listed_rates()
            .iter()
            .find(|(name, _)| *name == gpu_name)
            .map(|&(_, price)| price)
    }

    /// Short lower-case identifier used in scenario specs and cache keys.
    pub fn key(&self) -> &'static str {
        match self {
            CloudProvider::Cudo => "cudo",
            CloudProvider::Aws => "aws",
            CloudProvider::Lambda => "lambda",
        }
    }
}

impl std::str::FromStr for CloudProvider {
    type Err = String;

    /// Parses the short identifier (`"cudo"`, `"aws"`, `"lambda"`),
    /// case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "cudo" => Ok(CloudProvider::Cudo),
            "aws" => Ok(CloudProvider::Aws),
            "lambda" => Ok(CloudProvider::Lambda),
            other => Err(format!(
                "unknown provider {other:?} (want cudo, aws, or lambda)"
            )),
        }
    }
}

impl fmt::Display for CloudProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CloudProvider::Cudo => "CUDO Compute",
            CloudProvider::Aws => "AWS",
            CloudProvider::Lambda => "Lambda",
        })
    }
}

/// Hourly GPU prices in USD, keyed by GPU name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceTable {
    provider: CloudProvider,
    usd_per_hour: BTreeMap<String, f64>,
}

impl PriceTable {
    /// The price book for `provider`: its listed rates, the ones
    /// [`CloudProvider::listed_usd_per_hour`] looks up.
    pub fn for_provider(provider: CloudProvider) -> Self {
        PriceTable {
            provider,
            usd_per_hour: provider
                .listed_rates()
                .iter()
                .map(|&(name, price)| (name.to_string(), price))
                .collect(),
        }
    }

    /// An empty custom price book for user-supplied rates.
    pub fn custom() -> Self {
        PriceTable {
            provider: CloudProvider::Cudo,
            usd_per_hour: BTreeMap::new(),
        }
    }

    /// The provider this table belongs to.
    pub fn provider(&self) -> CloudProvider {
        self.provider
    }

    /// Hourly price for `gpu_name`, if listed.
    pub fn usd_per_hour(&self, gpu_name: &str) -> Option<f64> {
        self.usd_per_hour.get(gpu_name).copied()
    }

    /// Adds or overrides a rate, returning the table for chaining.
    pub fn with_rate(mut self, gpu_name: impl Into<String>, usd_per_hour: f64) -> Self {
        self.usd_per_hour.insert(gpu_name.into(), usd_per_hour);
        self
    }

    /// GPU names with known prices.
    pub fn listed_gpus(&self) -> impl Iterator<Item = &str> {
        self.usd_per_hour.keys().map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cudo_prices_match_paper_table_iv() {
        let t = PriceTable::for_provider(CloudProvider::Cudo);
        assert_eq!(t.usd_per_hour("A40"), Some(0.79));
        assert_eq!(t.usd_per_hour("A100-80GB"), Some(1.67));
        assert_eq!(t.usd_per_hour("H100-80GB"), Some(2.10));
    }

    #[test]
    fn aws_has_no_a40() {
        // The paper's stated reason for using CUDO.
        let t = PriceTable::for_provider(CloudProvider::Aws);
        assert_eq!(t.usd_per_hour("A40"), None);
    }

    #[test]
    fn with_rate_overrides() {
        let t = PriceTable::for_provider(CloudProvider::Cudo).with_rate("A40", 0.50);
        assert_eq!(t.usd_per_hour("A40"), Some(0.50));
    }

    #[test]
    fn custom_starts_empty() {
        let t = PriceTable::custom();
        assert_eq!(t.listed_gpus().count(), 0);
        let t = t.with_rate("MyGPU", 1.0);
        assert_eq!(t.usd_per_hour("MyGPU"), Some(1.0));
    }

    #[test]
    fn provider_round_trips_through_its_key() {
        for provider in [
            CloudProvider::Cudo,
            CloudProvider::Aws,
            CloudProvider::Lambda,
        ] {
            assert_eq!(provider.key().parse::<CloudProvider>(), Ok(provider));
        }
        assert_eq!(" AWS ".parse::<CloudProvider>(), Ok(CloudProvider::Aws));
        assert!("azure".parse::<CloudProvider>().is_err());
    }

    #[test]
    fn listed_lookup_matches_the_price_table() {
        for provider in [
            CloudProvider::Cudo,
            CloudProvider::Aws,
            CloudProvider::Lambda,
        ] {
            let table = PriceTable::for_provider(provider);
            for gpu in crate::GpuSpec::catalog() {
                assert_eq!(
                    provider.listed_usd_per_hour(&gpu.name),
                    table.usd_per_hour(&gpu.name),
                    "{provider} {}",
                    gpu.name
                );
            }
            assert_eq!(provider.listed_usd_per_hour("MyGPU"), None);
        }
    }

    #[test]
    fn catalog_gpus_are_priced_on_cudo() {
        let t = PriceTable::for_provider(CloudProvider::Cudo);
        for gpu in crate::GpuSpec::catalog() {
            assert!(
                t.usd_per_hour(&gpu.name).is_some(),
                "missing price for {}",
                gpu.name
            );
        }
    }
}
