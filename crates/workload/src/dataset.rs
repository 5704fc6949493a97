//! Dataset specifications (paper Table II).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The reasoning domain of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskDomain {
    /// Commonsense reasoning (CS, Hellaswag).
    CommonSense,
    /// Arithmetic reasoning (MATH, GSM8K) — harder for small LLMs
    /// (paper §IV-A observation 4).
    Math,
}

impl fmt::Display for TaskDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TaskDomain::CommonSense => "Common Sense",
            TaskDomain::Math => "Math",
        })
    }
}

/// A fine-tuning or evaluation dataset: a set of queries, where each query is
/// "the concatenation of a prompt and its ground-truth answer" (paper §III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset name, e.g. `"Commonsense_15K"`.
    pub name: String,
    /// Short code used in the paper's figures (CS, MATH, HE, GS).
    pub code: String,
    /// Number of queries.
    pub num_queries: usize,
    /// Median sequence length in tokens (paper Table II "m. seq len").
    pub median_seq_len: usize,
    /// Reasoning domain.
    pub domain: TaskDomain,
}

impl fmt::Display for DatasetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}): {} queries, median {} tokens, {}",
            self.name, self.code, self.num_queries, self.median_seq_len, self.domain
        )
    }
}

/// The four datasets of the paper's Table II.
pub mod presets {
    use super::{DatasetSpec, TaskDomain};

    /// Commonsense_15K — fine-tuning set for commonsense reasoning.
    pub fn commonsense_15k() -> DatasetSpec {
        DatasetSpec {
            name: "Commonsense_15K".into(),
            code: "CS".into(),
            num_queries: 15_000,
            median_seq_len: 79,
            domain: TaskDomain::CommonSense,
        }
    }

    /// Math_14K — fine-tuning set for arithmetic reasoning.
    pub fn math_14k() -> DatasetSpec {
        DatasetSpec {
            name: "Math_14K".into(),
            code: "MATH".into(),
            num_queries: 14_000,
            median_seq_len: 174,
            domain: TaskDomain::Math,
        }
    }

    /// Hellaswag — commonsense evaluation set.
    pub fn hellaswag() -> DatasetSpec {
        DatasetSpec {
            name: "Hellaswag".into(),
            code: "HE".into(),
            num_queries: 10_000,
            median_seq_len: 272,
            domain: TaskDomain::CommonSense,
        }
    }

    /// GSM8K — arithmetic evaluation set.
    pub fn gsm8k() -> DatasetSpec {
        DatasetSpec {
            name: "GSM8K".into(),
            code: "GS".into(),
            num_queries: 1_300,
            median_seq_len: 148,
            domain: TaskDomain::Math,
        }
    }

    /// OpenOrca — the 2M-query enterprise-scale dataset used for the paper's
    /// §V-C cost projection (sequence statistics approximated by MATH's).
    pub fn openorca() -> DatasetSpec {
        DatasetSpec {
            name: "OpenOrca".into(),
            code: "OO".into(),
            num_queries: 2_000_000,
            median_seq_len: 174,
            domain: TaskDomain::CommonSense,
        }
    }

    /// The Table II datasets in the paper's row order.
    pub fn table_ii() -> Vec<DatasetSpec> {
        vec![commonsense_15k(), math_14k(), hellaswag(), gsm8k()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_values() {
        let t = presets::table_ii();
        assert_eq!(t.len(), 4);
        let cs = &t[0];
        assert_eq!((cs.num_queries, cs.median_seq_len), (15_000, 79));
        let math = &t[1];
        assert_eq!((math.num_queries, math.median_seq_len), (14_000, 174));
        let he = &t[2];
        assert_eq!((he.num_queries, he.median_seq_len), (10_000, 272));
        let gs = &t[3];
        assert_eq!((gs.num_queries, gs.median_seq_len), (1_300, 148));
    }

    #[test]
    fn domains_match_paper() {
        assert_eq!(presets::commonsense_15k().domain, TaskDomain::CommonSense);
        assert_eq!(presets::math_14k().domain, TaskDomain::Math);
        assert_eq!(presets::gsm8k().domain, TaskDomain::Math);
    }

    #[test]
    fn codes_are_unique() {
        let codes: std::collections::HashSet<String> =
            presets::table_ii().into_iter().map(|d| d.code).collect();
        assert_eq!(codes.len(), 4);
    }

    #[test]
    fn openorca_is_enterprise_scale() {
        assert_eq!(presets::openorca().num_queries, 2_000_000);
    }
}
