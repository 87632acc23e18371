//! The three cluster configurations of the paper's evaluation.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Which software stack runs the cluster (paper §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClusterPolicy {
    /// **MC** — MPSS + Condor: exclusive device allocation; one job per Phi
    /// for the job's lifetime; no sharing.
    Mc,
    /// **MCC** — MPSS + Condor + COSMIC: nodes share safely, but jobs are
    /// selected arbitrarily (randomly) at the cluster level.
    Mcc,
    /// **MCCK** — MPSS + Condor + COSMIC + the knapsack cluster scheduler:
    /// the paper's full system.
    Mcck,
    /// **Oracle** — *not in the paper*: MCCK's stack with a clairvoyant
    /// LPT scheduler that knows job execution times. An upper-bound
    /// comparator that quantifies how much the paper's
    /// no-execution-times assumption costs.
    Oracle,
}

impl ClusterPolicy {
    /// The paper's three configurations, in presentation order.
    pub const ALL: [ClusterPolicy; 3] =
        [ClusterPolicy::Mc, ClusterPolicy::Mcc, ClusterPolicy::Mcck];

    /// The paper's configurations plus the clairvoyant comparator.
    pub const WITH_ORACLE: [ClusterPolicy; 4] = [
        ClusterPolicy::Mc,
        ClusterPolicy::Mcc,
        ClusterPolicy::Mcck,
        ClusterPolicy::Oracle,
    ];

    /// True when this configuration runs the node middleware.
    pub fn uses_cosmic(self) -> bool {
        !matches!(self, ClusterPolicy::Mc)
    }
}

impl fmt::Display for ClusterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ClusterPolicy::Mc => "MC",
            ClusterPolicy::Mcc => "MCC",
            ClusterPolicy::Mcck => "MCCK",
            ClusterPolicy::Oracle => "ORACLE",
        };
        f.write_str(s)
    }
}

impl FromStr for ClusterPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "MC" => Ok(ClusterPolicy::Mc),
            "MCC" => Ok(ClusterPolicy::Mcc),
            "MCCK" => Ok(ClusterPolicy::Mcck),
            "ORACLE" => Ok(ClusterPolicy::Oracle),
            other => Err(format!(
                "unknown policy {other:?}; expected MC, MCC, MCCK or ORACLE"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        for p in ClusterPolicy::WITH_ORACLE {
            assert_eq!(p.to_string().parse::<ClusterPolicy>().unwrap(), p);
        }
        assert_eq!(
            "mcck".parse::<ClusterPolicy>().unwrap(),
            ClusterPolicy::Mcck
        );
        assert!("MCX".parse::<ClusterPolicy>().is_err());
    }

    #[test]
    fn capability_flags() {
        assert!(ClusterPolicy::Mcc.uses_cosmic());
        assert!(ClusterPolicy::Mcck.uses_cosmic());
        assert!(ClusterPolicy::Oracle.uses_cosmic());
        assert!(!ClusterPolicy::Mc.uses_cosmic());
    }

    #[test]
    fn paper_set_excludes_the_oracle() {
        assert!(!ClusterPolicy::ALL.contains(&ClusterPolicy::Oracle));
        assert_eq!(ClusterPolicy::WITH_ORACLE.len(), 4);
    }
}
