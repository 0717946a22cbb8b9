//! Errors of the mining kernel.

use std::fmt;

/// A failure anywhere in the translator → preprocessor → core →
/// postprocessor chain.
#[derive(Debug, Clone, PartialEq)]
pub enum MineError {
    /// Lex/parse error in the MINE RULE statement itself.
    Syntax { pos: usize, message: String },
    /// Semantic check failure (§4.1 of the paper, checks 1–4).
    Semantic(SemanticViolation),
    /// The underlying SQL server reported an error.
    Sql(relational::Error),
    /// Thresholds outside (0, 1].
    BadThreshold { what: &'static str, value: f64 },
    /// The requested mining algorithm is not a member of the pool — a
    /// user configuration error, reported with the valid names.
    UnknownAlgorithm { name: String },
    /// A worker count of zero was configured — a user configuration
    /// error, reported with the valid domain (like `UnknownAlgorithm`).
    InvalidWorkerCount { value: usize },
    /// An unrecognised SQL execution mode name was configured — a user
    /// configuration error, reported with the valid domain.
    UnknownSqlExec { name: String },
    /// An unrecognised batch execution mode name was configured — a user
    /// configuration error, reported with the valid domain.
    UnknownExecMode { name: String },
    /// An unrecognised preprocess cache mode was configured — a user
    /// configuration error, reported with the valid domain.
    UnknownCacheMode { name: String },
    /// An unrecognised mined-result cache mode was configured — a user
    /// configuration error, reported with the valid domain.
    UnknownMineCacheMode { name: String },
    /// An unrecognised relational index policy was configured — a user
    /// configuration error, reported with the valid domain.
    UnknownIndexPolicy { name: String },
    /// An unrecognised storage backend name was configured — a user
    /// configuration error, reported with the valid domain.
    UnknownStorageBackend { name: String },
    /// An unrecognised planner mode name was configured — a user
    /// configuration error, reported with the valid domain.
    UnknownPlanner { name: String },
    /// Internal invariant broken (a bug).
    Internal { message: String },
}

/// The four semantic checks the translator performs, in the paper's order.
#[derive(Debug, Clone, PartialEq)]
pub enum SemanticViolation {
    /// Check 1: an attribute list names an attribute not in the source
    /// table schemas.
    UnknownAttribute { clause: &'static str, name: String },
    /// Check 2: grouping/clustering/body/head attribute lists overlap
    /// where they must be disjoint.
    OverlappingAttributes {
        first: &'static str,
        second: &'static str,
        name: String,
    },
    /// Check 3: a HAVING condition references attributes outside its own
    /// grouping (clustering) list.
    HavingScope { clause: &'static str, name: String },
    /// Check 4: the mining condition references a grouping or clustering
    /// attribute.
    MiningCondScope { name: String },
    /// A cardinality specification with min > max or min = 0.
    BadCardinality { spec: String },
    /// The mining condition uses a qualifier other than BODY/HEAD.
    BadMiningQualifier { qualifier: String },
    /// The cluster condition uses a qualifier other than BODY/HEAD.
    BadClusterQualifier { qualifier: String },
    /// CLUSTER BY HAVING present without CLUSTER BY (K ⇒ C violated at
    /// the grammar level; kept for programmatic construction).
    ClusterCondWithoutCluster,
    /// The output table name collides with a source table — accepting it
    /// would make the run's cleanup drop the user's data.
    OutputClobbersSource { name: String },
}

impl fmt::Display for SemanticViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticViolation::UnknownAttribute { clause, name } => {
                write!(
                    f,
                    "attribute '{name}' in {clause} is not defined on the source tables"
                )
            }
            SemanticViolation::OverlappingAttributes {
                first,
                second,
                name,
            } => write!(
                f,
                "attribute '{name}' appears in both {first} and {second}, which must be disjoint"
            ),
            SemanticViolation::HavingScope { clause, name } => write!(
                f,
                "HAVING of {clause} references '{name}', which is outside its attribute list"
            ),
            SemanticViolation::MiningCondScope { name } => write!(
                f,
                "mining condition references grouping/clustering attribute '{name}'"
            ),
            SemanticViolation::BadCardinality { spec } => {
                write!(f, "invalid cardinality specification '{spec}'")
            }
            SemanticViolation::BadMiningQualifier { qualifier } => write!(
                f,
                "mining condition qualifier '{qualifier}' is not BODY or HEAD"
            ),
            SemanticViolation::BadClusterQualifier { qualifier } => write!(
                f,
                "cluster condition qualifier '{qualifier}' is not BODY or HEAD"
            ),
            SemanticViolation::ClusterCondWithoutCluster => {
                write!(f, "cluster condition requires a CLUSTER BY clause")
            }
            SemanticViolation::OutputClobbersSource { name } => write!(
                f,
                "output table '{name}' would overwrite a source table of the same name"
            ),
        }
    }
}

impl fmt::Display for MineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MineError::Syntax { pos, message } => {
                write!(f, "MINE RULE syntax error at {pos}: {message}")
            }
            MineError::Semantic(v) => write!(f, "semantic error: {v}"),
            MineError::Sql(e) => write!(f, "SQL server error: {e}"),
            MineError::BadThreshold { what, value } => {
                write!(f, "{what} threshold {value} is outside (0, 1]")
            }
            MineError::UnknownAlgorithm { name } => write!(
                f,
                "unknown mining algorithm '{name}'; the pool contains: {}",
                crate::algo::POOL_NAMES.join(", ")
            ),
            MineError::InvalidWorkerCount { value } => write!(
                f,
                "invalid worker count '{value}'; the mining executor needs at least 1 worker"
            ),
            MineError::UnknownSqlExec { name } => write!(
                f,
                "unknown sql execution mode '{name}'; valid choices: compiled, interpreted"
            ),
            MineError::UnknownExecMode { name } => write!(
                f,
                "unknown exec mode '{name}'; valid choices: vector, row, auto"
            ),
            MineError::UnknownCacheMode { name } => write!(
                f,
                "unknown preprocess cache mode '{name}'; valid choices: on, off"
            ),
            MineError::UnknownMineCacheMode { name } => write!(
                f,
                "unknown mined-result cache mode '{name}'; valid choices: on, off"
            ),
            MineError::UnknownIndexPolicy { name } => {
                write!(f, "unknown index policy '{name}'; valid choices: auto, off")
            }
            MineError::UnknownStorageBackend { name } => write!(
                f,
                "unknown storage backend '{name}'; valid choices: memory, paged"
            ),
            MineError::UnknownPlanner { name } => {
                write!(
                    f,
                    "unknown planner mode '{name}'; valid choices: cost, naive"
                )
            }
            MineError::Internal { message } => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for MineError {}

impl From<relational::Error> for MineError {
    fn from(e: relational::Error) -> Self {
        match e {
            relational::Error::Lex { pos, message } | relational::Error::Parse { pos, message } => {
                MineError::Syntax { pos, message }
            }
            other => MineError::Sql(other),
        }
    }
}

impl From<SemanticViolation> for MineError {
    fn from(v: SemanticViolation) -> Self {
        MineError::Semantic(v)
    }
}

/// Result alias for the kernel.
pub type Result<T> = std::result::Result<T, MineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_semantic() {
        let e = MineError::Semantic(SemanticViolation::MiningCondScope {
            name: "customer".into(),
        });
        assert!(e.to_string().contains("customer"));
    }

    #[test]
    fn sql_parse_errors_become_syntax() {
        let e: MineError = relational::Error::Parse {
            pos: 3,
            message: "boom".into(),
        }
        .into();
        assert!(matches!(e, MineError::Syntax { .. }));
    }
}
