//! Error types for the circuit simulator.

use std::fmt;

/// A structured netlist parse failure: the deck position, the offending
/// token and a stable code, rendered in the same
/// `severity[code] subject: message (span)` shape as the lint diagnostics
/// so front-end and static-analysis findings read alike.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseDiagnostic {
    /// Stable code: `P0101` lexical (bad number/suffix), `P0102` card
    /// syntax, `P0103` elaboration (subcircuit expansion), `P0104`
    /// duplicate definition (`.model`/`.subckt` redefined).
    pub code: &'static str,
    /// 1-based deck line.
    pub line: usize,
    /// 1-based column of the offending token; 0 when the finding applies
    /// to the whole card.
    pub column: usize,
    /// The offending token text (empty when a token is *missing*).
    pub token: String,
    /// Human explanation with the concrete values involved.
    pub message: String,
}

impl ParseDiagnostic {
    /// A lexical finding (`P0101`): a token that is not a valid number,
    /// suffix or name.
    pub fn lexical(
        line: usize,
        column: usize,
        token: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        ParseDiagnostic {
            code: "P0101",
            line,
            column,
            token: token.into(),
            message: message.into(),
        }
    }

    /// A card-syntax finding (`P0102`): the card as a whole is malformed.
    pub fn card(line: usize, message: impl Into<String>) -> Self {
        ParseDiagnostic {
            code: "P0102",
            line,
            column: 0,
            token: String::new(),
            message: message.into(),
        }
    }

    /// An elaboration finding (`P0103`): subcircuit expansion failed.
    pub fn elaboration(line: usize, token: impl Into<String>, message: impl Into<String>) -> Self {
        ParseDiagnostic {
            code: "P0103",
            line,
            column: 0,
            token: token.into(),
            message: message.into(),
        }
    }

    /// A duplicate-definition finding (`P0104`): a `.model` or `.subckt`
    /// name defined more than once. Silent last-one-wins resolution is
    /// exactly the kind of deck bug that survives to a wrong answer.
    pub fn duplicate(line: usize, token: impl Into<String>, message: impl Into<String>) -> Self {
        ParseDiagnostic {
            code: "P0104",
            line,
            column: 0,
            token: token.into(),
            message: message.into(),
        }
    }

    /// Renders like a lint diagnostic:
    /// `error[P0102] 'x9': unsupported element type (line 4, col 1)`.
    pub fn render(&self) -> String {
        let subject = if self.token.is_empty() {
            "<card>".to_string()
        } else {
            format!("'{}'", self.token)
        };
        let span = if self.column > 0 {
            format!("line {}, col {}", self.line, self.column)
        } else {
            format!("line {}", self.line)
        };
        format!("error[{}] {subject}: {} ({span})", self.code, self.message)
    }
}

impl fmt::Display for ParseDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Any failure raised by circuit construction or analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// The DC operating point iteration failed to converge.
    DcopDiverged {
        /// Iterations attempted across all homotopy stages.
        iterations: usize,
        /// Final voltage-update norm.
        delta: f64,
    },
    /// A matrix factorisation failed (floating node or degenerate circuit).
    Singular {
        /// Analysis in which it occurred ("dcop", "tran", "ac").
        analysis: &'static str,
        /// Order of the offending MNA system.
        order: usize,
        /// Pivot column at which elimination broke down; equals `order`
        /// when the factorization succeeded but the solve produced
        /// non-finite values.
        pivot: usize,
    },
    /// Newton failed during a transient step.
    TranDiverged {
        /// Time of the failing step in seconds.
        t: f64,
    },
    /// A numeric guard caught a NaN/Inf before it reached the linear
    /// solver (see [`sim_core::linalg::NumericFault`] for the provenance).
    Numeric {
        /// Analysis in which it occurred ("dcop", "tran", "ac").
        analysis: &'static str,
        /// Which operand went non-finite, and where.
        fault: sim_core::linalg::NumericFault,
    },
    /// A netlist line could not be parsed (or elaborated); the diagnostic
    /// carries line/column, the offending token and a stable code.
    Parse(ParseDiagnostic),
    /// A referenced model name was never defined.
    UnknownModel {
        /// The missing model name.
        name: String,
    },
    /// An element or node lookup by name failed.
    UnknownName {
        /// The name that could not be resolved.
        name: String,
    },
    /// An element was built with an invalid parameter.
    InvalidParameter {
        /// Element name.
        element: String,
        /// Explanation.
        message: String,
    },
}

impl SpiceError {
    /// Maps a [`sim_core::SolveError`] raised inside `analysis`.
    pub(crate) fn from_solve(analysis: &'static str, e: sim_core::SolveError) -> Self {
        match e {
            sim_core::SolveError::Singular(e) => SpiceError::Singular {
                analysis,
                order: e.order,
                pivot: e.pivot,
            },
            sim_core::SolveError::Numeric(fault) => SpiceError::Numeric { analysis, fault },
        }
    }
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::DcopDiverged { iterations, delta } => write!(
                f,
                "dc operating point failed to converge after {iterations} iterations (last delta {delta:.3e})"
            ),
            SpiceError::Singular {
                analysis,
                order,
                pivot,
            } => {
                write!(
                    f,
                    "singular MNA matrix during {analysis}: order {order}, pivot column {pivot} (floating node?)"
                )
            }
            SpiceError::TranDiverged { t } => {
                write!(f, "transient newton diverged at t = {t:.4e} s")
            }
            SpiceError::Numeric { analysis, fault } => {
                write!(f, "numeric fault during {analysis}: {fault}")
            }
            SpiceError::Parse(diag) => {
                write!(f, "netlist parse error: {diag}")
            }
            SpiceError::UnknownModel { name } => write!(f, "unknown model '{name}'"),
            SpiceError::UnknownName { name } => write!(f, "unknown element or node '{name}'"),
            SpiceError::InvalidParameter { element, message } => {
                write!(f, "invalid parameter on '{element}': {message}")
            }
        }
    }
}

impl std::error::Error for SpiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SpiceError::DcopDiverged {
            iterations: 300,
            delta: 0.5,
        };
        assert!(e.to_string().contains("300"));
        let e = SpiceError::Parse(ParseDiagnostic::card(4, "bad value"));
        assert!(e.to_string().contains("line 4"));
        assert!(e.to_string().contains("P0102"));
        let d = ParseDiagnostic::lexical(2, 7, "1x", "unknown suffix");
        assert!(d.render().contains("'1x'"), "{}", d.render());
        assert!(d.render().contains("line 2, col 7"), "{}", d.render());
        let d = ParseDiagnostic::duplicate(9, "cell", "already defined at line 2");
        assert!(d.render().contains("error[P0104] 'cell'"), "{}", d.render());
        assert!(d.render().contains("(line 9)"), "{}", d.render());
        let e = SpiceError::Singular {
            analysis: "ac",
            order: 5,
            pivot: 3,
        };
        assert!(e.to_string().contains("ac"));
        assert!(e.to_string().contains("order 5"));
        assert!(e.to_string().contains("column 3"));
        let e = SpiceError::Numeric {
            analysis: "tran",
            fault: sim_core::linalg::NumericFault {
                nan: true,
                row: 2,
                col: Some(1),
                stage: "matrix",
            },
        };
        assert!(e.to_string().contains("tran"), "{e}");
        assert!(e.to_string().contains("NaN"), "{e}");
        assert!(e.to_string().contains("(2, 1)"), "{e}");
    }
}
