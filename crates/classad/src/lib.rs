//! # phishare-classad — a miniature ClassAd language
//!
//! HTCondor's matchmaking is built on *classified advertisements*
//! (ClassAds): attribute → expression maps that jobs and machines publish,
//! plus an expression language used for `Requirements` and `Rank`
//! (paper §II-D). This crate implements the subset the scheduling stack
//! needs, from scratch:
//!
//! * [`Value`] — integers, floats, booleans, strings and `UNDEFINED`, with
//!   ClassAd-style three-valued logic;
//! * [`lexer`] / [`parser`] — a Pratt expression parser for the operator set
//!   `|| && == != =?= =!= < <= > >= + - * / !` with parentheses;
//! * [`eval`](mod@eval) — evaluation against a `MY` ad and an optional `TARGET` ad,
//!   with bare attribute names resolving MY-first-then-TARGET as in Condor;
//! * [`ClassAd`] — the attribute map, plus two-sided
//!   [`matches`](ClassAd::matches) and `Rank`-based ordering used by the
//!   negotiator.
//!
//! Attribute names are case-insensitive, as in HTCondor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ad;
pub mod adparse;
pub mod ast;
pub mod builtins;
pub mod compiled;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod value;

pub use ad::ClassAd;
pub use adparse::parse_ad;
pub use compiled::{CompiledReq, Guard, GuardOp};
pub use eval::eval;
pub use parser::{parse, ParseError};
pub use value::Value;
