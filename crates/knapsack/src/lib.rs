//! # phishare-knapsack — the packing core
//!
//! The paper models every Xeon Phi as a **0-1 knapsack** (§IV-C):
//!
//! * item **weight** = the job's declared device memory,
//! * knapsack **capacity** = the device's free memory,
//! * item **value** = `1 − (t/T)²` where `t` is the job's declared threads
//!   and `T` the hardware thread count — so packing *maximizes the number of
//!   concurrent jobs*, biased towards low-thread jobs,
//! * a packed set whose thread sum exceeds `T` is worth **zero** (the
//!   value-zero rule).
//!
//! This crate provides:
//!
//! * [`dp::solve_2d`] — an exact dynamic program over (memory units ×
//!   thread units) that enforces the thread constraint *inside* the DP
//!   (the default solver for the MCCK scheduler);
//! * [`dp::solve_1d_filtered`] — the paper-literal 1-D memory DP followed by
//!   a repair pass that drops highest-thread items until the value-zero rule
//!   is satisfied (kept for the ablation study);
//! * [`value::ValueFunction`] — the paper's quadratic value plus linear /
//!   unit / inverse alternatives for the value-function ablation;
//! * [`bb::solve_branch_and_bound`] — an exact branch-and-bound solver with
//!   fractional-bound pruning, a second independent oracle and a solver
//!   comparison point;
//! * [`exhaustive::solve_exhaustive`] — a brute-force oracle for small
//!   instances, used by the property tests to certify DP optimality.
//!
//! Weights are discretized at a configurable granularity (the paper
//! suggests 50 MB, giving `w = 8 GB / 50 MB = 160` columns and the
//! "nearly linear in n" complexity claim of §IV-C), threads at 4 per unit.
//! The 2-D DP then solves on the instance's own grid: each dimension's
//! units are divided by the gcd of the items' units in it, and the smaller
//! dimension becomes the table's rows. Table I jobs declare 60, 180 or 240
//! threads (15, 45 or 60 units), so under MCCK's 360-thread budget a solve
//! has at most 7 thread rows against up to 160 memory columns, and its cost
//! follows the sums the instance can reach, not the raw unit counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bb;
pub mod dp;
pub mod exhaustive;
pub mod item;
pub mod prep;
pub mod value;

pub use bb::solve_branch_and_bound;
pub use dp::{
    solve_1d_filtered, solve_1d_filtered_with, solve_2d, solve_2d_with, solve_prepped_1d_with,
    solve_prepped_2d_with, DpScratch,
};
pub use item::{Capacity, PackItem, Packing};
pub use prep::{prep_1d, prep_2d};
pub use value::ValueFunction;
