//! Statistics and reporting utilities for the SOE fairness reproduction.
//!
//! This crate provides the numeric and presentation plumbing shared by the
//! analytical model (`soe-model`), the experiment runner (`soe-core`) and
//! the benchmark harness (`soe-bench`):
//!
//! * [`Summary`] / [`OnlineStats`] — aggregate statistics (mean, standard
//!   deviation, extremes, quantiles) over experiment runs,
//! * [`TimeSeries`] — sampled traces used for the Figure 5 style plots,
//!   with CSV interchange via [`series_to_csv`] / [`series_from_csv`],
//! * [`Table`] — markdown table rendering for the per-table binaries,
//! * [`chart`] — ASCII bar and line charts so every figure has a terminal
//!   rendering.
//!
//! # Examples
//!
//! ```
//! use soe_stats::Summary;
//!
//! let s = Summary::from_iter([1.0, 2.0, 3.0]);
//! assert_eq!(s.mean(), 2.0);
//! assert_eq!(s.count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
mod corr;
mod csv;
mod online;
mod summary;
pub mod svg;
mod table;
mod timeseries;

pub use corr::pearson;
pub use csv::{series_from_csv, series_to_csv};
pub use online::OnlineStats;
pub use summary::Summary;
pub use table::{fnum, Align, Table};
pub use timeseries::{Point, TimeSeries};
