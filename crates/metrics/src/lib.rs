//! Measurement and reporting utilities: CDFs (the paper's Figures 5–6
//! are wait-time CDFs), summary statistics, ASCII tables, CSV export,
//! SVG charts, and column lists that render a published table in both
//! forms from one declaration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod columns;
pub mod csv;
pub mod summary;
pub mod svg;
pub mod table;

pub use cdf::Cdf;
pub use columns::{Cell, Column, Columns};
pub use csv::CsvWriter;
pub use summary::Summary;
pub use svg::{LineChart, RectMap};
pub use table::Table;
