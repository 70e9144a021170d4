//! The baselines of §3 and §5.2.4: Naïve, In-parallel and Multi-label.

pub mod in_parallel;
pub mod multi_label;
pub mod naive;
