//! Test-only support shared by the integration tests.
//!
//! * [`reference`] — the reference walk scheduler: a window scan with
//!   eager per-request aging, the semantics the production
//!   `ptw_core::sched::Scheduler` must reproduce;
//! * [`model`] — a bare `WalkBuffer` + `CandidateIndex` pair driven the
//!   way the IOMMU drives them, beside an eagerly aged mirror of the
//!   pending requests.
//!
//! Each test binary compiles this module separately and uses only part
//! of it.
#![allow(dead_code)]

pub mod model;
pub mod reference;
