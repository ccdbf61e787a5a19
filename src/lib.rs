//! Workspace facade for the F-CAD reproduction.
//!
//! This crate exists so that the repository-root `examples/` and `tests/`
//! directories have a host package; it exports nothing. Library users
//! should depend on the individual crates (most importantly [`fcad`])
//! directly.
