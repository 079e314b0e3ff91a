//! # flowistry-corpus: the synthetic evaluation dataset
//!
//! The paper evaluates precision on ten large open-source Rust crates
//! (Table 1). This crate generates a synthetic stand-in: ten Rox "crates"
//! whose size and code style echo the originals (see
//! [`profiles::paper_profiles`]), produced deterministically from a seed so
//! every figure the `evaluate` binary writes can be regenerated bit-for-bit.
//!
//! ```
//! use flowistry_corpus::{generate_crate, paper_profiles, DEFAULT_SEED};
//! let profile = &paper_profiles()[0]; // "rayon"
//! let krate = generate_crate(profile, DEFAULT_SEED);
//! assert!(krate.program.bodies.len() > 10);
//! ```

#![warn(missing_docs)]

pub mod generator;
pub mod labeled;
pub mod layered;
pub mod profiles;
pub mod random;

pub use generator::{generate_corpus, generate_crate, GeneratedCrate};
pub use labeled::{
    differential_corpus, generate_labeled_corpus, generate_labeled_program, labeled_profiles,
    LabeledDriver, LabeledProfile, LabeledProgram,
};
pub use layered::layered_program;
pub use profiles::{paper_profiles, CrateProfile, DEFAULT_SEED};
pub use random::random_program;
