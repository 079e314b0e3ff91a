//! Style profiles for the synthetic corpus.
//!
//! The paper evaluates on ten large open-source crates (Table 1). We cannot
//! ship those crates or compile them with rustc here, so the corpus
//! generator produces one synthetic "crate" per project, with size and code
//! style parameters chosen to echo the original's character (a numerics
//! library uses few references, an HTTP server uses many shared references,
//! a game engine mutates a lot of state, ...). Absolute sizes are scaled
//! down ~20× so the full evaluation runs in seconds on a laptop.

/// Parameters controlling the style of one generated crate.
#[derive(Debug, Clone, PartialEq)]
pub struct CrateProfile {
    /// Crate name (named after the paper's dataset entry it stands in for).
    pub name: String,
    /// What the original project is, for documentation.
    pub purpose: String,
    /// Number of "driver" functions (application logic with many locals).
    pub num_drivers: usize,
    /// Number of small helper functions defined in the crate.
    pub num_helpers: usize,
    /// Number of external dependency functions (only signatures are
    /// available to the Whole-program condition).
    pub num_externals: usize,
    /// Average number of statement-generating steps per driver function.
    pub avg_driver_steps: usize,
    /// Probability that a helper taking `&mut` never actually mutates it
    /// (the `crop`-style pattern of §5.3.1).
    pub p_unused_mut_ref: f64,
    /// Probability that a helper's return value depends on only a subset of
    /// its inputs (the `solve_lower_triangular` pattern of §5.3.1).
    pub p_subset_return: f64,
    /// Probability that a helper takes its data by shared reference rather
    /// than by unique reference (`hyper` style, §5.4.1).
    pub p_shared_ref_helper: f64,
    /// Probability that a driver step that calls a function picks an
    /// external dependency rather than a crate-local helper.
    pub p_cross_crate_call: f64,
    /// Probability that a driver step introduces a reference-heavy pattern
    /// (reborrows, returned references) rather than scalar code.
    pub p_aliasing_step: f64,
    /// Extra per-crate seed so crates differ even with the same global seed.
    pub seed_offset: u64,
}

/// The ten profiles standing in for Table 1, in the paper's order
/// (increasing number of analyzed variables).
pub fn paper_profiles() -> Vec<CrateProfile> {
    let base = |name: &str,
                purpose: &str,
                drivers: usize,
                helpers: usize,
                steps: usize,
                seed: u64|
     -> CrateProfile {
        CrateProfile {
            name: name.to_string(),
            purpose: purpose.to_string(),
            num_drivers: drivers,
            num_helpers: helpers,
            num_externals: 14,
            avg_driver_steps: steps,
            p_unused_mut_ref: 0.10,
            p_subset_return: 0.25,
            p_shared_ref_helper: 0.45,
            p_cross_crate_call: 0.75,
            p_aliasing_step: 0.15,
            seed_offset: seed,
        }
    };

    vec![
        CrateProfile {
            p_shared_ref_helper: 0.55,
            p_aliasing_step: 0.10,
            ..base("rayon", "Data parallelism library", 28, 26, 8, 0x01)
        },
        CrateProfile {
            p_shared_ref_helper: 0.50,
            p_subset_return: 0.30,
            ..base("rocket", "Web backend framework", 22, 15, 12, 0x02)
        },
        CrateProfile {
            p_shared_ref_helper: 0.45,
            p_unused_mut_ref: 0.08,
            ..base("rustls", "TLS implementation", 26, 17, 18, 0x03)
        },
        CrateProfile {
            p_cross_crate_call: 0.85,
            ..base("sccache", "Distributed build cache", 20, 12, 26, 0x04)
        },
        CrateProfile {
            // Numerics: few references, lots of scalar math, subset returns.
            p_shared_ref_helper: 0.30,
            p_subset_return: 0.35,
            p_aliasing_step: 0.08,
            ..base("nalgebra", "Numerics library", 48, 41, 11, 0x05)
        },
        CrateProfile {
            p_unused_mut_ref: 0.16,
            ..base("image", "Image processing library", 30, 25, 24, 0x06)
        },
        CrateProfile {
            // HTTP server: heavy use of immutable references in its API.
            p_shared_ref_helper: 0.70,
            ..base("hyper", "HTTP server", 22, 18, 34, 0x07)
        },
        CrateProfile {
            // Game engine: large, mutation-heavy, aliasing-heavy.
            p_aliasing_step: 0.25,
            p_shared_ref_helper: 0.35,
            ..base("rg3d", "3D game engine", 95, 78, 11, 0x08)
        },
        CrateProfile {
            ..base("rav1e", "Video encoder", 26, 21, 48, 0x09)
        },
        CrateProfile {
            p_cross_crate_call: 0.70,
            ..base("rustpython", "Python interpreter", 92, 74, 21, 0x0A)
        },
    ]
}

/// The default global seed used by the evaluation (`evaluate --seed`
/// overrides it), so results are reproducible.
pub const DEFAULT_SEED: u64 = 0xF10A;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_ten_profiles_with_unique_names() {
        let profiles = paper_profiles();
        assert_eq!(profiles.len(), 10);
        let mut names: Vec<_> = profiles.iter().map(|p| p.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn profiles_are_ordered_roughly_by_size() {
        let profiles = paper_profiles();
        let first = &profiles[0];
        let last = &profiles[9];
        let weight = |p: &CrateProfile| p.num_drivers * p.avg_driver_steps + p.num_helpers;
        assert!(weight(first) < weight(last));
    }

    #[test]
    fn probabilities_are_valid() {
        for p in paper_profiles() {
            for prob in [
                p.p_unused_mut_ref,
                p.p_subset_return,
                p.p_shared_ref_helper,
                p.p_cross_crate_call,
                p.p_aliasing_step,
            ] {
                assert!((0.0..=1.0).contains(&prob), "{}: {prob}", p.name);
            }
            assert!(p.num_drivers > 0);
            assert!(p.num_externals > 0);
        }
    }

    #[test]
    fn hyper_uses_more_shared_refs_than_image() {
        let profiles = paper_profiles();
        let hyper = profiles.iter().find(|p| p.name == "hyper").unwrap();
        let image = profiles.iter().find(|p| p.name == "image").unwrap();
        assert!(hyper.p_shared_ref_helper > image.p_shared_ref_helper);
    }

    #[test]
    fn profiles_clone_and_compare() {
        let profiles = paper_profiles();
        let copy = profiles.clone();
        assert_eq!(profiles, copy);
        assert_eq!(DEFAULT_SEED, 0xF10A);
    }
}
