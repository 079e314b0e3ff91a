//! # flowistry-ifc: an information flow control checker
//!
//! The paper's second application (§6, Figure 5b) is an IFC checker: a
//! library marks some data as `Secure` and some operations as `Insecure`,
//! and a compiler plugin uses Flowistry to flag any flow from secure data to
//! an insecure operation — including *implicit* flows through control flow,
//! as in the paper's example where `insecure_print` is called under a branch
//! that read a password.
//!
//! The [`PolicyChecker`] generalises that two-point split to any finite
//! [`SecurityLattice`] (see [`lattice`]). Rox has no trait system to carry
//! the paper's markers, so a [`Policy`] is written in source annotations
//! ([`Policy::from_annotations`]), built programmatically, or derived from
//! naming conventions ([`Policy::from_conventions`]) as the two-point
//! `Public < Secret` instance.
//!
//! ```
//! use flowistry_ifc::{Policy, PolicyChecker};
//! let src = "
//!     fn read_password() -> i32 { return 1234; }
//!     fn insecure_print(x: i32) { }
//!     fn main_like() {
//!         let password = read_password();
//!         if password == 1234 { insecure_print(1); }
//!     }
//! ";
//! let program = flowistry_lang::compile(src).unwrap();
//! let checker = PolicyChecker::new(&program, Policy::from_conventions(&program)).unwrap();
//! let report = checker.check_function("main_like").unwrap();
//! assert!(!report.is_clean()); // the implicit flow is flagged
//! ```

#![warn(missing_docs)]

pub mod lattice;

pub use lattice::{
    line_of, witness_steps, FunctionLabels, IfcDiagnostic, Label, LabeledSource, LatticeSpec,
    Policy, PolicyChecker, PolicyError, PolicyReport, SecurityLattice, WitnessStep,
};

/// Whether an identifier names sensitive data under the naming conventions
/// of [`Policy::from_conventions`].
///
/// Sensitivity requires `password` or `secret` to appear as the **first or
/// last** `_`-separated segment (or the whole name), or the `secure_`
/// prefix: `read_password`, `secret_key` and `my_secret` match;
/// `secretary`, `passwords` and `not_secret_len` do not.
fn is_sensitive_name(name: &str) -> bool {
    for seg in ["password", "secret"] {
        if name == seg || name.starts_with(&format!("{seg}_")) || name.ends_with(&format!("_{seg}"))
        {
            return true;
        }
    }
    name.starts_with("secure_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitive_name_matching_is_segment_based() {
        for name in [
            "password",
            "secret",
            "read_password",
            "secret_key",
            "my_secret",
            "secure_token",
            "password_hash",
        ] {
            assert!(is_sensitive_name(name), "`{name}` should be sensitive");
        }
        for name in [
            "secretary",
            "not_secret_len",
            "passwords",
            "top_secretive",
            "insecure_print",
            "unsecure_x",
        ] {
            assert!(!is_sensitive_name(name), "`{name}` should not be sensitive");
        }
    }
}
