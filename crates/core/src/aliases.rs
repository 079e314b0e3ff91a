//! Alias analysis: resolving place expressions with dereferences to the
//! concrete places they may denote.
//!
//! This is the pointer-analysis half of the paper (§2.2): the loan sets
//! computed from lifetimes by `flowistry-lang` tell us what a reference may
//! point to, and the alias analysis uses them to resolve a place like
//! `(*_3).1` into the concrete memory it may name (`_1.1`, say, plus the
//! opaque `(*_3).1` itself when the pointer came from a caller).
//!
//! The **Ref-blind** ablation (§5) replaces the loan-set lookup with "any
//! place of the same type may be aliased", which is what an analysis without
//! lifetimes would have to assume.

use crate::places::{all_body_places, interior_places};
use flowistry_lang::loans::LoanSets;
use flowistry_lang::mir::{Body, Place, PlaceElem};
use flowistry_lang::types::{StructTable, Ty};
use std::collections::BTreeSet;

/// How dereferences are resolved to aliases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AliasMode {
    /// Use the lifetime-derived loan sets (the paper's analysis).
    Lifetimes,
    /// Ignore lifetimes: a reference may alias every place of its referent
    /// type (the Ref-blind condition of §5).
    TypeBased,
}

/// Alias analysis for one body.
#[derive(Debug)]
pub struct AliasAnalysis<'a> {
    body: &'a Body,
    structs: &'a StructTable,
    loans: LoanSets,
    mode: AliasMode,
    /// Candidate `(place, ty)` pairs used by the type-based mode.
    candidates: Vec<(Place, Ty)>,
}

impl<'a> AliasAnalysis<'a> {
    /// Builds the alias analysis, computing loan sets for the body.
    pub fn new(body: &'a Body, structs: &'a StructTable, mode: AliasMode) -> Self {
        let loans = flowistry_lang::loans::compute_loans(body, structs);
        let candidates = match mode {
            AliasMode::TypeBased => {
                // "All references of the same type can alias" (§5): the set
                // of things a reference might point to is the union of the
                // pointees of *every* reference in the body — every borrowed
                // place, each of its fields, and every opaque argument
                // referent — restricted by type compatibility at query time.
                // The fields matter: a `&mut i32` handed back by a callee
                // may point into a borrowed struct. Unborrowed locals are
                // not candidates: even without lifetimes, a reference must
                // point to something that was borrowed.
                let mut seen = std::collections::BTreeSet::new();
                let mut out = Vec::new();
                for (_, set) in loans.iter() {
                    for borrowed in set {
                        let ty = body.place_ty(borrowed, structs);
                        for place in interior_places(borrowed, &ty, structs) {
                            if seen.insert(place.clone()) {
                                let ty = body.place_ty(&place, structs);
                                out.push((place, ty));
                            }
                        }
                    }
                }
                // Deref places of reference-typed locals (e.g. the referents
                // of references returned from calls) are also candidates.
                for (place, ty) in all_body_places(body, structs) {
                    if place.has_deref() && seen.insert(place.clone()) {
                        out.push((place, ty));
                    }
                }
                out
            }
            AliasMode::Lifetimes => Vec::new(),
        };
        AliasAnalysis {
            body,
            structs,
            loans,
            mode,
            candidates,
        }
    }

    /// The loan sets backing this analysis.
    pub fn loans(&self) -> &LoanSets {
        &self.loans
    }

    /// The alias resolution mode.
    pub fn mode(&self) -> AliasMode {
        self.mode
    }

    /// The set of places `place` may denote at runtime.
    ///
    /// Places without dereferences denote themselves. A dereference is
    /// resolved through the pointer's loan set (or through type-based
    /// candidates in [`AliasMode::TypeBased`]); the dereference place itself
    /// is also kept, both as the conservative fallback when no loans are
    /// known (references passed in from the caller) and because Θ may track
    /// the opaque place directly.
    pub fn aliases(&self, place: &Place) -> BTreeSet<Place> {
        let mut out = BTreeSet::new();
        self.aliases_rec(place, 0, &mut out);
        out
    }

    fn aliases_rec(&self, place: &Place, depth: usize, out: &mut BTreeSet<Place>) {
        if depth > 8 {
            out.insert(place.clone());
            return;
        }
        let Some(deref_pos) = place.projection.iter().position(|e| *e == PlaceElem::Deref) else {
            out.insert(place.clone());
            return;
        };
        // Split into pointer prefix, the deref, and the remaining suffix.
        let pointer = Place {
            local: place.local,
            projection: place.projection[..deref_pos].to_vec(),
        };
        let suffix = &place.projection[deref_pos + 1..];

        // The opaque deref place itself is always an alias candidate.
        out.insert(place.clone());

        let pointees: Vec<Place> = match self.mode {
            AliasMode::Lifetimes => {
                let pointer_ty = self.body.place_ty(&pointer, self.structs);
                let Ty::Ref(region, _, _) = pointer_ty else {
                    return;
                };
                self.loans.loans(region).iter().cloned().collect()
            }
            AliasMode::TypeBased => {
                let pointer_ty = self.body.place_ty(&pointer, self.structs);
                let Ty::Ref(_, _, referent) = pointer_ty else {
                    return;
                };
                self.candidates
                    .iter()
                    .filter(|(p, t)| t.compatible(&referent) && *p != pointer)
                    .map(|(p, _)| p.clone())
                    .collect()
            }
        };

        for pointee in pointees {
            if pointee.local == place.local && pointee.projection == place.projection {
                continue;
            }
            let mut projection = pointee.projection.clone();
            projection.extend_from_slice(suffix);
            if projection.len() > 10 {
                continue;
            }
            let resolved = Place {
                local: pointee.local,
                projection,
            };
            // The resolved place may itself still contain derefs (e.g. a
            // loan rooted at an argument); recurse to normalize, but keep it
            // as well.
            if resolved.has_deref() {
                out.insert(resolved);
            } else {
                self.aliases_rec(&resolved, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowistry_lang::compile;
    use flowistry_lang::mir::Local;

    fn find_local(body: &Body, name: &str) -> Local {
        Local(
            body.local_decls
                .iter()
                .position(|d| d.name.as_deref() == Some(name))
                .unwrap_or_else(|| panic!("no local named {name}")) as u32,
        )
    }

    #[test]
    fn non_deref_places_alias_themselves() {
        let prog = compile("fn f() { let mut x = (1, 2); x.0 = 3; }").unwrap();
        let body = prog.body_by_name("f").unwrap();
        let aa = AliasAnalysis::new(body, &prog.structs, AliasMode::Lifetimes);
        let x = Place::from_local(find_local(body, "x")).field(0);
        assert_eq!(aa.aliases(&x), BTreeSet::from([x.clone()]));
    }

    #[test]
    fn deref_of_local_borrow_resolves_to_borrowed_place() {
        let prog = compile("fn f() { let mut x = 1; let r = &mut x; *r = 2; }").unwrap();
        let body = prog.body_by_name("f").unwrap();
        let aa = AliasAnalysis::new(body, &prog.structs, AliasMode::Lifetimes);
        let r = find_local(body, "r");
        let x = find_local(body, "x");
        let aliases = aa.aliases(&Place::from_local(r).deref());
        assert!(aliases.contains(&Place::from_local(x)));
    }

    #[test]
    fn reborrow_chain_resolves_to_field_of_root() {
        let prog =
            compile("fn f() { let mut x = (0, 0); let y = &mut x; let z = &mut (*y).1; *z = 1; }")
                .unwrap();
        let body = prog.body_by_name("f").unwrap();
        let aa = AliasAnalysis::new(body, &prog.structs, AliasMode::Lifetimes);
        let z = find_local(body, "z");
        let x = find_local(body, "x");
        let aliases = aa.aliases(&Place::from_local(z).deref());
        assert!(
            aliases.contains(&Place::from_local(x).field(1)),
            "expected x.1 in {aliases:?}"
        );
        // And crucially, x.0 is NOT an alias — field sensitivity.
        assert!(!aliases.contains(&Place::from_local(x).field(0)));
    }

    #[test]
    fn parameter_derefs_stay_opaque() {
        let prog = compile("fn f(p: &mut i32) { *p = 1; }").unwrap();
        let body = prog.body_by_name("f").unwrap();
        let aa = AliasAnalysis::new(body, &prog.structs, AliasMode::Lifetimes);
        let p = find_local(body, "p");
        let aliases = aa.aliases(&Place::from_local(p).deref());
        assert!(aliases.contains(&Place::from_local(p).deref()));
    }

    #[test]
    fn distinct_mutable_references_do_not_alias_with_lifetimes() {
        // Mirrors the paper's rg3d example (§5.3.3): two &mut parameters
        // cannot alias under the ownership rules.
        let prog =
            compile("fn link(parent: &mut i32, child: &mut i32) { *parent = *child; }").unwrap();
        let body = prog.body_by_name("link").unwrap();
        let aa = AliasAnalysis::new(body, &prog.structs, AliasMode::Lifetimes);
        let parent = find_local(body, "parent");
        let child = find_local(body, "child");
        let parent_aliases = aa.aliases(&Place::from_local(parent).deref());
        assert!(!parent_aliases.contains(&Place::from_local(child).deref()));
    }

    #[test]
    fn ref_blind_mode_aliases_same_typed_references() {
        let prog =
            compile("fn link(parent: &mut i32, child: &mut i32) { *parent = *child; }").unwrap();
        let body = prog.body_by_name("link").unwrap();
        let aa = AliasAnalysis::new(body, &prog.structs, AliasMode::TypeBased);
        let parent = find_local(body, "parent");
        let child = find_local(body, "child");
        let parent_aliases = aa.aliases(&Place::from_local(parent).deref());
        // Without lifetimes, *parent may alias any i32-typed place,
        // including the other parameter's referent... which appears as the
        // opaque deref of child or any int local.
        let child_like = parent_aliases
            .iter()
            .any(|p| p.local == child || p.local != parent);
        assert!(
            child_like,
            "expected type-based aliasing in {parent_aliases:?}"
        );
        assert!(aa.mode() == AliasMode::TypeBased);
    }

    #[test]
    fn ref_blind_mode_reaches_fields_of_borrowed_places() {
        // `*r` is an `i32` that points into `t`: without lifetimes the only
        // type-compatible candidates inside `t` are its fields.
        let prog = compile(
            "fn get<'a>(p: &'a mut (i32, i32)) -> &'a mut i32 { return &mut (*p).0; }
             fn caller() { let mut t = (1, 2); let r = get(&mut t); *r = 5; }",
        )
        .unwrap();
        let body = prog.body_by_name("caller").unwrap();
        let aa = AliasAnalysis::new(body, &prog.structs, AliasMode::TypeBased);
        let r = find_local(body, "r");
        let t = Place::from_local(find_local(body, "t"));
        let aliases = aa.aliases(&Place::from_local(r).deref());
        for field in [t.field(0), t.field(1)] {
            assert!(aliases.contains(&field), "expected {field} in {aliases:?}");
        }
    }

    #[test]
    fn call_returned_reference_aliases_argument_referent() {
        let prog = compile(
            "fn get<'a>(p: &'a mut (i32, i32)) -> &'a mut i32 { return &mut (*p).0; }
             fn caller() { let mut t = (1, 2); let r = get(&mut t); *r = 5; }",
        )
        .unwrap();
        let body = prog.body_by_name("caller").unwrap();
        let aa = AliasAnalysis::new(body, &prog.structs, AliasMode::Lifetimes);
        let r = find_local(body, "r");
        let t = find_local(body, "t");
        let aliases = aa.aliases(&Place::from_local(r).deref());
        let rooted_at_t = aliases.iter().any(|p| p.local == t);
        assert!(rooted_at_t, "expected alias rooted at t in {aliases:?}");
    }
}
