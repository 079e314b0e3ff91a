//! Place utilities: interior places and transitive references.
//!
//! These implement the type-directed metafunctions of the paper:
//! the places introduced by a `let` binding (T-Let initializes every place
//! within the bound variable) and the ω-refs computation of §2.3 (the
//! references transitively reachable from a function argument).

use flowistry_lang::ast::Mutability;
use flowistry_lang::mir::{Body, Place};
use flowistry_lang::types::{StructTable, Ty};

/// Maximum projection depth explored when enumerating interior places.
/// Types in Rox are finite trees, but references to references can chain;
/// the cap keeps enumeration small without affecting soundness (deeper
/// places still conflict with their enumerated ancestors).
pub const MAX_PLACE_DEPTH: usize = 6;

/// A reference reachable from a place, described by the place that
/// dereferences it and the reference's mutability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachableRef {
    /// The dereference place, e.g. `(*_1)` or `(*_1.0)`.
    pub place: Place,
    /// Mutability of the reference that was dereferenced.
    pub mutbl: Mutability,
}

/// All places obtainable from `place` by field projections (not following
/// references), including `place` itself: the "places within x" that T-Let
/// initializes.
pub fn interior_places(place: &Place, ty: &Ty, structs: &StructTable) -> Vec<Place> {
    let mut out = Vec::new();
    collect_interior(place, ty, structs, 0, &mut out);
    out
}

fn collect_interior(
    place: &Place,
    ty: &Ty,
    structs: &StructTable,
    depth: usize,
    out: &mut Vec<Place>,
) {
    out.push(place.clone());
    if depth >= MAX_PLACE_DEPTH {
        return;
    }
    match ty {
        Ty::Tuple(tys) => {
            for (i, t) in tys.iter().enumerate() {
                collect_interior(&place.field(i as u32), t, structs, depth + 1, out);
            }
        }
        Ty::Struct(sid) => {
            for (i, (_, t)) in structs.get(*sid).fields.iter().enumerate() {
                collect_interior(&place.field(i as u32), t, structs, depth + 1, out);
            }
        }
        _ => {}
    }
}

/// All places obtainable from `place`, additionally following references
/// (producing dereference places). Used to initialize Θ for parameters.
pub fn interior_places_with_derefs(place: &Place, ty: &Ty, structs: &StructTable) -> Vec<Place> {
    let mut out = Vec::new();
    collect_with_derefs(place, ty, structs, 0, &mut out);
    out
}

fn collect_with_derefs(
    place: &Place,
    ty: &Ty,
    structs: &StructTable,
    depth: usize,
    out: &mut Vec<Place>,
) {
    out.push(place.clone());
    if depth >= MAX_PLACE_DEPTH {
        return;
    }
    match ty {
        Ty::Tuple(tys) => {
            for (i, t) in tys.iter().enumerate() {
                collect_with_derefs(&place.field(i as u32), t, structs, depth + 1, out);
            }
        }
        Ty::Struct(sid) => {
            for (i, (_, t)) in structs.get(*sid).fields.iter().enumerate() {
                collect_with_derefs(&place.field(i as u32), t, structs, depth + 1, out);
            }
        }
        Ty::Ref(_, _, inner) => {
            collect_with_derefs(&place.deref(), inner, structs, depth + 1, out);
        }
        _ => {}
    }
}

/// The references transitively reachable from `place` of type `ty` — the
/// ω-refs metafunction of §2.3.
///
/// * With `only_unique = true` this returns the paper's uniq-refs: the
///   references a callee could mutate through (a unique reference reached
///   through other references, all of which must themselves allow mutation).
/// * With `only_unique = false` it returns every reachable reference, i.e.
///   the places a callee could read (shrd-refs in the paper's terminology,
///   interpreted as "readable").
pub fn transitive_refs(
    place: &Place,
    ty: &Ty,
    structs: &StructTable,
    only_unique: bool,
) -> Vec<ReachableRef> {
    let _ = structs; // struct fields are reference-free, so the walk never needs them
    let mut out = Vec::new();
    collect_refs(place, ty, only_unique, 0, &mut out);
    out
}

fn collect_refs(
    place: &Place,
    ty: &Ty,
    only_unique: bool,
    depth: usize,
    out: &mut Vec<ReachableRef>,
) {
    if depth >= MAX_PLACE_DEPTH {
        return;
    }
    match ty {
        Ty::Ref(_, mutbl, inner) => {
            let deref = place.deref();
            if !only_unique || mutbl.is_mut() {
                out.push(ReachableRef {
                    place: deref.clone(),
                    mutbl: *mutbl,
                });
            }
            // Mutation through a shared reference is impossible: everything
            // below a shared reference is frozen, so the unique-refs
            // collection stops there. Reads keep going either way.
            if !only_unique || mutbl.is_mut() {
                collect_refs(&deref, inner, only_unique, depth + 1, out);
            }
        }
        Ty::Tuple(tys) => {
            for (i, t) in tys.iter().enumerate() {
                collect_refs(&place.field(i as u32), t, only_unique, depth + 1, out);
            }
        }
        _ => {}
    }
}

/// The type-directed set of argument places a callee can read: the argument
/// itself plus every transitively reachable referent.
pub fn readable_places(place: &Place, ty: &Ty, structs: &StructTable) -> Vec<Place> {
    let mut out = vec![place.clone()];
    out.extend(
        transitive_refs(place, ty, structs, false)
            .into_iter()
            .map(|r| r.place),
    );
    out
}

/// The places of every local in `body`, down to interior fields and through
/// references — used by the Ref-blind condition to enumerate alias
/// candidates ("all references of the same type can alias", §5).
pub fn all_body_places(body: &Body, structs: &StructTable) -> Vec<(Place, Ty)> {
    let mut out = Vec::new();
    for (idx, decl) in body.local_decls.iter().enumerate() {
        let root = Place::from_local(flowistry_lang::mir::Local(idx as u32));
        for p in interior_places_with_derefs(&root, &decl.ty, structs) {
            let ty = body.place_ty(&p, structs);
            out.push((p, ty));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowistry_lang::mir::Local;
    use flowistry_lang::types::{RegionVid, StructData, StructId};

    fn structs_with_pair() -> StructTable {
        let mut t = StructTable::new();
        t.push(StructData {
            name: "Pair".into(),
            fields: vec![("a".into(), Ty::Int), ("b".into(), Ty::Int)],
        });
        t
    }

    fn r(m: Mutability, inner: Ty) -> Ty {
        Ty::make_ref(RegionVid(0), m, inner)
    }

    #[test]
    fn interior_places_of_nested_tuple() {
        let structs = StructTable::new();
        let ty = Ty::Tuple(vec![Ty::Int, Ty::Tuple(vec![Ty::Bool, Ty::Int])]);
        let places = interior_places(&Place::from_local(Local(1)), &ty, &structs);
        assert_eq!(places.len(), 5); // _1, _1.0, _1.1, _1.1.0, _1.1.1
    }

    #[test]
    fn interior_places_of_struct() {
        let structs = structs_with_pair();
        let ty = Ty::Struct(StructId(0));
        let places = interior_places(&Place::from_local(Local(2)), &ty, &structs);
        assert_eq!(places.len(), 3);
    }

    #[test]
    fn interior_places_do_not_follow_references() {
        let structs = StructTable::new();
        let ty = r(Mutability::Mut, Ty::Tuple(vec![Ty::Int, Ty::Int]));
        let places = interior_places(&Place::from_local(Local(1)), &ty, &structs);
        assert_eq!(places.len(), 1);
    }

    #[test]
    fn interior_with_derefs_follows_references() {
        let structs = StructTable::new();
        let ty = r(Mutability::Mut, Ty::Tuple(vec![Ty::Int, Ty::Int]));
        let places = interior_places_with_derefs(&Place::from_local(Local(1)), &ty, &structs);
        // _1, (*_1), (*_1).0, (*_1).1
        assert_eq!(places.len(), 4);
    }

    #[test]
    fn transitive_refs_unique_only_stops_at_shared() {
        let structs = StructTable::new();
        // (&mut i32, &i32)
        let ty = Ty::Tuple(vec![
            r(Mutability::Mut, Ty::Int),
            r(Mutability::Shared, Ty::Int),
        ]);
        let place = Place::from_local(Local(1));
        let uniq = transitive_refs(&place, &ty, &structs, true);
        assert_eq!(uniq.len(), 1);
        assert_eq!(uniq[0].place, place.field(0).deref());
        let all = transitive_refs(&place, &ty, &structs, false);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn unique_ref_behind_shared_ref_is_not_mutable() {
        let structs = StructTable::new();
        // & &mut i32 — the outer shared reference freezes the inner one.
        let ty = r(Mutability::Shared, r(Mutability::Mut, Ty::Int));
        let place = Place::from_local(Local(1));
        let uniq = transitive_refs(&place, &ty, &structs, true);
        assert!(uniq.is_empty());
        let all = transitive_refs(&place, &ty, &structs, false);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn readable_places_include_argument_itself() {
        let structs = StructTable::new();
        let ty = r(Mutability::Shared, Ty::Int);
        let place = Place::from_local(Local(1));
        let readable = readable_places(&place, &ty, &structs);
        assert!(readable.contains(&place));
        assert!(readable.contains(&place.deref()));
    }

    #[test]
    fn depth_cap_terminates_enumeration() {
        let structs = StructTable::new();
        // A deeply nested tuple beyond the cap.
        let mut ty = Ty::Int;
        for _ in 0..12 {
            ty = Ty::Tuple(vec![ty]);
        }
        let places = interior_places(&Place::from_local(Local(1)), &ty, &structs);
        assert!(places.len() <= MAX_PLACE_DEPTH + 1);
    }
}
