//! Semantic types for Rox.
//!
//! [`Ty`] is the type representation used by the type checker and MIR. Unlike
//! surface [`crate::ast::AstTy`], reference types carry a [`RegionVid`]: an
//! index into a body's region (provenance) table. The type checker produces
//! types with [`RegionVid::ERASED`] regions; MIR lowering re-instantiates each
//! reference position with a fresh region variable, mirroring how rustc's NLL
//! treats the regions in local types.

use crate::ast::Mutability;
use std::fmt;

/// Index of a struct definition in a [`StructTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

/// A region (provenance / lifetime) variable, scoped to one function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionVid(pub u32);

impl RegionVid {
    /// Placeholder region used by the type checker before MIR lowering
    /// assigns real region variables.
    pub const ERASED: RegionVid = RegionVid(u32::MAX);

    /// Whether this is the erased placeholder region.
    pub fn is_erased(self) -> bool {
        self == RegionVid::ERASED
    }
}

impl fmt::Display for RegionVid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_erased() {
            write!(f, "'_")
        } else {
            write!(f, "'{}", self.0)
        }
    }
}

/// A semantic type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// The unit type `()`.
    Unit,
    /// Machine integers (`i32`).
    Int,
    /// Booleans.
    Bool,
    /// Tuples.
    Tuple(Vec<Ty>),
    /// A named struct. Struct fields are reference-free by construction.
    Struct(StructId),
    /// A reference `&'r T` / `&'r mut T`.
    Ref(RegionVid, Mutability, Box<Ty>),
}

impl Ty {
    /// Builds a reference type.
    pub fn make_ref(region: RegionVid, mutbl: Mutability, inner: Ty) -> Ty {
        Ty::Ref(region, mutbl, Box::new(inner))
    }

    /// Whether two types have the same shape, ignoring region variables.
    ///
    /// This is the notion of type equality used by the type checker: regions
    /// are inferred separately by the MIR region analysis.
    pub fn compatible(&self, other: &Ty) -> bool {
        match (self, other) {
            (Ty::Unit, Ty::Unit) | (Ty::Int, Ty::Int) | (Ty::Bool, Ty::Bool) => true,
            (Ty::Tuple(a), Ty::Tuple(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.compatible(y))
            }
            (Ty::Struct(a), Ty::Struct(b)) => a == b,
            (Ty::Ref(_, m1, a), Ty::Ref(_, m2, b)) => m1 == m2 && a.compatible(b),
            _ => false,
        }
    }

    /// Whether the type contains any reference anywhere.
    pub fn contains_ref(&self) -> bool {
        match self {
            Ty::Unit | Ty::Int | Ty::Bool => false,
            Ty::Tuple(tys) => tys.iter().any(Ty::contains_ref),
            Ty::Struct(_) => false, // struct fields are reference-free
            Ty::Ref(..) => true,
        }
    }

    /// All region variables appearing in the type, in a deterministic
    /// (pre-order) order.
    pub fn regions(&self) -> Vec<RegionVid> {
        let mut out = Vec::new();
        self.any_region(&mut |r| {
            out.push(r);
            false
        });
        out
    }

    /// Whether `pred` holds for some region in the type, visited in the
    /// order of [`Ty::regions`]; allocates nothing.
    pub fn any_region(&self, pred: &mut impl FnMut(RegionVid) -> bool) -> bool {
        match self {
            Ty::Unit | Ty::Int | Ty::Bool | Ty::Struct(_) => false,
            Ty::Tuple(tys) => tys.iter().any(|t| t.any_region(pred)),
            Ty::Ref(r, _, inner) => pred(*r) || inner.any_region(pred),
        }
    }

    /// Rewrites every region in the type using `f`, returning the new type.
    pub fn map_regions(&self, f: &mut impl FnMut(RegionVid) -> RegionVid) -> Ty {
        match self {
            Ty::Unit => Ty::Unit,
            Ty::Int => Ty::Int,
            Ty::Bool => Ty::Bool,
            Ty::Struct(s) => Ty::Struct(*s),
            Ty::Tuple(tys) => Ty::Tuple(tys.iter().map(|t| t.map_regions(f)).collect()),
            Ty::Ref(r, m, inner) => {
                let new_r = f(*r);
                Ty::Ref(new_r, *m, Box::new(inner.map_regions(f)))
            }
        }
    }

    /// The number of fields if the type is a tuple or struct.
    pub fn field_count(&self, structs: &StructTable) -> usize {
        match self {
            Ty::Tuple(tys) => tys.len(),
            Ty::Struct(sid) => structs.get(*sid).fields.len(),
            _ => 0,
        }
    }

    /// The type of field `idx` of this type, if it is a tuple or struct.
    pub fn field_ty(&self, idx: u32, structs: &StructTable) -> Option<Ty> {
        match self {
            Ty::Tuple(tys) => tys.get(idx as usize).cloned(),
            Ty::Struct(sid) => structs
                .get(*sid)
                .fields
                .get(idx as usize)
                .map(|(_, t)| t.clone()),
            _ => None,
        }
    }

    /// Renders the type, resolving struct names through `structs`.
    pub fn display<'a>(&'a self, structs: &'a StructTable) -> TyDisplay<'a> {
        TyDisplay { ty: self, structs }
    }
}

/// Helper for rendering a [`Ty`] with struct names resolved.
pub struct TyDisplay<'a> {
    ty: &'a Ty,
    structs: &'a StructTable,
}

impl fmt::Display for TyDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ty {
            Ty::Unit => write!(f, "()"),
            Ty::Int => write!(f, "i32"),
            Ty::Bool => write!(f, "bool"),
            Ty::Struct(sid) => write!(f, "{}", self.structs.get(*sid).name),
            Ty::Tuple(tys) => {
                write!(f, "(")?;
                for (i, t) in tys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", t.display(self.structs))?;
                }
                write!(f, ")")
            }
            Ty::Ref(r, m, inner) => {
                write!(f, "&{r} ")?;
                if m.is_mut() {
                    write!(f, "mut ")?;
                }
                write!(f, "{}", inner.display(self.structs))
            }
        }
    }
}

/// A struct definition resolved to semantic types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructData {
    /// Struct name.
    pub name: String,
    /// Fields in declaration order: name and type.
    pub fields: Vec<(String, Ty)>,
}

impl StructData {
    /// Index of the field named `name`, if present.
    pub fn field_index(&self, name: &str) -> Option<u32> {
        self.fields
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| i as u32)
    }
}

/// Table of all struct definitions in a program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StructTable {
    structs: Vec<StructData>,
}

impl StructTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        StructTable::default()
    }

    /// Adds a struct and returns its id.
    pub fn push(&mut self, data: StructData) -> StructId {
        let id = StructId(self.structs.len() as u32);
        self.structs.push(data);
        id
    }

    /// Looks up a struct by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not in the table.
    pub fn get(&self, id: StructId) -> &StructData {
        &self.structs[id.0 as usize]
    }

    /// Finds a struct id by name.
    pub fn lookup(&self, name: &str) -> Option<StructId> {
        self.structs
            .iter()
            .position(|s| s.name == name)
            .map(|i| StructId(i as u32))
    }

    /// Number of structs in the table.
    pub fn len(&self) -> usize {
        self.structs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.structs.is_empty()
    }

    /// Iterates over `(id, data)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StructId, &StructData)> {
        self.structs
            .iter()
            .enumerate()
            .map(|(i, s)| (StructId(i as u32), s))
    }
}

/// Index of a function in a compiled [`crate::CompiledProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// A function signature as seen by callers: the only information the modular
/// analysis is allowed to use about a callee (paper §2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSig {
    /// Function name.
    pub name: String,
    /// Parameter types. Region variables index into [`FnSig::regions`].
    pub inputs: Vec<Ty>,
    /// Return type. Region variables index into [`FnSig::regions`].
    pub output: Ty,
    /// Number of abstract (universal) regions in the signature; region `i`
    /// of the signature is `RegionVid(i)` for `i < region_count`.
    pub region_count: u32,
    /// Names of declared lifetime parameters (elided regions are unnamed).
    pub region_names: Vec<Option<String>>,
    /// Declared outlives bounds `(longer, shorter)` between signature regions.
    pub outlives: Vec<(RegionVid, RegionVid)>,
    /// Security label of the data this function produces (`#[label(L)]`).
    pub label: Option<String>,
    /// Clearance of this function as a sink (`#[sink(L)]`): the highest label
    /// it may observe.
    pub clearance: Option<String>,
    /// Per-parameter security labels (`#[label(L)]` on a parameter), indexed
    /// parallel to [`FnSig::inputs`].
    pub param_labels: Vec<Option<String>>,
    /// Declared effect contract (`#[effect(..)]`), checked against the
    /// inferred effect signature by `flowistry-lint`.
    pub effect: Option<crate::ast::EffectDecl>,
    /// Module membership (`#[module(M)]`); carries the module's
    /// `#![module_policy(..)]` defaults into the IFC policy.
    pub module: Option<String>,
}

impl FnSig {
    /// Whether any parameter contains a unique (mutable) reference,
    /// transitively. Functions with no unique references cannot mutate their
    /// caller's state under the modular assumption.
    pub fn has_unique_ref_param(&self) -> bool {
        fn check(ty: &Ty) -> bool {
            match ty {
                Ty::Ref(_, m, inner) => m.is_mut() || check(inner),
                Ty::Tuple(tys) => tys.iter().any(check),
                _ => false,
            }
        }
        self.inputs.iter().any(check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with_point() -> (StructTable, StructId) {
        let mut t = StructTable::new();
        let id = t.push(StructData {
            name: "Point".into(),
            fields: vec![("x".into(), Ty::Int), ("y".into(), Ty::Int)],
        });
        (t, id)
    }

    #[test]
    fn compatibility_ignores_regions() {
        let a = Ty::make_ref(RegionVid(1), Mutability::Mut, Ty::Int);
        let b = Ty::make_ref(RegionVid(7), Mutability::Mut, Ty::Int);
        assert!(a.compatible(&b));
        let c = Ty::make_ref(RegionVid(7), Mutability::Shared, Ty::Int);
        assert!(!a.compatible(&c));
    }

    #[test]
    fn compatibility_checks_shape() {
        let a = Ty::Tuple(vec![Ty::Int, Ty::Bool]);
        let b = Ty::Tuple(vec![Ty::Int, Ty::Bool]);
        let c = Ty::Tuple(vec![Ty::Int]);
        assert!(a.compatible(&b));
        assert!(!a.compatible(&c));
        assert!(!a.compatible(&Ty::Int));
    }

    #[test]
    fn contains_ref_walks_tuples() {
        let t = Ty::Tuple(vec![
            Ty::Int,
            Ty::make_ref(RegionVid(0), Mutability::Shared, Ty::Bool),
        ]);
        assert!(t.contains_ref());
        assert!(!Ty::Tuple(vec![Ty::Int, Ty::Bool]).contains_ref());
    }

    #[test]
    fn regions_are_collected_in_preorder() {
        let t = Ty::Tuple(vec![
            Ty::make_ref(RegionVid(3), Mutability::Mut, Ty::Int),
            Ty::make_ref(
                RegionVid(5),
                Mutability::Shared,
                Ty::make_ref(RegionVid(9), Mutability::Shared, Ty::Int),
            ),
        ]);
        assert_eq!(t.regions(), vec![RegionVid(3), RegionVid(5), RegionVid(9)]);
        let mut seen = Vec::new();
        assert!(t.any_region(&mut |r| {
            seen.push(r);
            r == RegionVid(5)
        }));
        assert_eq!(seen, vec![RegionVid(3), RegionVid(5)]);
        assert!(!t.any_region(&mut |r| r == RegionVid(4)));
        assert!(!Ty::Tuple(vec![Ty::Int]).any_region(&mut |_| true));
    }

    #[test]
    fn map_regions_rewrites_all_positions() {
        let t = Ty::make_ref(
            RegionVid(1),
            Mutability::Mut,
            Ty::make_ref(RegionVid(2), Mutability::Shared, Ty::Int),
        );
        let mapped = t.map_regions(&mut |r| RegionVid(r.0 + 10));
        assert_eq!(mapped.regions(), vec![RegionVid(11), RegionVid(12)]);
    }

    #[test]
    fn field_access_on_tuple_and_struct() {
        let (table, id) = table_with_point();
        let tup = Ty::Tuple(vec![Ty::Int, Ty::Bool]);
        assert_eq!(tup.field_ty(1, &table), Some(Ty::Bool));
        assert_eq!(tup.field_ty(2, &table), None);
        assert_eq!(tup.field_count(&table), 2);
        let st = Ty::Struct(id);
        assert_eq!(st.field_ty(0, &table), Some(Ty::Int));
        assert_eq!(st.field_count(&table), 2);
        assert_eq!(Ty::Int.field_count(&table), 0);
    }

    #[test]
    fn struct_table_lookup() {
        let (table, id) = table_with_point();
        assert_eq!(table.lookup("Point"), Some(id));
        assert_eq!(table.lookup("Missing"), None);
        assert_eq!(table.get(id).field_index("y"), Some(1));
        assert_eq!(table.get(id).field_index("z"), None);
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
    }

    #[test]
    fn ty_display_renders_references() {
        let (table, id) = table_with_point();
        let t = Ty::make_ref(RegionVid(2), Mutability::Mut, Ty::Struct(id));
        assert_eq!(t.display(&table).to_string(), "&'2 mut Point");
        let erased = Ty::make_ref(RegionVid::ERASED, Mutability::Shared, Ty::Int);
        assert_eq!(erased.display(&table).to_string(), "&'_ i32");
    }

    #[test]
    fn fn_sig_unique_ref_detection() {
        let sig = FnSig {
            name: "f".into(),
            inputs: vec![Ty::Tuple(vec![Ty::make_ref(
                RegionVid(0),
                Mutability::Mut,
                Ty::Int,
            )])],
            output: Ty::Unit,
            region_count: 1,
            region_names: vec![Some("a".into())],
            outlives: vec![],
            label: None,
            clearance: None,
            param_labels: vec![None],
            effect: None,
            module: None,
        };
        assert!(sig.has_unique_ref_param());
        let sig2 = FnSig {
            name: "g".into(),
            inputs: vec![Ty::make_ref(RegionVid(0), Mutability::Shared, Ty::Int)],
            output: Ty::Int,
            region_count: 1,
            region_names: vec![None],
            outlives: vec![],
            label: None,
            clearance: None,
            param_labels: vec![None],
            effect: None,
            module: None,
        };
        assert!(!sig2.has_unique_ref_param());
    }
}
