//! Dependency sets and dependency contexts (the Θ of the paper).
//!
//! A dependency is either a concrete MIR [`Location`] (the ℓ of §2) or a
//! function argument ([`Dep::Arg`]). Argument dependencies play the role of
//! the initial contents of the stack in the noninterference theorem: the
//! value of a parameter at function entry is an input in its own right, and
//! tracking it explicitly lets callers of the analysis (the whole-program
//! condition, the IFC checker, the noninterference tests) see *which*
//! parameters influence a result.

use flowistry_dataflow::JoinSemiLattice;
use flowistry_lang::mir::{Local, Location};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use flowistry_lang::mir::Place;

/// One dependency: an instruction location or a function argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dep {
    /// The value produced or mutated by the instruction at this location.
    Instr(Location),
    /// The initial value of the given argument local (`_1`, `_2`, ...).
    Arg(Local),
}

impl Dep {
    /// The location, if this is an instruction dependency.
    pub fn location(&self) -> Option<Location> {
        match self {
            Dep::Instr(loc) => Some(*loc),
            Dep::Arg(_) => None,
        }
    }

    /// The argument local, if this is an argument dependency.
    pub fn arg(&self) -> Option<Local> {
        match self {
            Dep::Instr(_) => None,
            Dep::Arg(l) => Some(*l),
        }
    }
}

impl fmt::Display for Dep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dep::Instr(loc) => write!(f, "{loc}"),
            Dep::Arg(l) => write!(f, "arg({l})"),
        }
    }
}

/// A set of dependencies — the κ of the paper.
pub type DepSet = BTreeSet<Dep>;

/// The dependency context Θ: a map from places to their dependencies.
///
/// The map joins under key-wise union (paper §4.1), the `JoinSemiLattice`
/// impl for `BTreeMap<_, BTreeSet<_>>` provided by `flowistry-dataflow`.
/// A missing key still holds a value implicitly, what
/// [`ThetaExt::read_conflicts`] returns for it, which that union drops; the
/// analysis joins with [`ThetaExt::join_keeping_reads`], which keeps it.
pub type Theta = BTreeMap<Place, DepSet>;

/// Convenience operations on Θ used by the transfer functions.
pub trait ThetaExt {
    /// Dependencies observable by reading `place`.
    ///
    /// Reading a place reads the values stored in it and its sub-places, so
    /// the result is the union over keys that `place` is a prefix of. When
    /// no such key exists (the place was never tracked at this granularity)
    /// the read falls back to the place's ancestors, which conservatively
    /// accumulate every mutation of their descendants.
    fn read_conflicts(&self, place: &Place) -> DepSet;

    /// Adds `deps` to every key conflicting with `place` (the paper's
    /// `update-conflicts`), creating the key for `place` itself — seeded
    /// with its current readable dependencies — if it was missing.
    fn add_to_conflicts(&mut self, place: &Place, deps: &DepSet);

    /// Strong update: replaces the dependencies of exactly `place`, and adds
    /// `deps` to every *other* conflicting key (ancestors see their value
    /// change; siblings are untouched).
    fn strong_update(&mut self, place: &Place, deps: DepSet);

    /// Joins `other` into `self` so that every place reads at least what it
    /// read on either side: keys unite key-wise, and a key present on one
    /// side only also gets the other side's [`ThetaExt::read_conflicts`]
    /// value for it. Returns whether `self` changed.
    fn join_keeping_reads(&mut self, other: &Self) -> bool;
}

impl ThetaExt for Theta {
    fn read_conflicts(&self, place: &Place) -> DepSet {
        let mut out = DepSet::new();
        let mut found_sub = false;
        for (key, deps) in self {
            if place.is_prefix_of(key) {
                found_sub = true;
                out.extend(deps.iter().copied());
            }
        }
        if !found_sub {
            for (key, deps) in self {
                if key.is_prefix_of(place) {
                    out.extend(deps.iter().copied());
                }
            }
        }
        out
    }

    fn add_to_conflicts(&mut self, place: &Place, deps: &DepSet) {
        let mut touched_exact = false;
        for (key, existing) in self.iter_mut() {
            if key.conflicts_with(place) {
                existing.extend(deps.iter().copied());
                if key == place {
                    touched_exact = true;
                }
            }
        }
        if !touched_exact {
            // The place may or may not have been overwritten, so its new key
            // keeps the dependencies it was readable with before.
            let mut seeded = self.read_conflicts(place);
            seeded.extend(deps.iter().copied());
            self.insert(place.clone(), seeded);
        }
    }

    fn strong_update(&mut self, place: &Place, deps: DepSet) {
        for (key, existing) in self.iter_mut() {
            if key != place && key.conflicts_with(place) {
                existing.extend(deps.iter().copied());
            }
        }
        self.insert(place.clone(), deps);
    }

    fn join_keeping_reads(&mut self, other: &Self) -> bool {
        // The keys only `other` has read `self` as it is before the join.
        let seeds: Vec<(Place, DepSet)> = other
            .keys()
            .filter(|place| !self.contains_key(*place))
            .map(|place| (place.clone(), self.read_conflicts(place)))
            .collect();
        let mut changed = false;
        for (place, deps) in self.iter_mut() {
            if !other.contains_key(place) {
                for dep in other.read_conflicts(place) {
                    changed |= deps.insert(dep);
                }
            }
        }
        changed |= self.join(other);
        for (place, seed) in seeds {
            self.get_mut(&place).expect("joined key").extend(seed);
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowistry_lang::mir::{BasicBlock, PlaceElem};

    fn place(local: u32, proj: &[PlaceElem]) -> Place {
        Place {
            local: Local(local),
            projection: proj.to_vec(),
        }
    }

    fn loc(b: u32, i: usize) -> Dep {
        Dep::Instr(Location {
            block: BasicBlock(b),
            statement_index: i,
        })
    }

    #[test]
    fn dep_accessors() {
        let l = loc(1, 2);
        assert!(l.location().is_some());
        assert!(l.arg().is_none());
        let a = Dep::Arg(Local(3));
        assert_eq!(a.arg(), Some(Local(3)));
        assert!(a.location().is_none());
        assert_eq!(a.to_string(), "arg(_3)");
        assert_eq!(l.to_string(), "bb1[2]");
    }

    #[test]
    fn reads_are_field_sensitive() {
        use PlaceElem::Field;
        let mut theta = Theta::new();
        theta.insert(place(1, &[]), DepSet::from([loc(0, 0)]));
        theta.insert(place(1, &[Field(0)]), DepSet::from([loc(0, 1)]));
        theta.insert(place(1, &[Field(1)]), DepSet::from([loc(0, 2)]));
        theta.insert(place(2, &[]), DepSet::from([loc(9, 9)]));

        // Reading _1.0 sees only the value actually stored in _1.0.
        let got = theta.read_conflicts(&place(1, &[Field(0)]));
        assert_eq!(got, DepSet::from([loc(0, 1)]));

        // Reading _1 sees everything stored anywhere under _1.
        let got = theta.read_conflicts(&place(1, &[]));
        assert_eq!(got, DepSet::from([loc(0, 0), loc(0, 1), loc(0, 2)]));
    }

    #[test]
    fn reads_fall_back_to_ancestors_when_untracked() {
        use PlaceElem::Field;
        let mut theta = Theta::new();
        theta.insert(place(1, &[]), DepSet::from([loc(0, 0)]));
        // _1.1 has no key of its own; its value came from whatever was last
        // stored into _1.
        let got = theta.read_conflicts(&place(1, &[Field(1)]));
        assert_eq!(got, DepSet::from([loc(0, 0)]));
    }

    #[test]
    fn add_to_conflicts_is_additive_and_creates_missing_keys() {
        use PlaceElem::Field;
        let mut theta = Theta::new();
        theta.insert(place(1, &[]), DepSet::from([loc(0, 0)]));
        theta.add_to_conflicts(&place(1, &[Field(1)]), &DepSet::from([loc(5, 5)]));
        // The parent accumulated the new dep, and the exact key was created,
        // seeded with the value it may still hold from the parent.
        assert!(theta[&place(1, &[])].contains(&loc(5, 5)));
        assert!(theta[&place(1, &[])].contains(&loc(0, 0)));
        assert_eq!(
            theta[&place(1, &[Field(1)])],
            DepSet::from([loc(0, 0), loc(5, 5)])
        );
    }

    #[test]
    fn strong_update_replaces_exact_key_only() {
        use PlaceElem::Field;
        let mut theta = Theta::new();
        theta.insert(place(1, &[]), DepSet::from([loc(0, 0)]));
        theta.insert(place(1, &[Field(0)]), DepSet::from([loc(0, 1)]));
        theta.strong_update(&place(1, &[Field(0)]), DepSet::from([loc(7, 7)]));
        // Exact key replaced.
        assert_eq!(theta[&place(1, &[Field(0)])], DepSet::from([loc(7, 7)]));
        // Ancestor accumulates (its value did change).
        assert_eq!(theta[&place(1, &[])], DepSet::from([loc(0, 0), loc(7, 7)]));
    }

    #[test]
    fn join_keeps_what_a_missing_key_reads() {
        use PlaceElem::Field;
        // Before a loop `t` holds `_1`; after its body `t.0 = b` it also
        // has a key `t.0`. Joined either way, `t.0` reads both values.
        let (t, t0) = (place(1, &[]), place(1, &[Field(0)]));
        let arg = Dep::Arg(Local(1));
        let before = Theta::from([(t.clone(), DepSet::from([arg]))]);
        let mut after = before.clone();
        after.strong_update(&t0, DepSet::from([loc(2, 0)]));
        let mut joined = before.clone();
        assert!(joined.join_keeping_reads(&after));
        assert_eq!(joined[&t0], DepSet::from([arg, loc(2, 0)]));
        let mut reversed = after.clone();
        assert!(reversed.join_keeping_reads(&before));
        assert_eq!(reversed, joined);
        assert!(!joined.join_keeping_reads(&after));
        assert!(!joined.join_keeping_reads(&before));
        // Key-wise union alone loses `_1` for `t.0`.
        let mut united = before;
        united.join(&after);
        assert_eq!(united[&t0], DepSet::from([loc(2, 0)]));
    }

    #[test]
    fn siblings_are_never_touched() {
        use PlaceElem::Field;
        let mut theta = Theta::new();
        theta.insert(place(1, &[Field(0)]), DepSet::from([loc(0, 1)]));
        theta.insert(place(1, &[Field(1)]), DepSet::from([loc(0, 2)]));
        theta.strong_update(&place(1, &[Field(0)]), DepSet::from([loc(9, 9)]));
        assert_eq!(theta[&place(1, &[Field(1)])], DepSet::from([loc(0, 2)]));
        theta.add_to_conflicts(&place(1, &[Field(0)]), &DepSet::from([loc(8, 8)]));
        assert_eq!(theta[&place(1, &[Field(1)])], DepSet::from([loc(0, 2)]));
    }
}
