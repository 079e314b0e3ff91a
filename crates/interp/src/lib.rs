//! # flowistry-interp: an interpreter for Rox MIR
//!
//! The paper's soundness theorem (noninterference, §3) is stated against
//! Oxide's operational semantics. This crate provides the corresponding
//! executable semantics for Rox — a stack-of-frames [`machine::Interpreter`]
//! over MIR — together with an empirical [`noninterference`] checker that
//! tests Theorem 3.1 on concrete programs: vary the inputs *outside* a
//! value's computed dependency set and verify the value does not change.
//!
//! ```
//! use flowistry_interp::{Interpreter, Value};
//! let prog = flowistry_lang::compile(
//!     "fn triple(x: i32) -> i32 { return x * 3; }",
//! ).unwrap();
//! let interp = Interpreter::new(&prog);
//! let out = interp.run_with_env(prog.func_id("triple").unwrap(), vec![Value::Int(4)]).unwrap();
//! assert_eq!(out.return_value, Value::Int(12));
//! ```

#![warn(missing_docs)]

pub mod machine;
pub mod noninterference;
pub mod value;

pub use machine::{CallEvent, Frame, InterpError, Interpreter, Outcome};
pub use noninterference::{check_function, input_tys, random_value, NoninterferenceReport, Rng};
pub use value::{Pointer, Value};
