//! A small-step-in-spirit interpreter over Rox MIR.
//!
//! The interpreter plays the role of Oxide's operational semantics in the
//! paper's soundness argument (§3): it gives the language a ground-truth
//! meaning against which the information flow analysis can be tested. Stacks
//! are vectors of frames mapping locals to [`Value`]s; references are
//! [`Pointer`]s into those frames; calls push and pop frames, exactly like
//! the `σ ♮ ς` stacks of the paper.

use crate::value::{Pointer, Value};
use flowistry_lang::ast::{BinOp, UnOp};
use flowistry_lang::mir::{
    AggregateKind, BasicBlock, Body, ConstValue, Local, Operand, Place, PlaceElem, Rvalue,
    StatementKind, TerminatorKind,
};
use flowistry_lang::types::FuncId;
use flowistry_lang::CompiledProgram;
use std::fmt;

/// A runtime error (the analogue of undefined behaviour / stuck states).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    /// Human readable description.
    pub message: String,
}

impl InterpError {
    fn new(message: impl Into<String>) -> Self {
        InterpError {
            message: message.into(),
        }
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpreter error: {}", self.message)
    }
}

impl std::error::Error for InterpError {}

/// One stack frame: the values of a function's locals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The function this frame belongs to.
    pub func: FuncId,
    /// Values of the locals; `None` means uninitialized.
    pub locals: Vec<Option<Value>>,
}

impl Frame {
    fn new(func: FuncId, local_count: usize) -> Self {
        Frame {
            func,
            locals: vec![None; local_count],
        }
    }

    /// The value of `local`, if initialized.
    pub fn local(&self, local: Local) -> Option<&Value> {
        self.locals.get(local.index()).and_then(|v| v.as_ref())
    }
}

/// One function call observed during execution: what an attacker watching
/// that callee would see. The noninterference oracle compares traces of
/// calls to low-clearance sinks across runs that vary only high inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallEvent {
    /// Name of the called function.
    pub callee: String,
    /// The argument values passed.
    pub args: Vec<Value>,
}

/// The outcome of executing a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The value returned by the entry function.
    pub return_value: Value,
    /// Snapshot of the entry function's frame when it returned.
    pub final_frame: Frame,
    /// Snapshot of the synthetic environment frame (frame 0) holding the
    /// referents of reference-typed arguments, after execution.
    pub environment: Frame,
    /// Number of MIR steps executed.
    pub steps: usize,
    /// Every call executed (transitively), in execution order. The entry
    /// call itself is not recorded.
    pub calls: Vec<CallEvent>,
}

/// The interpreter. Construct once per program and call [`Interpreter::run`].
pub struct Interpreter<'a> {
    program: &'a CompiledProgram,
    /// Maximum number of MIR instructions executed before giving up; guards
    /// against accidentally-infinite loops in generated programs.
    pub fuel: usize,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter with the default fuel (1 million steps).
    pub fn new(program: &'a CompiledProgram) -> Self {
        Interpreter {
            program,
            fuel: 1_000_000,
        }
    }

    /// Runs `func` with the given argument values.
    ///
    /// Reference-typed arguments must be passed as [`Value::Ref`] pointers;
    /// use [`Interpreter::run_with_env`] to have them synthesized from owned
    /// values automatically.
    ///
    /// # Errors
    ///
    /// Returns an [`InterpError`] for arity mismatches, reads of
    /// uninitialized memory, invalid projections, division by zero, or fuel
    /// exhaustion.
    pub fn run(&self, func: FuncId, args: Vec<Value>) -> Result<Outcome, InterpError> {
        let mut machine = Machine {
            program: self.program,
            stack: Vec::new(),
            steps: 0,
            fuel: self.fuel,
            trace: Vec::new(),
        };
        // Frame 0: an (empty) environment frame so that pointers handed in
        // by run_with_env have somewhere to live.
        machine.stack.push(Frame::new(func, 0));
        let (ret, frame) = machine.call(func, args)?;
        let environment = machine.stack[0].clone();
        Ok(Outcome {
            return_value: ret,
            final_frame: frame,
            environment,
            steps: machine.steps,
            calls: machine.trace,
        })
    }

    /// Runs `func`, synthesizing the environment for reference parameters:
    /// each reference-typed parameter receives a pointer to a fresh slot in
    /// the environment frame initialized with the corresponding value from
    /// `args` (which must then be the *referent* value).
    ///
    /// # Errors
    ///
    /// Same as [`Interpreter::run`].
    pub fn run_with_env(&self, func: FuncId, args: Vec<Value>) -> Result<Outcome, InterpError> {
        let sig = self.program.signature(func);
        if sig.inputs.len() != args.len() {
            return Err(InterpError::new(format!(
                "function `{}` expects {} arguments, got {}",
                sig.name,
                sig.inputs.len(),
                args.len()
            )));
        }
        let mut machine = Machine {
            program: self.program,
            stack: Vec::new(),
            steps: 0,
            fuel: self.fuel,
            trace: Vec::new(),
        };
        let mut env = Frame::new(func, args.len());
        let mut actual_args = Vec::with_capacity(args.len());
        for (i, (value, ty)) in args.into_iter().zip(&sig.inputs).enumerate() {
            if matches!(ty, flowistry_lang::types::Ty::Ref(..)) {
                env.locals[i] = Some(value);
                actual_args.push(Value::Ref(Pointer {
                    frame: 0,
                    place: Place::from_local(Local(i as u32)),
                }));
            } else {
                actual_args.push(value);
            }
        }
        machine.stack.push(env);
        let (ret, frame) = machine.call(func, actual_args)?;
        let environment = machine.stack[0].clone();
        Ok(Outcome {
            return_value: ret,
            final_frame: frame,
            environment,
            steps: machine.steps,
            calls: machine.trace,
        })
    }
}

struct Machine<'a> {
    program: &'a CompiledProgram,
    stack: Vec<Frame>,
    steps: usize,
    fuel: usize,
    trace: Vec<CallEvent>,
}

impl<'a> Machine<'a> {
    fn call(&mut self, func: FuncId, args: Vec<Value>) -> Result<(Value, Frame), InterpError> {
        let body = self.program.body(func);
        if args.len() != body.arg_count {
            return Err(InterpError::new(format!(
                "function `{}` expects {} arguments, got {}",
                body.name,
                body.arg_count,
                args.len()
            )));
        }
        if self.stack.len() > 512 {
            return Err(InterpError::new("call stack overflow"));
        }
        let mut frame = Frame::new(func, body.local_decls.len());
        for (i, arg) in args.into_iter().enumerate() {
            frame.locals[i + 1] = Some(arg);
        }
        self.stack.push(frame);
        let frame_idx = self.stack.len() - 1;

        let mut block = BasicBlock::START;
        loop {
            let data = body.block(block);
            for stmt in &data.statements {
                self.tick()?;
                if let StatementKind::Assign(place, rvalue) = &stmt.kind {
                    let value = self.eval_rvalue(body, frame_idx, rvalue)?;
                    self.write_place(frame_idx, place, value)?;
                }
            }
            self.tick()?;
            match &data.terminator().kind {
                TerminatorKind::Goto { target } => block = *target,
                TerminatorKind::SwitchBool {
                    discr,
                    true_block,
                    false_block,
                } => {
                    let v = self.eval_operand(frame_idx, discr)?;
                    let b = v
                        .as_bool()
                        .ok_or_else(|| InterpError::new("switch on a non-boolean value"))?;
                    block = if b { *true_block } else { *false_block };
                }
                TerminatorKind::Call {
                    func: callee,
                    args,
                    destination,
                    target,
                } => {
                    let arg_values = args
                        .iter()
                        .map(|a| self.eval_operand(frame_idx, a))
                        .collect::<Result<Vec<_>, _>>()?;
                    self.trace.push(CallEvent {
                        callee: self.program.signature(*callee).name.clone(),
                        args: arg_values.clone(),
                    });
                    let (ret, _) = self.call(*callee, arg_values)?;
                    self.write_place(frame_idx, destination, ret)?;
                    block = *target;
                }
                TerminatorKind::Return => {
                    let frame = self.stack.pop().expect("frame pushed above");
                    let ret = frame.local(Local::RETURN).cloned().unwrap_or(Value::Unit);
                    return Ok((ret, frame));
                }
                TerminatorKind::Unreachable => {
                    return Err(InterpError::new(format!(
                        "reached an unreachable terminator in `{}`",
                        body.name
                    )));
                }
            }
        }
    }

    fn tick(&mut self) -> Result<(), InterpError> {
        self.steps += 1;
        if self.steps > self.fuel {
            return Err(InterpError::new("fuel exhausted (possible infinite loop)"));
        }
        Ok(())
    }

    /// Resolves a place to the frame and deref-free place it denotes, by
    /// following pointers.
    fn resolve(&self, frame_idx: usize, place: &Place) -> Result<(usize, Place), InterpError> {
        let mut cur_frame = frame_idx;
        let mut cur_place = Place::from_local(place.local);
        for elem in &place.projection {
            match elem {
                PlaceElem::Field(i) => {
                    cur_place = cur_place.field(*i);
                }
                PlaceElem::Deref => {
                    let v = self.read_resolved(cur_frame, &cur_place)?;
                    match v {
                        Value::Ref(ptr) => {
                            cur_frame = ptr.frame;
                            cur_place = ptr.place.clone();
                        }
                        other => {
                            return Err(InterpError::new(format!(
                                "cannot dereference non-reference value `{other}`"
                            )));
                        }
                    }
                }
            }
        }
        Ok((cur_frame, cur_place))
    }

    /// Reads a deref-free place from a specific frame.
    fn read_resolved(&self, frame_idx: usize, place: &Place) -> Result<Value, InterpError> {
        let frame = self
            .stack
            .get(frame_idx)
            .ok_or_else(|| InterpError::new("dangling frame index"))?;
        let mut value = frame
            .local(place.local)
            .ok_or_else(|| {
                InterpError::new(format!("read of uninitialized local {}", place.local))
            })?
            .clone();
        for elem in &place.projection {
            match elem {
                PlaceElem::Field(i) => {
                    value = value
                        .field(*i as usize)
                        .ok_or_else(|| InterpError::new(format!("invalid field .{i}")))?
                        .clone();
                }
                PlaceElem::Deref => {
                    return Err(InterpError::new("unresolved deref in read_resolved"));
                }
            }
        }
        Ok(value)
    }

    fn read_place(&self, frame_idx: usize, place: &Place) -> Result<Value, InterpError> {
        let (frame, resolved) = self.resolve(frame_idx, place)?;
        self.read_resolved(frame, &resolved)
    }

    fn write_place(
        &mut self,
        frame_idx: usize,
        place: &Place,
        value: Value,
    ) -> Result<(), InterpError> {
        let (frame, resolved) = self.resolve(frame_idx, place)?;
        let frame_data = self
            .stack
            .get_mut(frame)
            .ok_or_else(|| InterpError::new("dangling frame index"))?;
        let slot = frame_data
            .locals
            .get_mut(resolved.local.index())
            .ok_or_else(|| InterpError::new(format!("no local {}", resolved.local)))?;
        if resolved.projection.is_empty() {
            *slot = Some(value);
            return Ok(());
        }
        let target = slot
            .as_mut()
            .ok_or_else(|| InterpError::new("write through uninitialized aggregate"))?;
        write_into(target, &resolved.projection, value)
    }

    fn eval_operand(&self, frame_idx: usize, op: &Operand) -> Result<Value, InterpError> {
        match op {
            Operand::Copy(p) | Operand::Move(p) => self.read_place(frame_idx, p),
            Operand::Constant(ConstValue::Unit) => Ok(Value::Unit),
            Operand::Constant(ConstValue::Int(n)) => Ok(Value::Int(*n)),
            Operand::Constant(ConstValue::Bool(b)) => Ok(Value::Bool(*b)),
        }
    }

    fn eval_rvalue(
        &mut self,
        body: &Body,
        frame_idx: usize,
        rvalue: &Rvalue,
    ) -> Result<Value, InterpError> {
        let _ = body;
        match rvalue {
            Rvalue::Use(op) => self.eval_operand(frame_idx, op),
            Rvalue::UnaryOp(op, operand) => {
                let v = self.eval_operand(frame_idx, operand)?;
                match op {
                    UnOp::Neg => Ok(Value::Int(
                        v.as_int()
                            .ok_or_else(|| InterpError::new("negating a non-integer"))?
                            .wrapping_neg(),
                    )),
                    UnOp::Not => Ok(Value::Bool(
                        !v.as_bool()
                            .ok_or_else(|| InterpError::new("`!` on a non-boolean"))?,
                    )),
                }
            }
            Rvalue::BinaryOp(op, a, b) => {
                let va = self.eval_operand(frame_idx, a)?;
                let vb = self.eval_operand(frame_idx, b)?;
                eval_binop(*op, &va, &vb)
            }
            Rvalue::Ref { place, .. } => {
                let (frame, resolved) = self.resolve(frame_idx, place)?;
                Ok(Value::Ref(Pointer {
                    frame,
                    place: resolved,
                }))
            }
            Rvalue::Aggregate(kind, ops) => {
                let values = ops
                    .iter()
                    .map(|o| self.eval_operand(frame_idx, o))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(match kind {
                    AggregateKind::Tuple => Value::Tuple(values),
                    AggregateKind::Struct(sid) => Value::Struct(*sid, values),
                })
            }
        }
    }
}

/// Writes `value` into the sub-value of `container` selected by `proj`.
fn write_into(container: &mut Value, proj: &[PlaceElem], value: Value) -> Result<(), InterpError> {
    match proj.first() {
        None => {
            *container = value;
            Ok(())
        }
        Some(PlaceElem::Field(i)) => {
            let next = container
                .field_mut(*i as usize)
                .ok_or_else(|| InterpError::new(format!("invalid field .{i}")))?;
            write_into(next, &proj[1..], value)
        }
        Some(PlaceElem::Deref) => Err(InterpError::new("unresolved deref in write_into")),
    }
}

fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Result<Value, InterpError> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Rem => {
            let (x, y) = match (a.as_int(), b.as_int()) {
                (Some(x), Some(y)) => (x, y),
                _ => return Err(InterpError::new("arithmetic on non-integers")),
            };
            let result = match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        return Err(InterpError::new("division by zero"));
                    }
                    x.wrapping_div(y)
                }
                Rem => {
                    if y == 0 {
                        return Err(InterpError::new("remainder by zero"));
                    }
                    x.wrapping_rem(y)
                }
                _ => unreachable!(),
            };
            Ok(Value::Int(result))
        }
        Lt | Le | Gt | Ge => {
            let (x, y) = match (a.as_int(), b.as_int()) {
                (Some(x), Some(y)) => (x, y),
                _ => return Err(InterpError::new("comparison on non-integers")),
            };
            Ok(Value::Bool(match op {
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                _ => unreachable!(),
            }))
        }
        Eq | Ne => {
            let equal = a == b;
            Ok(Value::Bool(if op == Eq { equal } else { !equal }))
        }
        And | Or => {
            let (x, y) = match (a.as_bool(), b.as_bool()) {
                (Some(x), Some(y)) => (x, y),
                _ => return Err(InterpError::new("logical operator on non-booleans")),
            };
            Ok(Value::Bool(if op == And { x && y } else { x || y }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowistry_lang::compile;

    fn run(src: &str, func: &str, args: Vec<Value>) -> Result<Outcome, InterpError> {
        let prog = compile(src).expect("compile failure");
        let interp = Interpreter::new(&prog);
        interp.run_with_env(prog.func_id(func).expect("no such function"), args)
    }

    #[test]
    fn arithmetic_and_return() {
        let out = run(
            "fn f(x: i32, y: i32) -> i32 { return x * 2 + y; }",
            "f",
            vec![Value::Int(3), Value::Int(4)],
        )
        .unwrap();
        assert_eq!(out.return_value, Value::Int(10));
        assert!(out.steps > 0);
    }

    #[test]
    fn call_trace_records_callees_and_arguments() {
        let src = "
            fn inc(x: i32) -> i32 { return x + 1; }
            fn emit(x: i32) { }
            fn main_like(n: i32) { let v = inc(n); if v > 3 { emit(v); } }
        ";
        let out = run(src, "main_like", vec![Value::Int(3)]).unwrap();
        assert_eq!(
            out.calls,
            vec![
                CallEvent {
                    callee: "inc".into(),
                    args: vec![Value::Int(3)],
                },
                CallEvent {
                    callee: "emit".into(),
                    args: vec![Value::Int(4)],
                },
            ]
        );
        // The branch not taken leaves no event.
        let out = run(src, "main_like", vec![Value::Int(0)]).unwrap();
        assert_eq!(out.calls.len(), 1);
    }

    #[test]
    fn branches_select_values() {
        let src = "fn f(c: bool, x: i32, y: i32) -> i32 { if c { return x; } return y; }";
        let t = run(
            src,
            "f",
            vec![Value::Bool(true), Value::Int(1), Value::Int(2)],
        )
        .unwrap();
        assert_eq!(t.return_value, Value::Int(1));
        let f = run(
            src,
            "f",
            vec![Value::Bool(false), Value::Int(1), Value::Int(2)],
        )
        .unwrap();
        assert_eq!(f.return_value, Value::Int(2));
    }

    #[test]
    fn while_loop_computes_sum() {
        let src = "fn sum(n: i32) -> i32 {
            let mut acc = 0; let mut i = 0;
            while i < n { acc = acc + i; i = i + 1; }
            return acc;
        }";
        let out = run(src, "sum", vec![Value::Int(5)]).unwrap();
        assert_eq!(out.return_value, Value::Int(10));
    }

    #[test]
    fn tuples_and_field_mutation() {
        let src = "fn f(x: i32) -> i32 { let mut t = (x, 10); t.1 = t.1 + 1; return t.0 + t.1; }";
        let out = run(src, "f", vec![Value::Int(5)]).unwrap();
        assert_eq!(out.return_value, Value::Int(16));
    }

    #[test]
    fn structs_round_trip() {
        let src = "struct P { a: i32, b: i32 }
                   fn f(x: i32) -> i32 { let p = P { a: x, b: 2 }; return p.a * p.b; }";
        let out = run(src, "f", vec![Value::Int(7)]).unwrap();
        assert_eq!(out.return_value, Value::Int(14));
    }

    #[test]
    fn references_and_mutation() {
        let src = "fn f(x: i32) -> i32 {
            let mut a = 0;
            let p = &mut a;
            *p = x + 1;
            return a;
        }";
        let out = run(src, "f", vec![Value::Int(9)]).unwrap();
        assert_eq!(out.return_value, Value::Int(10));
    }

    #[test]
    fn reborrow_of_field_mutates_original() {
        let src = "fn f(x: i32) -> i32 {
            let mut t = (0, 0);
            let y = &mut t;
            let z = &mut (*y).1;
            *z = x;
            return t.1;
        }";
        let out = run(src, "f", vec![Value::Int(42)]).unwrap();
        assert_eq!(out.return_value, Value::Int(42));
    }

    #[test]
    fn calls_pass_values_and_pointers() {
        let src = "
            fn store(p: &mut i32, v: i32) { *p = v; }
            fn caller(v: i32) -> i32 { let mut x = 0; store(&mut x, v); return x; }
        ";
        let out = run(src, "caller", vec![Value::Int(33)]).unwrap();
        assert_eq!(out.return_value, Value::Int(33));
    }

    #[test]
    fn env_frame_receives_mutations_through_ref_params() {
        let src = "fn bump(p: &mut i32, by: i32) { *p = *p + by; }";
        let prog = compile(src).unwrap();
        let interp = Interpreter::new(&prog);
        let out = interp
            .run_with_env(
                prog.func_id("bump").unwrap(),
                vec![Value::Int(10), Value::Int(5)],
            )
            .unwrap();
        assert_eq!(out.environment.locals[0], Some(Value::Int(15)));
    }

    #[test]
    fn recursion_terminates() {
        let src = "
            fn fib(n: i32) -> i32 {
                if n <= 1 { return n; }
                return fib(n - 1) + fib(n - 2);
            }
        ";
        let out = run(src, "fib", vec![Value::Int(10)]).unwrap();
        assert_eq!(out.return_value, Value::Int(55));
    }

    #[test]
    fn unbounded_recursion_is_a_structured_error() {
        // On a 2 MiB thread (the default for spawned threads), so the guard
        // must fire before the host stack runs out, in debug builds too.
        let src = "fn f(n: i32) -> i32 { return f(n + 1); }";
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || run(src, "f", vec![Value::Int(0)]).map(|_| ()))
            .expect("spawn interpreter thread")
            .join()
            .expect("interpreter thread aborted")
            .expect_err("unbounded recursion must fail");
        assert!(
            err.message.contains("call stack overflow"),
            "unexpected error: {}",
            err.message
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let err = run(
            "fn f(x: i32) -> i32 { return 10 / x; }",
            "f",
            vec![Value::Int(0)],
        )
        .unwrap_err();
        assert!(err.message.contains("division by zero"));
        assert!(err.to_string().contains("interpreter error"));
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let src = "fn f() { let mut x = 0; while true { x = x + 1; } }";
        let prog = compile(src).unwrap();
        let mut interp = Interpreter::new(&prog);
        interp.fuel = 1000;
        let err = interp.run(prog.func_id("f").unwrap(), vec![]).unwrap_err();
        assert!(err.message.contains("fuel"));
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let err = run("fn f(x: i32) -> i32 { return x; }", "f", vec![]).unwrap_err();
        assert!(err.message.contains("expects"));
    }

    #[test]
    fn wrapping_arithmetic_does_not_panic() {
        let out = run(
            "fn f(x: i32) -> i32 { return x * x; }",
            "f",
            vec![Value::Int(i64::MAX)],
        )
        .unwrap();
        assert!(matches!(out.return_value, Value::Int(_)));
    }
}
