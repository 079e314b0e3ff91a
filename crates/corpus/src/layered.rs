//! The layered call-chain workload of the engine, service, server and
//! fleet tests: see [`layered_program`].

use std::fmt::Write;

/// A program of `modules` independent call chains of `depth` functions
/// each: `m{i}_l{j}` calls `m{i}_l{j-1}` twice, and `m{i}_l0` is the leaf.
/// Every function takes `(p: &mut i32, v: i32) -> i32`, so an edit's dirty
/// cone is exactly one chain above the edited function.
///
/// `version` numbers an edit sequence: version `k` adds `k` padding
/// statements `let zpad{j} = v + 1;` to `m0_l0`, ahead of its
/// `let a = v * 2;`. The function set, and so every `FuncId`, is the same
/// in every version, while the shifted statement locations make the
/// versions' results for `m0_l0` (and the chain above it) pairwise
/// distinct, which is what lets a test tell an answer's program version
/// from the answer alone. With `modules == 0` the version has no effect.
pub fn layered_program(modules: usize, depth: usize, version: usize) -> String {
    let mut src = String::new();
    for m in 0..modules {
        for l in 0..depth {
            if l == 0 {
                let pad: String = match m {
                    0 => (0..version)
                        .map(|j| format!("let zpad{j} = v + 1; "))
                        .collect(),
                    _ => String::new(),
                };
                let _ = writeln!(
                    src,
                    "fn m{m}_l0(p: &mut i32, v: i32) -> i32 {{
                         if v > 0 {{ *p = *p + v; }} else {{ *p = v; }}
                         {pad}let a = v * 2;
                         let b = a + *p;
                         return b;
                     }}"
                );
            } else {
                let prev = l - 1;
                let _ = writeln!(
                    src,
                    "fn m{m}_l{l}(p: &mut i32, v: i32) -> i32 {{
                         let r1 = m{m}_l{prev}(p, v + 1);
                         let r2 = m{m}_l{prev}(p, r1);
                         let mut acc = r1 + r2;
                         if acc > 10 {{ acc = acc - v; }}
                         return acc;
                     }}"
                );
            }
        }
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_differ_only_by_padding_in_the_first_leaf() {
        let base = layered_program(2, 3, 0);
        let v2 = layered_program(2, 3, 2);
        assert_eq!(
            v2,
            base.replacen(
                "let a = v * 2;",
                "let zpad0 = v + 1; let zpad1 = v + 1; let a = v * 2;",
                1
            )
        );
        let program = flowistry_lang::compile(&v2).expect("layered program compiles");
        assert_eq!(program.bodies.len(), 6);
        assert!(program.func_id("m1_l2").is_some());
    }
}
