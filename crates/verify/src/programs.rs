//! The join's kernels, encoded in the Figure 6 language.
//!
//! §6.1 of the paper verifies the C++ implementation by annotating it with
//! the types of a memory-trace obliviousness type system.  The same exercise
//! is reproduced here: each inner loop of the Rust implementation is
//! transcribed into the [`crate::ast`] language (public sizes and loop
//! counters are low; every array holding table data is high) and must
//! type-check.  Deliberately leaky variants — the textbook sort-merge scan,
//! indexing an array with a secret — are included as negative controls.

use crate::ast::{Expr, Label, Stmt};
use crate::check::Env;

/// A named kernel: the environment describing its variables plus its body.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Human-readable name (matches the implementation module it models).
    pub name: &'static str,
    /// Typing environment.
    pub env: Env,
    /// Program body.
    pub body: Vec<Stmt>,
}

fn data_env() -> Env {
    Env::new()
        // Public quantities: input sizes, output size, loop bounds and the
        // (publicly computable) gate positions of the networks.
        .var("n", Label::Low)
        .var("m", Label::Low)
        .var("gates", Label::Low)
        .var("idx_lo", Label::Low)
        .var("idx_hi", Label::Low)
        // Local registers holding table entries or attributes.
        .var("y", Label::High)
        .var("y2", Label::High)
        .var("cmp", Label::High)
        .var("count1", Label::High)
        .var("count2", Label::High)
        .var("prev", Label::High)
        // Public-memory arrays holding table data.
        .array("A", Label::High)
        .array("TC", Label::High)
        .array("S1", Label::High)
        .array("S2", Label::High)
        .array("TD", Label::High)
}

/// The compare-exchange gate loop of the sorting network: read the
/// two gate positions, compare locally, write both back in either case.
pub fn sorting_network_kernel() -> Kernel {
    let gate_body = vec![
        Stmt::read("y", "A", Expr::var("idx_lo")),
        Stmt::read("y2", "A", Expr::var("idx_hi")),
        Stmt::assign("cmp", Expr::bin(Expr::var("y"), Expr::var("y2"))),
        Stmt::if_else(
            Expr::var("cmp"),
            vec![
                Stmt::write("A", Expr::var("idx_lo"), Expr::var("y2")),
                Stmt::write("A", Expr::var("idx_hi"), Expr::var("y")),
            ],
            vec![
                Stmt::write("A", Expr::var("idx_lo"), Expr::var("y")),
                Stmt::write("A", Expr::var("idx_hi"), Expr::var("y2")),
            ],
        ),
    ];
    Kernel {
        name: "sorting network compare-exchange",
        env: data_env(),
        body: vec![Stmt::for_loop("g", Expr::var("gates"), gate_body)],
    }
}

/// The routing loop of `Oblivious-Distribute` (Algorithm 3): for every hop
/// pair, read both cells, decide locally, and write both cells back.
pub fn distribute_routing_kernel() -> Kernel {
    let hop_body = vec![
        Stmt::read("y", "A", Expr::var("idx_lo")),
        Stmt::read("y2", "A", Expr::var("idx_hi")),
        Stmt::assign("cmp", Expr::var("y")),
        Stmt::if_else(
            Expr::var("cmp"),
            vec![
                Stmt::write("A", Expr::var("idx_lo"), Expr::var("y2")),
                Stmt::write("A", Expr::var("idx_hi"), Expr::var("y")),
            ],
            vec![
                Stmt::write("A", Expr::var("idx_lo"), Expr::var("y")),
                Stmt::write("A", Expr::var("idx_hi"), Expr::var("y2")),
            ],
        ),
    ];
    // Outer loop over the O(log m) hop lengths, inner loop over positions.
    Kernel {
        name: "oblivious-distribute routing",
        env: data_env().var("levels", Label::Low),
        body: vec![Stmt::for_loop(
            "level",
            Expr::var("levels"),
            vec![Stmt::for_loop("i", Expr::var("m"), hop_body)],
        )],
    }
}

/// The `Fill-Dimensions` forward pass of Algorithm 2: a fixed scan that
/// reads, updates local counters, and writes back every entry.
pub fn fill_dimensions_kernel() -> Kernel {
    let body = vec![
        Stmt::read("y", "TC", Expr::var("i")),
        Stmt::assign("cmp", Expr::bin(Expr::var("y"), Expr::var("prev"))),
        Stmt::if_else(
            Expr::var("cmp"),
            vec![
                Stmt::assign("count1", Expr::Const(0)),
                Stmt::assign("count2", Expr::Const(0)),
            ],
            vec![
                Stmt::assign("count1", Expr::var("count1")),
                Stmt::assign("count2", Expr::var("count2")),
            ],
        ),
        Stmt::assign("count1", Expr::bin(Expr::var("count1"), Expr::Const(1))),
        Stmt::assign("prev", Expr::var("y")),
        Stmt::write("TC", Expr::var("i"), Expr::var("count1")),
    ];
    Kernel {
        name: "fill-dimensions scan",
        env: data_env(),
        body: vec![Stmt::for_loop("i", Expr::var("n"), body)],
    }
}

/// The fill-down pass of `Oblivious-Expand` (Algorithm 4, lines 14–21).
pub fn expand_fill_kernel() -> Kernel {
    let body = vec![
        Stmt::read("y", "A", Expr::var("i")),
        Stmt::if_else(
            Expr::var("y"),
            vec![Stmt::assign("y", Expr::var("prev"))],
            vec![Stmt::assign("prev", Expr::var("y"))],
        ),
        Stmt::write("A", Expr::var("i"), Expr::var("y")),
    ];
    Kernel {
        name: "oblivious-expand fill-down",
        env: data_env(),
        body: vec![Stmt::for_loop("i", Expr::var("m"), body)],
    }
}

/// The alignment-index pass of Algorithm 5 followed by the output zip of
/// Algorithm 1: two fixed scans.
pub fn align_and_zip_kernel() -> Kernel {
    let align = Stmt::for_loop(
        "i",
        Expr::var("m"),
        vec![
            Stmt::read("y", "S2", Expr::var("i")),
            Stmt::assign("count1", Expr::bin(Expr::var("count1"), Expr::var("y"))),
            Stmt::write("S2", Expr::var("i"), Expr::var("count1")),
        ],
    );
    let zip = Stmt::for_loop(
        "i",
        Expr::var("m"),
        vec![
            Stmt::read("y", "S1", Expr::var("i")),
            Stmt::read("y2", "S2", Expr::var("i")),
            Stmt::write(
                "TD",
                Expr::var("i"),
                Expr::bin(Expr::var("y"), Expr::var("y2")),
            ),
        ],
    );
    Kernel {
        name: "align + zip",
        env: data_env(),
        body: vec![align, zip],
    }
}

/// All kernels of the oblivious join, in pipeline order.
pub fn join_kernels() -> Vec<Kernel> {
    vec![
        sorting_network_kernel(),
        fill_dimensions_kernel(),
        distribute_routing_kernel(),
        expand_fill_kernel(),
        align_and_zip_kernel(),
    ]
}

/// Negative control: the merge step of the textbook sort-merge join, whose
/// branches advance different cursors and write the output conditionally —
/// the exact leak described in the paper's introduction.
pub fn leaky_sort_merge_kernel() -> Kernel {
    let body = vec![
        Stmt::read("y", "S1", Expr::var("idx_lo")),
        Stmt::read("y2", "S2", Expr::var("idx_hi")),
        Stmt::assign("cmp", Expr::bin(Expr::var("y"), Expr::var("y2"))),
        Stmt::if_else(
            Expr::var("cmp"),
            // Match: emit an output row.
            vec![Stmt::write("TD", Expr::var("idx_lo"), Expr::var("y"))],
            // No match: advance silently.
            vec![Stmt::assign("prev", Expr::var("y"))],
        ),
    ];
    Kernel {
        name: "leaky sort-merge scan",
        env: data_env(),
        body: vec![Stmt::for_loop("i", Expr::var("n"), body)],
    }
}

/// Negative control: indexing public memory directly with a secret value
/// (what a hash join's probe would do without ORAM).
pub fn leaky_secret_index_kernel() -> Kernel {
    Kernel {
        name: "secret-indexed probe",
        env: data_env(),
        body: vec![
            Stmt::read("y", "S1", Expr::var("i_public")),
            Stmt::read("y2", "A", Expr::var("y")),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_program, TypeError};

    #[test]
    fn every_join_kernel_is_well_typed() {
        for kernel in join_kernels() {
            let result = check_program(&kernel.env, &kernel.body);
            assert!(
                result.is_ok(),
                "kernel `{}` failed: {:?}",
                kernel.name,
                result
            );
        }
    }

    #[test]
    fn join_kernel_traces_are_nonempty() {
        for kernel in join_kernels() {
            let trace = check_program(&kernel.env, &kernel.body).unwrap();
            assert!(
                !trace.is_empty(),
                "kernel `{}` should touch memory",
                kernel.name
            );
        }
    }

    #[test]
    fn leaky_sort_merge_is_rejected_with_branch_mismatch() {
        let kernel = leaky_sort_merge_kernel();
        assert_eq!(
            check_program(&kernel.env, &kernel.body),
            Err(TypeError::BranchTraceMismatch),
            "the sort-merge scan must be flagged as non-oblivious"
        );
    }

    #[test]
    fn secret_indexing_is_rejected() {
        let kernel = leaky_secret_index_kernel();
        let result = check_program(&kernel.env, &kernel.body);
        // Either the unknown public index or (if declared) the high index is
        // reported; with the default environment the first failure is the
        // undeclared loop variable, so declare it and check the real error.
        let env = kernel.env.clone().var("i_public", crate::ast::Label::Low);
        let result2 = check_program(&env, &kernel.body);
        assert!(result.is_err());
        assert_eq!(result2, Err(TypeError::HighIndex { array: "A".into() }));
    }
}
