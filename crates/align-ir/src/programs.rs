//! The paper's example programs, expressed in the IR.
//!
//! Every figure and example of the SC'93 paper is provided here as a
//! parameterised program so that tests, examples and benchmarks all analyse
//! exactly the code fragments the paper analyses. A few additional
//! data-parallel kernels (stencils, skewed sweeps, table lookups) are
//! included as realistic workloads for the benchmark harness.

use crate::affine::Affine;
use crate::ast::{Expr, Program, Section, UnaryOp};
use crate::builder::{
    add, gather, idx, mul, reduce, rng, rng_s, spread, transpose, unary, ProgramBuilder,
};

/// Figure 1 / Example 4: the mobile-offset motivating example.
///
/// ```fortran
/// real A(n,n), V(2n)
/// do k = 1, n
///   A(k,1:n) = A(k,1:n) + V(k:k+n-1)
/// enddo
/// ```
///
/// The optimal alignment is mobile: `A(i1,i2) -> [i1,i2]` and
/// `V(i) ->_k [k, i-k+1]`.
pub fn figure1(n: i64) -> Program {
    let mut b = ProgramBuilder::new(format!("figure1(n={n})"));
    let a = b.array("A", &[n, n]);
    let v = b.array("V", &[2 * n]);
    let k = b.begin_loop(1, n);
    let ik = Affine::liv(k);
    let a_row = b.sec_ref(a, vec![idx(ik.clone()), rng(1, n)]);
    let v_sec = b.sec_ref(v, vec![rng(ik.clone(), Affine::new(n - 1, [(k, 1)]))]);
    b.assign(a, Section::new(vec![idx(ik), rng(1, n)]), add(a_row, v_sec));
    b.end_loop();
    let p = b.finish();
    p.validate().expect("figure1 must be well formed");
    p
}

/// Example 1 (offset alignment): `A(1:N-1) = A(1:N-1) + B(2:N)`.
///
/// With identical alignments a one-unit nearest-neighbour shift is needed;
/// aligning `B(i) -> [i-1]` removes all communication.
pub fn example1(n: i64) -> Program {
    let mut b = ProgramBuilder::new(format!("example1(n={n})"));
    let a = b.array("A", &[n]);
    let bb = b.array("B", &[n]);
    let a_sec = b.sec_ref(a, vec![rng(1, n - 1)]);
    let b_sec = b.sec_ref(bb, vec![rng(2, n)]);
    b.assign(a, Section::new(vec![rng(1, n - 1)]), add(a_sec, b_sec));
    let p = b.finish();
    p.validate().expect("example1 must be well formed");
    p
}

/// Example 2 (stride alignment): `A(1:N) = A(1:N) + B(2:2N:2)`.
///
/// Aligning `A(i) -> [2i]`, `B(i) -> [i]` removes the general communication.
pub fn example2(n: i64) -> Program {
    let mut b = ProgramBuilder::new(format!("example2(n={n})"));
    let a = b.array("A", &[n]);
    let bb = b.array("B", &[2 * n]);
    let a_sec = b.sec_ref(a, vec![rng(1, n)]);
    let b_sec = b.sec_ref(bb, vec![rng_s(2, 2 * n, 2)]);
    b.assign(a, Section::new(vec![rng(1, n)]), add(a_sec, b_sec));
    let p = b.finish();
    p.validate().expect("example2 must be well formed");
    p
}

/// Example 3 (axis alignment): `B = B + transpose(C)`.
///
/// Aligning `C(i1,i2) -> [i2,i1]` makes the operands coincide.
pub fn example3(n: i64) -> Program {
    let mut b = ProgramBuilder::new(format!("example3(n={n})"));
    let bb = b.array("B", &[n, n]);
    let c = b.array("C", &[n, n]);
    let b_ref = b.full_ref(bb);
    let c_ref = b.full_ref(c);
    b.assign_full(bb, add(b_ref, transpose(c_ref)));
    let p = b.finish();
    p.validate().expect("example3 must be well formed");
    p
}

/// Example 5 (mobile stride alignment):
///
/// ```fortran
/// real A(1000), B(1000), V(20)
/// do k = 1, 50
///   V = V + A(1:20*k:k)
///   B(1:20*k:k) = V
/// enddo
/// ```
///
/// With the mobile stride alignment `V(i) ->_k [k*i]` the cost drops from two
/// general communications per iteration to one.
pub fn example5(a_size: i64, v_size: i64, trips: i64) -> Program {
    let mut b = ProgramBuilder::new(format!("example5(a={a_size},v={v_size},trips={trips})"));
    let a = b.array("A", &[a_size]);
    let bb = b.array("B", &[a_size]);
    let v = b.array("V", &[v_size]);
    let k = b.begin_loop(1, trips);
    let ik = Affine::liv(k);
    let v_ref = b.full_ref(v);
    let a_sec = b.sec_ref(a, vec![rng_s(1, Affine::new(0, [(k, v_size)]), ik.clone())]);
    b.assign_full(v, add(v_ref, a_sec));
    let v_ref2 = b.full_ref(v);
    b.assign(
        bb,
        Section::new(vec![rng_s(1, Affine::new(0, [(k, v_size)]), ik)]),
        v_ref2,
    );
    b.end_loop();
    let p = b.finish();
    p.validate().expect("example5 must be well formed");
    p
}

/// The paper's default Example 5 parameters.
pub fn example5_default() -> Program {
    example5(1000, 20, 50)
}

/// Figure 4 (replication):
///
/// ```fortran
/// real t(n), B(n, m)
/// do K = 1, trips
///   t = cos(t)
///   B = B + spread(t, dim=2, ncopies=m)
/// enddo
/// ```
///
/// Replicating `t` across the second template axis turns one broadcast per
/// iteration into a single broadcast at loop entry. (The paper's text calls
/// the replicated array `A` in the caption and `t` in the code; we follow the
/// code.)
pub fn figure4(n: i64, m: i64, trips: i64) -> Program {
    let mut b = ProgramBuilder::new(format!("figure4(n={n},m={m},trips={trips})"));
    let t = b.array("t", &[n]);
    let bb = b.array("B", &[n, m]);
    let _k = b.begin_loop(1, trips);
    let t_ref = b.full_ref(t);
    b.assign_full(t, unary(UnaryOp::Cos, t_ref));
    let t_ref2 = b.full_ref(t);
    let b_ref = b.full_ref(bb);
    b.assign_full(bb, add(b_ref, spread(t_ref2, 1, m)));
    b.end_loop();
    let p = b.finish();
    p.validate().expect("figure4 must be well formed");
    p
}

/// The paper's default Figure 4 parameters: `t(100)`, `B(100,200)`, 200 trips.
pub fn figure4_default() -> Program {
    figure4(100, 200, 200)
}

/// A five-point Jacobi-style 2-D stencil sweep: a realistic offset-alignment
/// workload (every operand is a shifted section of the same array).
///
/// ```fortran
/// real A(n,n), B(n,n)
/// do k = 1, steps
///   A(2:n-1,2:n-1) = 0.25 * (B(1:n-2,2:n-1) + B(3:n,2:n-1)
///                          + B(2:n-1,1:n-2) + B(2:n-1,3:n))
///   B(2:n-1,2:n-1) = A(2:n-1,2:n-1)
/// enddo
/// ```
pub fn stencil2d(n: i64, steps: i64) -> Program {
    let mut b = ProgramBuilder::new(format!("stencil2d(n={n},steps={steps})"));
    let a = b.array("A", &[n, n]);
    let bb = b.array("B", &[n, n]);
    let _k = b.begin_loop(1, steps);
    let north = b.sec_ref(bb, vec![rng(1, n - 2), rng(2, n - 1)]);
    let south = b.sec_ref(bb, vec![rng(3, n), rng(2, n - 1)]);
    let west = b.sec_ref(bb, vec![rng(2, n - 1), rng(1, n - 2)]);
    let east = b.sec_ref(bb, vec![rng(2, n - 1), rng(3, n)]);
    let sum = add(add(north, south), add(west, east));
    b.assign(
        a,
        Section::new(vec![rng(2, n - 1), rng(2, n - 1)]),
        mul(Expr::Lit(0.25), sum),
    );
    let a_inner = b.sec_ref(a, vec![rng(2, n - 1), rng(2, n - 1)]);
    b.assign(
        bb,
        Section::new(vec![rng(2, n - 1), rng(2, n - 1)]),
        a_inner,
    );
    b.end_loop();
    let p = b.finish();
    p.validate().expect("stencil2d must be well formed");
    p
}

/// A skewed (wavefront-like) sweep in which the right operand slides one
/// element per iteration — a second mobile-offset workload beyond Figure 1.
///
/// ```fortran
/// real C(n), A(2n), B(2n)
/// do k = 1, n
///   C(1:n) = A(k:k+n-1) + B(n-k+1:2n-k)
/// enddo
/// ```
pub fn skewed_sweep(n: i64) -> Program {
    let mut b = ProgramBuilder::new(format!("skewed_sweep(n={n})"));
    let c = b.array("C", &[n]);
    let a = b.array("A", &[2 * n]);
    let bb = b.array("B", &[2 * n]);
    let k = b.begin_loop(1, n);
    let ik = Affine::liv(k);
    let a_sec = b.sec_ref(a, vec![rng(ik.clone(), Affine::new(n - 1, [(k, 1)]))]);
    let b_sec = b.sec_ref(
        bb,
        vec![rng(
            Affine::new(n + 1, [(k, -1)]),
            Affine::new(2 * n, [(k, -1)]),
        )],
    );
    b.assign(c, Section::new(vec![rng(1, n)]), add(a_sec, b_sec));
    b.end_loop();
    let p = b.finish();
    p.validate().expect("skewed_sweep must be well formed");
    p
}

/// A lookup-table workload (Section 5.1's second replication source): a
/// read-only table indexed by a vector-valued subscript inside a loop.
///
/// ```fortran
/// real table(tsize), X(n), Y(n)
/// do k = 1, trips
///   Y = Y + table(X)        ! vector-valued subscript gather
/// enddo
/// ```
pub fn lookup_table(tsize: i64, n: i64, trips: i64) -> Program {
    let mut b = ProgramBuilder::new(format!("lookup_table(t={tsize},n={n},trips={trips})"));
    let table = b.array("table", &[tsize]);
    let x = b.array("X", &[n]);
    let y = b.array("Y", &[n]);
    let _k = b.begin_loop(1, trips);
    let x_ref = b.full_ref(x);
    let y_ref = b.full_ref(y);
    b.assign_full(y, add(y_ref, gather(table, x_ref)));
    b.end_loop();
    let p = b.finish();
    p.validate().expect("lookup_table must be well formed");
    p
}

/// A doubly nested variant of Figure 1 used for the Section 4.4 loop-nest
/// experiments: the vector operand slides with the *outer* LIV along one axis
/// and with the *inner* LIV along the other.
///
/// ```fortran
/// real A(n,n), V(2n)
/// do k = 1, n
///   do j = 1, n/2
///     A(k, j:j+n/2-1) = A(k, j:j+n/2-1) + V(k+j : k+j+n/2-1)
///   enddo
/// enddo
/// ```
pub fn nested_mobile(n: i64) -> Program {
    assert!(n >= 2 && n % 2 == 0, "nested_mobile requires even n >= 2");
    let half = n / 2;
    let mut b = ProgramBuilder::new(format!("nested_mobile(n={n})"));
    let a = b.array("A", &[n, n]);
    let v = b.array("V", &[2 * n]);
    let k = b.begin_loop(1, n);
    let j = b.begin_loop(1, half);
    let ik = Affine::liv(k);
    let ij = Affine::liv(j);
    let lhs_sec = Section::new(vec![
        idx(ik.clone()),
        rng(ij.clone(), Affine::new(half - 1, [(j, 1)])),
    ]);
    let a_sec = b.sec_ref(
        a,
        vec![
            idx(ik.clone()),
            rng(ij.clone(), Affine::new(half - 1, [(j, 1)])),
        ],
    );
    let v_sec = b.sec_ref(
        v,
        vec![rng(
            Affine::new(0, [(k, 1), (j, 1)]),
            Affine::new(half - 1, [(k, 1), (j, 1)]),
        )],
    );
    b.assign(a, lhs_sec, add(a_sec, v_sec));
    b.end_loop();
    b.end_loop();
    let p = b.finish();
    p.validate().expect("nested_mobile must be well formed");
    p
}

/// An FFT-like two-phase kernel whose best distribution flips mid-program:
/// a row phase (nearest-neighbour shifts along the *column* axis) followed by
/// a column phase (the same shifts along the *row* axis).
///
/// ```fortran
/// real A(n,n)
/// do k = 1, trips                          ! phase 1: work within rows
///   A(1:n,1:n-1) = A(1:n,1:n-1) + A(1:n,2:n)
/// enddo
/// do k = 1, trips                          ! phase 2: work within columns
///   A(1:n-1,1:n) = A(1:n-1,1:n) + A(2:n,1:n)
/// enddo
/// ```
///
/// Phase 1's residual shift lives on template axis 1, so serialising that
/// axis (`[P, 1]` grids) makes it free; phase 2 inverts the pattern and
/// prefers `[1, P]`. A static distribution must lose one of the phases every
/// iteration; a dynamic distribution pays one transpose-style all-to-all at
/// the boundary instead. This is the motivating workload of the
/// phase-analysis subsystem (`crates/phases`).
pub fn fft_like(n: i64, trips: i64) -> Program {
    let mut b = ProgramBuilder::new(format!("fft_like(n={n},trips={trips})"));
    let a = b.array("A", &[n, n]);
    let _k = b.begin_loop(1, trips);
    let left = b.sec_ref(a, vec![rng(1, n), rng(1, n - 1)]);
    let right = b.sec_ref(a, vec![rng(1, n), rng(2, n)]);
    b.assign(
        a,
        Section::new(vec![rng(1, n), rng(1, n - 1)]),
        add(left, right),
    );
    b.end_loop();
    let _k2 = b.begin_loop(1, trips);
    let upper = b.sec_ref(a, vec![rng(1, n - 1), rng(1, n)]);
    let lower = b.sec_ref(a, vec![rng(2, n), rng(1, n)]);
    b.assign(
        a,
        Section::new(vec![rng(1, n - 1), rng(1, n)]),
        add(upper, lower),
    );
    b.end_loop();
    let p = b.finish();
    p.validate().expect("fft_like must be well formed");
    p
}

/// The nested-loop variant of [`fft_like`]: the row→column flip lives
/// *inside* one loop body, so phase detection at top-level granularity sees
/// a single atom and finds nothing — only loop distribution exposes the
/// seam. The row work updates `A`, the column work updates `B` (disjoint
/// writes make the fission safe), and both read the same read-only operand
/// `D`, which is therefore live across the fissioned boundary and must be
/// redistributed when the phases pick different grids.
///
/// ```fortran
/// real A(n,n), B(n,n), D(n,n)
/// do k = 1, trips
///   A(1:n,1:n-1) = A(1:n,1:n-1) + A(1:n,2:n) + D(1:n,1:n-1)   ! row phase
///   B(1:n-1,1:n) = B(1:n-1,1:n) + B(2:n,1:n) + D(1:n-1,1:n)   ! column phase
/// enddo
/// ```
///
/// The first statement's irreducible shift lives on template axis 1, the
/// second's on axis 0: after fission the two sub-loops conflict and the
/// dynamic pipeline pays one all-to-all for `D` at the boundary instead of
/// losing one of the phases every iteration.
pub fn fft_like_nested(n: i64, trips: i64) -> Program {
    let mut b = ProgramBuilder::new(format!("fft_like_nested(n={n},trips={trips})"));
    let a = b.array("A", &[n, n]);
    let bb = b.array("B", &[n, n]);
    let d = b.array("D", &[n, n]);
    let _k = b.begin_loop(1, trips);
    let left = b.sec_ref(a, vec![rng(1, n), rng(1, n - 1)]);
    let right = b.sec_ref(a, vec![rng(1, n), rng(2, n)]);
    let d_row = b.sec_ref(d, vec![rng(1, n), rng(1, n - 1)]);
    b.assign(
        a,
        Section::new(vec![rng(1, n), rng(1, n - 1)]),
        add(add(left, right), d_row),
    );
    let upper = b.sec_ref(bb, vec![rng(1, n - 1), rng(1, n)]);
    let lower = b.sec_ref(bb, vec![rng(2, n), rng(1, n)]);
    let d_col = b.sec_ref(d, vec![rng(1, n - 1), rng(1, n)]);
    b.assign(
        bb,
        Section::new(vec![rng(1, n - 1), rng(1, n)]),
        add(add(upper, lower), d_col),
    );
    b.end_loop();
    let p = b.finish();
    p.validate().expect("fft_like_nested must be well formed");
    p
}

/// A conditional-heavy workload exercising control weights: each trip takes
/// the cheap nearest-neighbour branch with probability `prob_then`, or an
/// axis-permuting transpose branch otherwise. The expected-cost model
/// (Section 6's control weights) scales each branch's communication by its
/// probability, so the best alignment/distribution shifts with `prob_then`.
///
/// ```fortran
/// real A(n,n), B(n,n)
/// do k = 1, trips
///   if (...) then                                ! taken with prob_then
///     A(1:n,1:n-1) = A(1:n,1:n-1) + A(1:n,2:n)   ! row shifts
///   else
///     A = A + transpose(B)                       ! axis permutation
///   endif
/// enddo
/// ```
pub fn conditional_pipeline(n: i64, trips: i64, prob_then: f64) -> Program {
    let mut b = ProgramBuilder::new(format!(
        "conditional_pipeline(n={n},trips={trips},p={prob_then})"
    ));
    let a = b.array("A", &[n, n]);
    let bb = b.array("B", &[n, n]);
    let _k = b.begin_loop(1, trips);
    b.begin_if(prob_then);
    let left = b.sec_ref(a, vec![rng(1, n), rng(1, n - 1)]);
    let right = b.sec_ref(a, vec![rng(1, n), rng(2, n)]);
    b.assign(
        a,
        Section::new(vec![rng(1, n), rng(1, n - 1)]),
        add(left, right),
    );
    b.begin_else();
    let a_ref = b.full_ref(a);
    let b_ref = b.full_ref(bb);
    b.assign_full(a, add(a_ref, transpose(b_ref)));
    b.end_if();
    b.end_loop();
    let p = b.finish();
    p.validate()
        .expect("conditional_pipeline must be well formed");
    p
}

/// A pipeline in which *different arrays* want *different* phase boundaries:
/// `A` flips from row to column work after the first loop, `B` only after
/// the second. Each loop body pairs one `A` statement with one `B`
/// statement (disjoint writes, so loop distribution splits them), leaving
/// the phase analysis to arbitrate boundaries no single array agrees on.
///
/// ```fortran
/// real A(n,n), B(n,n)
/// do k = 1, trips   ! L1: A rows,    B rows
/// do k = 1, trips   ! L2: A columns, B rows    (A has flipped)
/// do k = 1, trips   ! L3: A columns, B columns (now B flips too)
/// ```
pub fn multi_array_pipeline(n: i64, trips: i64) -> Program {
    let mut b = ProgramBuilder::new(format!("multi_array_pipeline(n={n},trips={trips})"));
    let a = b.array("A", &[n, n]);
    let bb = b.array("B", &[n, n]);
    let row = |b: &mut ProgramBuilder, arr| {
        let left = b.sec_ref(arr, vec![rng(1, n), rng(1, n - 1)]);
        let right = b.sec_ref(arr, vec![rng(1, n), rng(2, n)]);
        b.assign(
            arr,
            Section::new(vec![rng(1, n), rng(1, n - 1)]),
            add(left, right),
        );
    };
    let col = |b: &mut ProgramBuilder, arr| {
        let upper = b.sec_ref(arr, vec![rng(1, n - 1), rng(1, n)]);
        let lower = b.sec_ref(arr, vec![rng(2, n), rng(1, n)]);
        b.assign(
            arr,
            Section::new(vec![rng(1, n - 1), rng(1, n)]),
            add(upper, lower),
        );
    };
    for (a_is_row, b_is_row) in [(true, true), (false, true), (false, false)] {
        let _k = b.begin_loop(1, trips);
        if a_is_row {
            row(&mut b, a);
        } else {
            col(&mut b, a);
        }
        if b_is_row {
            row(&mut b, bb);
        } else {
            col(&mut b, bb);
        }
        b.end_loop();
    }
    let p = b.finish();
    p.validate()
        .expect("multi_array_pipeline must be well formed");
    p
}

/// A reduction-heavy kernel with batched, irregular extents whose arrays
/// disagree about the phase boundary — the workload the per-array
/// layout-state DP exists for, with ragged blocks (the batch axis
/// `m = 3n/2 + 1` divides into no processor count evenly).
///
/// ```fortran
/// real A(n,m), B(n,m), S(n)            ! m = 3n/2 + 1 (ragged batches)
/// do k = 1, trips   ! L1: S += sum(A, dim=2)  (A row-reduce: wants [P,1])
///                   !     B row shifts                      (wants [P,1])
/// do k = 1, trips   ! L2: B column shifts                   (B flips: [1,P])
///                   !     S += sum(A, dim=2)  (A still row-reduce: [P,1])
/// do k = 1, trips   ! L3: A column shifts                   (now A flips too)
/// ```
///
/// At the L1|L2 boundary `B` wants to flip while `A` wants to stay: a
/// global per-phase layout must either drag `A` through `B`'s transpose or
/// deny `B` its flip. With per-array layout states `B` moves alone at
/// L1|L2 and `A` alone at L2|L3. Each loop body pairs statements with
/// disjoint writes, so loop distribution splits them into separate atoms.
pub fn reduction_tree(n: i64, trips: i64) -> Program {
    assert!(n >= 4 && n % 2 == 0, "reduction_tree requires even n >= 4");
    let m = 3 * n / 2 + 1;
    let mut b = ProgramBuilder::new(format!("reduction_tree(n={n},trips={trips})"));
    let a = b.array("A", &[n, m]);
    let bb = b.array("B", &[n, m]);
    let s = b.array("S", &[n]);
    let row_reduce = |b: &mut ProgramBuilder| {
        let a_full = b.full_ref(a);
        let s_ref = b.full_ref(s);
        b.assign(
            s,
            Section::new(vec![rng(1, n)]),
            add(s_ref, reduce(a_full, 1)),
        );
    };
    let row_shift = |b: &mut ProgramBuilder, arr| {
        let left = b.sec_ref(arr, vec![rng(1, n), rng(1, m - 1)]);
        let right = b.sec_ref(arr, vec![rng(1, n), rng(2, m)]);
        b.assign(
            arr,
            Section::new(vec![rng(1, n), rng(1, m - 1)]),
            add(left, right),
        );
    };
    let col_shift = |b: &mut ProgramBuilder, arr| {
        let upper = b.sec_ref(arr, vec![rng(1, n - 1), rng(1, m)]);
        let lower = b.sec_ref(arr, vec![rng(2, n), rng(1, m)]);
        b.assign(
            arr,
            Section::new(vec![rng(1, n - 1), rng(1, m)]),
            add(upper, lower),
        );
    };
    // L1: A row-reduced, B row-shifted.
    let _k = b.begin_loop(1, trips);
    row_reduce(&mut b);
    row_shift(&mut b, bb);
    b.end_loop();
    // L2: B flips to column work; A still row-reduced.
    let _k2 = b.begin_loop(1, trips);
    col_shift(&mut b, bb);
    row_reduce(&mut b);
    b.end_loop();
    // L3: A flips too.
    let _k3 = b.begin_loop(1, trips);
    col_shift(&mut b, a);
    b.end_loop();
    let p = b.finish();
    p.validate().expect("reduction_tree must be well formed");
    p
}

/// A multigrid-style V-cycle fragment: fine-grid relaxation, restriction to a
/// coarse array, coarse-grid relaxation, and prolongation back. The fine and
/// coarse phases touch templates of very different extents, so the best
/// block sizes (and with enough processors, grid shapes) differ per phase —
/// a second motivating workload for dynamic redistribution.
///
/// ```fortran
/// real A(n,n), C(n/2,n/2)
/// do k = 1, fine_steps                     ! fine relaxation
///   A(2:n-1,2:n-1) = 0.25*(A(1:n-2,2:n-1)+A(3:n,2:n-1)+A(2:n-1,1:n-2)+A(2:n-1,3:n))
/// enddo
/// C(1:n/2,1:n/2) = A(1:n-1:2,1:n-1:2)      ! restriction
/// do k = 1, coarse_steps                   ! coarse relaxation
///   C(2:m-1,2:m-1) = 0.25*(C(1:m-2,2:m-1)+C(3:m,2:m-1)+C(2:m-1,1:m-2)+C(2:m-1,3:m))
/// enddo
/// A(1:n-1:2,1:n-1:2) = A(1:n-1:2,1:n-1:2) + C(1:n/2,1:n/2)   ! prolongation
/// ```
pub fn multigrid_vcycle(n: i64, fine_steps: i64, coarse_steps: i64) -> Program {
    assert!(
        n >= 8 && n % 2 == 0,
        "multigrid_vcycle requires even n >= 8"
    );
    let m = n / 2;
    let mut b = ProgramBuilder::new(format!(
        "multigrid_vcycle(n={n},fine={fine_steps},coarse={coarse_steps})"
    ));
    let a = b.array("A", &[n, n]);
    let c = b.array("C", &[m, m]);

    let relax = |b: &mut ProgramBuilder, arr, e: i64| {
        let north = b.sec_ref(arr, vec![rng(1, e - 2), rng(2, e - 1)]);
        let south = b.sec_ref(arr, vec![rng(3, e), rng(2, e - 1)]);
        let west = b.sec_ref(arr, vec![rng(2, e - 1), rng(1, e - 2)]);
        let east = b.sec_ref(arr, vec![rng(2, e - 1), rng(3, e)]);
        let sum = add(add(north, south), add(west, east));
        b.assign(
            arr,
            Section::new(vec![rng(2, e - 1), rng(2, e - 1)]),
            mul(Expr::Lit(0.25), sum),
        );
    };

    let _k = b.begin_loop(1, fine_steps);
    relax(&mut b, a, n);
    b.end_loop();

    let fine_even = vec![rng_s(1, n - 1, 2), rng_s(1, n - 1, 2)];
    let a_even = b.sec_ref(a, fine_even.clone());
    b.assign(c, Section::new(vec![rng(1, m), rng(1, m)]), a_even);

    let _k2 = b.begin_loop(1, coarse_steps);
    relax(&mut b, c, m);
    b.end_loop();

    let a_even2 = b.sec_ref(a, fine_even.clone());
    let c_full = b.full_ref(c);
    b.assign(a, Section::new(fine_even), add(a_even2, c_full));

    let p = b.finish();
    p.validate().expect("multigrid_vcycle must be well formed");
    p
}

/// The phase-flip workload suite with stable labels: every built-in program
/// whose communication topology changes mid-program (or may, depending on
/// control weights), plus `lookup_table` as the gather/scatter
/// stays-one-phase control case. Tests, benches and the counter gate
/// iterate this list rather than hand-rolling their own.
pub fn phase_workloads() -> Vec<(&'static str, Program)> {
    vec![
        ("fft_like", fft_like(32, 40)),
        ("fft_like_nested", fft_like_nested(32, 40)),
        ("multi_array_pipeline", multi_array_pipeline(32, 8)),
        ("conditional_pipeline", conditional_pipeline(32, 8, 0.7)),
        ("multigrid_vcycle", multigrid_vcycle(32, 4, 4)),
        ("reduction_tree", reduction_tree(24, 24)),
        ("lookup_table", lookup_table(256, 64, 10)),
    ]
}

/// All paper programs with their default parameters, with stable labels.
/// Used by the experiment harness to sweep "every program in the paper".
pub fn paper_programs() -> Vec<(&'static str, Program)> {
    vec![
        ("figure1", figure1(100)),
        ("example1", example1(100)),
        ("example2", example2(100)),
        ("example3", example3(64)),
        ("example5", example5_default()),
        ("figure4", figure4_default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Stmt;

    #[test]
    fn all_paper_programs_validate() {
        for (name, p) in paper_programs() {
            p.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn figure1_shape() {
        let p = figure1(100);
        assert_eq!(p.arrays.len(), 2);
        assert_eq!(p.decl(p.array_by_name("V").unwrap()).extents, vec![200]);
        assert_eq!(p.max_nest_depth(), 1);
        assert_eq!(p.num_assignments(), 1);
    }

    #[test]
    fn example5_has_two_assignments_per_iteration() {
        let p = example5_default();
        assert_eq!(p.num_assignments(), 2);
        match &p.body[0] {
            Stmt::Loop { range, .. } => {
                assert_eq!(range.at(&[]).count(), 50);
            }
            _ => panic!("expected loop"),
        }
    }

    #[test]
    fn figure4_contains_spread() {
        let p = figure4_default();
        let mut has_spread = false;
        p.walk_stmts(|s| {
            if let Stmt::Assign { rhs, .. } = s {
                fn find_spread(e: &Expr) -> bool {
                    match e {
                        Expr::Spread { .. } => true,
                        Expr::Bin { lhs, rhs, .. } => find_spread(lhs) || find_spread(rhs),
                        Expr::Unary { operand, .. }
                        | Expr::Transpose { operand }
                        | Expr::Reduce { operand, .. } => find_spread(operand),
                        _ => false,
                    }
                }
                has_spread |= find_spread(rhs);
            }
        });
        assert!(has_spread);
    }

    #[test]
    fn stencil_and_sweep_validate() {
        stencil2d(64, 10).validate().unwrap();
        skewed_sweep(64).validate().unwrap();
        lookup_table(256, 64, 10).validate().unwrap();
        nested_mobile(8).validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "even n")]
    fn nested_mobile_rejects_odd_n() {
        nested_mobile(7);
    }

    #[test]
    fn phase_flip_workloads_validate() {
        let f = fft_like(16, 4);
        f.validate().unwrap();
        assert_eq!(f.num_top_level_stmts(), 2, "two phases, two loops");
        let m = multigrid_vcycle(16, 3, 3);
        m.validate().unwrap();
        assert_eq!(m.num_top_level_stmts(), 4);
        for (name, p) in phase_workloads() {
            p.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn nested_flip_is_one_statement_with_two_atoms() {
        let p = fft_like_nested(16, 4);
        assert_eq!(p.num_top_level_stmts(), 1, "the flip hides in one loop");
        assert_eq!(p.distributable_atoms().len(), 2, "fission exposes it");
    }

    #[test]
    fn conditional_pipeline_carries_control_weight() {
        let p = conditional_pipeline(16, 4, 0.25);
        let mut prob = None;
        p.walk_stmts(|s| {
            if let Stmt::If { prob_then, .. } = s {
                prob = Some(*prob_then);
            }
        });
        assert_eq!(prob, Some(0.25));
    }

    #[test]
    fn reduction_tree_shape() {
        let p = reduction_tree(16, 4);
        assert_eq!(p.num_top_level_stmts(), 3);
        // L1 and L2 pair write-disjoint statements; L3 is a single
        // statement: 2 + 2 + 1 atoms.
        assert_eq!(p.distributable_atoms().len(), 5);
        // Ragged batch axis: m = 3n/2 + 1 divides no processor count evenly.
        let a = p.array_by_name("A").unwrap();
        assert_eq!(p.decl(a).extents, vec![16, 25]);
        let mut has_reduce = false;
        p.walk_stmts(|s| {
            if let Stmt::Assign { rhs, .. } = s {
                fn find(e: &Expr) -> bool {
                    match e {
                        Expr::Reduce { .. } => true,
                        Expr::Bin { lhs, rhs, .. } => find(lhs) || find(rhs),
                        Expr::Unary { operand, .. } | Expr::Transpose { operand } => find(operand),
                        _ => false,
                    }
                }
                has_reduce |= find(rhs);
            }
        });
        assert!(has_reduce, "the kernel is reduction-heavy");
    }

    #[test]
    #[should_panic(expected = "even n")]
    fn reduction_tree_rejects_odd_n() {
        reduction_tree(7, 2);
    }

    #[test]
    fn multi_array_pipeline_splits_every_loop() {
        let p = multi_array_pipeline(16, 4);
        assert_eq!(p.num_top_level_stmts(), 3);
        assert_eq!(p.distributable_atoms().len(), 6, "A and B parts split");
    }

    #[test]
    fn subprogram_slices_top_level_statements() {
        let p = fft_like(8, 2);
        let first = p.subprogram(0..1);
        assert_eq!(first.num_top_level_stmts(), 1);
        assert_eq!(first.arrays.len(), p.arrays.len());
        first.validate().unwrap();
        let segments = p.split_at(&[1]);
        assert_eq!(segments.len(), 2);
        assert_eq!(
            segments.iter().map(|s| s.body.len()).sum::<usize>(),
            p.body.len()
        );
        // Out-of-range and duplicate boundaries are ignored.
        assert_eq!(p.split_at(&[0, 1, 1, 9]).len(), 2);
        assert_eq!(p.split_at(&[]).len(), 1);
    }

    #[test]
    fn example2_uses_stride_two_section() {
        let p = example2(50);
        let mut found = false;
        p.walk_stmts(|s| {
            if let Stmt::Assign { rhs, .. } = s {
                let mut arrays = Vec::new();
                rhs.referenced_arrays(&mut arrays);
                found = arrays.len() == 2;
            }
        });
        assert!(found);
    }
}
