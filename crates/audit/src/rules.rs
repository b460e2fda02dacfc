//! The lint rules.
//!
//! Each rule walks the syntactic model from [`crate::syntax`] — the token
//! stream annotated with the item tree, test regions, loop depth, cast
//! and discard shapes — and emits [`Violation`]s. Rules are deliberately
//! syntactic: with no type information available offline, they
//! over-approximate and rely on the explicit waiver syntax
//! (`// audit:allow(rule)`) plus the allowlist budgets for the sites a
//! human has reviewed.

use crate::lexer::TokenKind;
use crate::syntax::{CastOperand, SyntaxFile};

/// Names of all rules, in reporting order.
pub const ALL_RULES: [&str; 10] = [
    "no-unwrap-in-lib",
    "no-default-hasher",
    "no-unchecked-index-in-hot-loops",
    "no-float-eq",
    "no-bare-instant",
    "no-raw-eprintln-in-lib",
    "no-relaxed-atomics",
    "no-alloc-in-hot-loops",
    "no-silent-truncation",
    "no-swallowed-result",
];

/// Static metadata about one rule, consumed by the fixture tests and the
/// `consistency` pass: where its negative fixture lives and which
/// repo-relative path the fixture must be linted under (file-scoped rules
/// key on path prefixes or file-name stems).
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name (one of [`ALL_RULES`]).
    pub name: &'static str,
    /// Fixture file name under `crates/audit/tests/fixtures/`.
    pub fixture: &'static str,
    /// Path the fixture is linted under so the rule's scoping applies.
    pub lint_as: &'static str,
}

/// Metadata for every rule, in [`ALL_RULES`] order.
pub const RULE_INFOS: [RuleInfo; 10] = [
    RuleInfo {
        name: "no-unwrap-in-lib",
        fixture: "unwrap_in_lib.rs",
        lint_as: "unwrap_in_lib.rs",
    },
    RuleInfo {
        name: "no-default-hasher",
        fixture: "default_hasher.rs",
        lint_as: "default_hasher.rs",
    },
    RuleInfo {
        name: "no-unchecked-index-in-hot-loops",
        fixture: "dinic.rs",
        lint_as: "dinic.rs",
    },
    RuleInfo {
        name: "no-float-eq",
        fixture: "float_eq.rs",
        lint_as: "float_eq.rs",
    },
    RuleInfo {
        name: "no-bare-instant",
        fixture: "bare_instant.rs",
        lint_as: "bare_instant.rs",
    },
    RuleInfo {
        name: "no-raw-eprintln-in-lib",
        fixture: "raw_eprintln.rs",
        lint_as: "raw_eprintln.rs",
    },
    RuleInfo {
        name: "no-relaxed-atomics",
        fixture: "relaxed_atomic.rs",
        lint_as: "relaxed_atomic.rs",
    },
    // The alloc rule is scoped to kernel file stems, so its fixture is
    // linted under (and, in the binary-level test, copied to) a hot name.
    RuleInfo {
        name: "no-alloc-in-hot-loops",
        fixture: "hot_alloc.rs",
        lint_as: "crates/setcover/src/bitcover.rs",
    },
    RuleInfo {
        name: "no-silent-truncation",
        fixture: "truncating_cast.rs",
        lint_as: "truncating_cast.rs",
    },
    RuleInfo {
        name: "no-swallowed-result",
        fixture: "swallowed_result.rs",
        lint_as: "swallowed_result.rs",
    },
];

/// File-name stems whose inner loops are hot paths for the indexing rule
/// (`dinic.rs`, `push_relabel.rs`, `greedy.rs` per the MC³ hot-path set).
pub const HOT_LOOP_FILES: [&str; 3] = ["dinic.rs", "push_relabel.rs", "greedy.rs"];

/// File-name stems covered by `no-alloc-in-hot-loops`: the flow and
/// set-cover kernels plus the `ReductionScratch` call sites, where a
/// per-iteration allocation turns an O(1) inner step into a malloc storm.
pub const ALLOC_HOT_FILES: [&str; 7] = [
    "dinic.rs",
    "push_relabel.rs",
    "greedy.rs",
    "bitcover.rs",
    "prune.rs",
    "local_search.rs",
    "reduction.rs",
];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the site.
    pub message: String,
}

/// Runs every rule over one file's source text.
///
/// `file` is the repo-relative path used both for reporting and for
/// file-scoped rules (the hot-loop rules, the crate-scoped exemptions).
/// Waivers are applied here: a violation on line `L` is dropped if an
/// `audit:allow` comment naming its rule sits on line `L` or `L − 1`.
pub fn check_file(file: &str, source: &str) -> Vec<Violation> {
    let sf = SyntaxFile::parse(source);
    let mut violations = Vec::new();

    rule_no_unwrap(file, &sf, &mut violations);
    rule_no_default_hasher(file, &sf, &mut violations);
    rule_no_unchecked_index(file, &sf, &mut violations);
    rule_no_float_eq(file, &sf, &mut violations);
    rule_no_bare_instant(file, &sf, &mut violations);
    rule_no_raw_eprintln(file, &sf, &mut violations);
    rule_no_relaxed_atomics(file, &sf, &mut violations);
    rule_no_alloc_in_hot_loops(file, &sf, &mut violations);
    rule_no_silent_truncation(file, &sf, &mut violations);
    rule_no_swallowed_result(file, &sf, &mut violations);

    violations.retain(|v| {
        !sf.waivers.iter().any(|w| {
            (w.line == v.line || w.line + 1 == v.line) && w.rules.iter().any(|r| r == v.rule)
        })
    });
    violations.sort_by_key(|v| (v.line, v.rule));
    violations
}

fn rule_no_unwrap(file: &str, sf: &SyntaxFile, out: &mut Vec<Violation>) {
    let toks = &sf.tokens;
    for (i, t) in toks.iter().enumerate() {
        if sf.in_test(i) || t.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |c: char| toks.get(i + 1).map(|n| n.is_punct(c)) == Some(true);
        let prev_is_dot = i > 0 && toks[i - 1].is_punct('.');
        let site = match t.text.as_str() {
            "unwrap" | "expect" if prev_is_dot && next_is('(') => format!(".{}()", t.text),
            "panic" | "todo" | "unimplemented" if next_is('!') => format!("{}!", t.text),
            _ => continue,
        };
        out.push(Violation {
            rule: "no-unwrap-in-lib",
            file: file.to_owned(),
            line: t.line,
            message: format!("{site} in library code; return mc3_core::error types instead"),
        });
    }
}

fn rule_no_default_hasher(file: &str, sf: &SyntaxFile, out: &mut Vec<Violation>) {
    for (i, t) in sf.tokens.iter().enumerate() {
        if sf.in_test(i) {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(Violation {
                rule: "no-default-hasher",
                file: file.to_owned(),
                line: t.line,
                message: format!(
                    "std {} uses SipHash; hot paths must use mc3_core::fxhash::Fx{}",
                    t.text, t.text
                ),
            });
        }
    }
}

fn rule_no_unchecked_index(file: &str, sf: &SyntaxFile, out: &mut Vec<Violation>) {
    let name = file.rsplit('/').next().unwrap_or(file);
    if !HOT_LOOP_FILES.contains(&name) {
        return;
    }
    let toks = &sf.tokens;
    for (i, t) in toks.iter().enumerate() {
        if sf.in_test(i) || sf.loop_depth(i) == 0 || !t.is_punct('[') {
            continue;
        }
        // Indexing follows a value: identifier, `]`, or `)`. Array
        // literals, types and attributes follow operators or `#`.
        let indexes_a_value = i > 0
            && (toks[i - 1].kind == TokenKind::Ident
                || toks[i - 1].is_punct(']')
                || toks[i - 1].is_punct(')'));
        if indexes_a_value {
            out.push(Violation {
                rule: "no-unchecked-index-in-hot-loops",
                file: file.to_owned(),
                line: t.line,
                message: "unchecked `[]` indexing in a hot inner loop; bounds-panic here \
                          aborts the solve — use get()/iterators or waive after review"
                    .to_owned(),
            });
        }
    }
}

fn rule_no_float_eq(file: &str, sf: &SyntaxFile, out: &mut Vec<Violation>) {
    let toks = &sf.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        if sf.in_test(i) {
            continue;
        }
        let op = (toks[i].is_punct('=') || toks[i].is_punct('!')) && toks[i + 1].is_punct('=');
        if !op {
            continue;
        }
        // `a == b`: lhs ends at i-1, rhs starts at i+2. `<=`/`>=`/`+=` etc.
        // have a non-`=`/`!` operator char at i, so they never match here;
        // `===` cannot occur in valid Rust.
        let lhs_float = i > 0 && toks[i - 1].kind == TokenKind::Float;
        let rhs_float = toks.get(i + 2).map(|t| t.kind) == Some(TokenKind::Float);
        if lhs_float || rhs_float {
            out.push(Violation {
                rule: "no-float-eq",
                file: file.to_owned(),
                line: toks[i].line,
                message: "exact float comparison; compare via an epsilon helper instead".to_owned(),
            });
        }
    }
}

/// `Instant::now()` outside the telemetry crate: ad-hoc timing pairs drift
/// from the span tree (the exact bug the `SolveTimings` derivation fixed),
/// so wall-time must flow through `mc3_telemetry::timed_span`/`span`. The
/// telemetry crate itself is the one place allowed to read the clock, and
/// the bench harness carries reviewed waivers.
fn rule_no_bare_instant(file: &str, sf: &SyntaxFile, out: &mut Vec<Violation>) {
    if file.starts_with("crates/telemetry/") {
        return;
    }
    let toks = &sf.tokens;
    for (i, t) in toks.iter().enumerate() {
        if sf.in_test(i) || !t.is_ident("Instant") {
            continue;
        }
        let call = toks.get(i + 1).map(|n| n.is_punct(':')) == Some(true)
            && toks.get(i + 2).map(|n| n.is_punct(':')) == Some(true)
            && toks.get(i + 3).map(|n| n.is_ident("now")) == Some(true)
            && toks.get(i + 4).map(|n| n.is_punct('(')) == Some(true);
        if call {
            out.push(Violation {
                rule: "no-bare-instant",
                file: file.to_owned(),
                line: t.line,
                message: "direct Instant::now() in library code; route timing through \
                          mc3_telemetry spans (timed_span) so wall-times land in the trace"
                    .to_owned(),
            });
        }
    }
}

/// Crates whose job is writing to stdout/stderr (binaries and the lint
/// driver itself); the raw-print rule does not apply there.
const PRINT_EXEMPT_PREFIXES: [&str; 3] = ["crates/cli/", "crates/bench/", "crates/audit/"];

/// `print!`/`println!`/`eprint!`/`eprintln!` in library crates: ad-hoc
/// writes bypass the leveled `mc3-obs` event log (no span context, no
/// request id, no way to silence them in a serving process). Binaries keep stdout for their actual output, so `cli`,
/// `bench` and `audit` — plus `src/bin/` targets and `main.rs` anywhere —
/// are exempt.
fn rule_no_raw_eprintln(file: &str, sf: &SyntaxFile, out: &mut Vec<Violation>) {
    if PRINT_EXEMPT_PREFIXES.iter().any(|p| file.starts_with(p))
        || file.contains("/bin/")
        || file.ends_with("main.rs")
    {
        return;
    }
    let toks = &sf.tokens;
    for (i, t) in toks.iter().enumerate() {
        if sf.in_test(i) || t.kind != TokenKind::Ident {
            continue;
        }
        let is_print = matches!(t.text.as_str(), "print" | "println" | "eprint" | "eprintln");
        if is_print && toks.get(i + 1).map(|n| n.is_punct('!')) == Some(true) {
            out.push(Violation {
                rule: "no-raw-eprintln-in-lib",
                file: file.to_owned(),
                line: t.line,
                message: format!(
                    "{}! in library code; emit a leveled mc3_obs event (debug/info/warn/error) \
                     so diagnostics carry span context and honour MC3_LOG",
                    t.text
                ),
            });
        }
    }
}

/// `Ordering::Relaxed` / `Ordering::SeqCst` outside `crates/telemetry/`:
/// the weakest and strongest orderings are the two that most often hide a
/// reasoning mistake — `Relaxed` because it provides no synchronization
/// at all (fine for the telemetry counters, dangerous in the solver's
/// worker pool), `SeqCst` because it usually papers over an unstated
/// acquire/release protocol. Every such site must carry a waiver stating
/// the ordering argument; `Acquire`/`Release`/`AcqRel` name their
/// protocol explicitly and pass.
fn rule_no_relaxed_atomics(file: &str, sf: &SyntaxFile, out: &mut Vec<Violation>) {
    if file.starts_with("crates/telemetry/") {
        return;
    }
    let toks = &sf.tokens;
    for (i, t) in toks.iter().enumerate() {
        if sf.in_test(i) || !t.is_ident("Ordering") {
            continue;
        }
        let path = toks.get(i + 1).map(|n| n.is_punct(':')) == Some(true)
            && toks.get(i + 2).map(|n| n.is_punct(':')) == Some(true);
        if !path {
            continue;
        }
        let Some(which) = toks.get(i + 3) else {
            continue;
        };
        if which.is_ident("Relaxed") || which.is_ident("SeqCst") {
            out.push(Violation {
                rule: "no-relaxed-atomics",
                file: file.to_owned(),
                line: t.line,
                message: format!(
                    "Ordering::{} outside crates/telemetry; add a reviewed waiver stating \
                     why this ordering is sufficient (or switch to Acquire/Release)",
                    which.text
                ),
            });
        }
    }
}

/// Allocation inside a loop of a flow/set-cover kernel file: `Vec::new`,
/// `vec![…]`, `.push(…)`, `.collect(…)`, `.clone(…)`, `.to_vec(…)`,
/// `.to_owned(…)`. The kernels are called per query and per phase; an
/// allocation per iteration is exactly the pattern `ReductionScratch` and
/// the reusable reduction buffers exist to avoid. Reviewed
/// one-time/amortized allocations carry waivers.
fn rule_no_alloc_in_hot_loops(file: &str, sf: &SyntaxFile, out: &mut Vec<Violation>) {
    let name = file.rsplit('/').next().unwrap_or(file);
    if !ALLOC_HOT_FILES.contains(&name) {
        return;
    }
    let toks = &sf.tokens;
    for (i, t) in toks.iter().enumerate() {
        if sf.in_test(i) || sf.loop_depth(i) == 0 || t.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |c: char| toks.get(i + 1).map(|n| n.is_punct(c)) == Some(true);
        let prev_is_dot = i > 0 && toks[i - 1].is_punct('.');
        let site = match t.text.as_str() {
            "push" | "collect" | "clone" | "to_vec" | "to_owned"
                if prev_is_dot && (next_is('(') || next_is(':')) =>
            {
                format!(".{}()", t.text)
            }
            "new" | "with_capacity"
                if i >= 3
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks[i - 3].is_ident("Vec") =>
            {
                format!("Vec::{}()", t.text)
            }
            "vec" if next_is('!') => "vec![…]".to_owned(),
            _ => continue,
        };
        out.push(Violation {
            rule: "no-alloc-in-hot-loops",
            file: file.to_owned(),
            line: t.line,
            message: format!(
                "{site} inside a kernel loop allocates per iteration; hoist the buffer out \
                 of the loop (see ReductionScratch) or waive after review"
            ),
        });
    }
}

/// Cast targets the truncation rule considers narrowing. The workspace
/// pins 64-bit targets (`mc3_core::cast` carries the compile-time
/// assertion), so `usize`/`u64`/`u128`/`i128` casts cannot lose value
/// bits from the `u32`-sized ids the kernels use; everything narrower —
/// plus the sign-flipping `i64`/`isize` — can.
const NARROWING_TARGETS: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "i64", "isize"];

/// Narrowing `as` casts in non-test code: `expr as u32` silently drops
/// high bits on out-of-range input — the exact failure mode that corrupts
/// id/cost arithmetic at production scale. Literal operands (`0 as u32`)
/// and bool-shaped operands (`(a == b) as u32`, branchless kernels) are
/// exempt; everything else must go through `mc3_core::cast`
/// (`try_from`-backed) or carry a reviewed waiver.
fn rule_no_silent_truncation(file: &str, sf: &SyntaxFile, out: &mut Vec<Violation>) {
    for cast in &sf.casts {
        if sf.in_test(cast.as_token) || !NARROWING_TARGETS.contains(&cast.target.as_str()) {
            continue;
        }
        if matches!(
            cast.operand,
            CastOperand::Literal | CastOperand::BoolShaped | CastOperand::BoolLiteral
        ) {
            continue;
        }
        out.push(Violation {
            rule: "no-silent-truncation",
            file: file.to_owned(),
            line: cast.line,
            message: format!(
                "narrowing `as {}` may silently truncate; use mc3_core::cast \
                 (try_from-backed) or waive with the range argument",
                cast.target
            ),
        });
    }
}

/// `let _ = expr;` in library crates: when `expr` is a `Result`, the `_`
/// pattern swallows the error without a trace — unlike an unused named
/// binding it does not even earn a warning. The `let _ = write!(buf, …)`
/// idiom on a `String` is exempt (`fmt::Write` to a `String` cannot
/// fail); binaries (`cli`, `src/bin/`, `main.rs`) own their exit paths
/// and are exempt too. Everything else either handles the value, binds
/// it to a named `_x` to document intent, or carries a reviewed waiver.
fn rule_no_swallowed_result(file: &str, sf: &SyntaxFile, out: &mut Vec<Violation>) {
    if file.starts_with("crates/cli/") || file.contains("/bin/") || file.ends_with("main.rs") {
        return;
    }
    for d in &sf.discards {
        if sf.in_test(d.let_token) || d.is_write_macro {
            continue;
        }
        out.push(Violation {
            rule: "no-swallowed-result",
            file: file.to_owned(),
            line: d.line,
            message: "`let _ =` swallows the value (and any Err) without a trace; handle \
                      or propagate the Result, bind a named `_x`, or waive after review"
                .to_owned(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(file: &str, src: &str) -> Vec<&'static str> {
        check_file(file, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn rule_metadata_covers_every_rule() {
        assert_eq!(ALL_RULES.len(), RULE_INFOS.len());
        for (rule, info) in ALL_RULES.iter().zip(RULE_INFOS.iter()) {
            assert_eq!(*rule, info.name, "RULE_INFOS must stay in ALL_RULES order");
        }
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }";
        let v = check_file("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn expect_panic_todo_flagged() {
        assert_eq!(
            rules_hit("a.rs", "fn f() { a.expect(\"m\"); panic!(\"x\"); todo!() }"),
            vec!["no-unwrap-in-lib"; 3]
        );
        // `unimplemented!` counts too; bare `expect` without a dot does not.
        assert_eq!(
            rules_hit("a.rs", "fn f() { unimplemented!() } fn expect() {}"),
            vec!["no-unwrap-in-lib"]
        );
    }

    #[test]
    fn default_hasher_flagged() {
        assert_eq!(
            rules_hit("a.rs", "use std::collections::HashMap;"),
            vec!["no-default-hasher"]
        );
        assert!(rules_hit("a.rs", "use mc3_core::FxHashMap;").is_empty());
    }

    #[test]
    fn hot_loop_indexing_only_in_hot_files_and_loops() {
        let src = "fn f(v: &[u32]) { let a = v[0]; for i in 0..9 { let b = v[i]; } }";
        // Only the in-loop site in a hot file fires.
        let v = check_file("crates/flow/src/dinic.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unchecked-index-in-hot-loops");
        // Same code in a cold file: nothing.
        assert!(check_file("crates/flow/src/graph.rs", src).is_empty());
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let src = "impl Foo for Bar { fn f(&self, v: &[u32]) -> u32 { v[0] } }";
        assert!(check_file("crates/flow/src/dinic.rs", src).is_empty());
        let looped = "fn f(v: &[u32]) { while v[0] > 0 { g(v[1]); } }";
        assert_eq!(check_file("crates/flow/src/dinic.rs", looped).len(), 2);
    }

    #[test]
    fn float_eq_flagged() {
        assert_eq!(
            rules_hit("a.rs", "fn f(x: f64) -> bool { x == 0.5 }"),
            vec!["no-float-eq"]
        );
        assert_eq!(
            rules_hit("a.rs", "fn f(x: f64) -> bool { 1.0 != x }"),
            vec!["no-float-eq"]
        );
        assert!(rules_hit("a.rs", "fn f(x: f64) -> bool { x <= 0.5 }").is_empty());
        assert!(rules_hit("a.rs", "fn f(x: u64) -> bool { x == 5 }").is_empty());
    }

    #[test]
    fn waiver_suppresses_same_and_next_line() {
        let src = "// audit:allow(no-unwrap-in-lib) reviewed: init-time\nfn f() { x.unwrap(); }";
        assert!(check_file("a.rs", src).is_empty());
        let src = "fn f() { x.unwrap(); } // audit:allow(no-unwrap-in-lib)";
        assert!(check_file("a.rs", src).is_empty());
        // A waiver for a different rule does not help.
        let src = "// audit:allow(no-float-eq)\nfn f() { x.unwrap(); }";
        assert_eq!(check_file("a.rs", src).len(), 1);
    }

    #[test]
    fn bare_instant_flagged_outside_telemetry_and_tests() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(
            rules_hit("crates/solver/src/solver.rs", src),
            vec!["no-bare-instant"]
        );
        // Fully qualified paths hit too (the match anchors on `Instant`).
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(
            rules_hit("crates/flow/src/dinic.rs", src),
            vec!["no-bare-instant"]
        );
        // The telemetry crate is the one place allowed to read the clock.
        assert!(rules_hit("crates/telemetry/src/spans.rs", src).is_empty());
        // Tests and plain mentions of the type are fine.
        let src = "#[cfg(test)]\nmod tests { fn f() { let t = Instant::now(); } }";
        assert!(rules_hit("crates/solver/src/solver.rs", src).is_empty());
        let src = "use std::time::Instant;\nfn f(t: Instant) {}";
        assert!(rules_hit("crates/solver/src/solver.rs", src).is_empty());
        // Waivers work as for every other rule.
        let src =
            "// audit:allow(no-bare-instant) harness clock\nfn f() { let t = Instant::now(); }";
        assert!(rules_hit("crates/bench/src/timing.rs", src).is_empty());
    }

    #[test]
    fn raw_prints_flagged_in_lib_code_only() {
        let src = "fn f() { eprintln!(\"bad\"); println!(\"also bad\"); }";
        assert_eq!(
            rules_hit("crates/solver/src/solver.rs", src),
            vec!["no-raw-eprintln-in-lib"; 2]
        );
        // Binary crates, bin targets and main.rs keep their stdout.
        assert!(rules_hit("crates/cli/src/commands.rs", src).is_empty());
        assert!(rules_hit("crates/bench/src/bin/experiments.rs", src).is_empty());
        assert!(rules_hit("crates/audit/src/main.rs", src).is_empty());
        assert!(rules_hit("crates/solver/src/main.rs", src).is_empty());
        // Tests may print freely.
        let test_src = "#[cfg(test)]\nmod tests { fn f() { eprintln!(\"dbg\"); } }";
        assert!(rules_hit("crates/solver/src/solver.rs", test_src).is_empty());
        // A function merely named print is not a macro invocation.
        assert!(rules_hit("crates/solver/src/x.rs", "fn f() { print(); }").is_empty());
        // Waivers work as for every other rule.
        let waived = "// audit:allow(no-raw-eprintln-in-lib) reviewed: sink fallback\n\
                      fn f() { eprintln!(\"x\"); }";
        assert!(rules_hit("crates/obs/src/events.rs", waived).is_empty());
    }

    #[test]
    fn strings_cannot_fake_violations() {
        let src = "fn f() { let s = \"x.unwrap() panic!\"; }";
        assert!(check_file("a.rs", src).is_empty());
    }

    #[test]
    fn cfg_any_test_gates_too() {
        let src = "#[cfg(any(test, feature = \"x\"))]\nmod helpers { fn f() { x.unwrap(); } }";
        assert!(check_file("a.rs", src).is_empty());
    }

    #[test]
    fn relaxed_and_seqcst_flagged_outside_telemetry() {
        let src = "fn f(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }";
        assert_eq!(
            rules_hit("crates/solver/src/solver.rs", src),
            vec!["no-relaxed-atomics"]
        );
        let src = "fn f(a: &AtomicU64) { a.store(1, std::sync::atomic::Ordering::SeqCst); }";
        assert_eq!(
            rules_hit("crates/obs/src/events.rs", src),
            vec!["no-relaxed-atomics"]
        );
        // Acquire/Release name their protocol and pass.
        let src = "fn f(a: &AtomicU64) { a.store(1, Ordering::Release); }";
        assert!(rules_hit("crates/obs/src/events.rs", src).is_empty());
        // The telemetry counters are the sanctioned Relaxed user.
        let src = "fn f(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }";
        assert!(rules_hit("crates/telemetry/src/counters.rs", src).is_empty());
        // Waivers state the ordering argument.
        let src = "// audit:allow(no-relaxed-atomics) work-stealing index, result via Mutex\n\
                   fn f(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }";
        assert!(rules_hit("crates/solver/src/solver.rs", src).is_empty());
    }

    #[test]
    fn alloc_in_hot_loops_flagged_in_kernel_files_only() {
        let src = "fn f(v: &[u32]) -> Vec<u32> { let mut out = Vec::new(); \
                   for x in v { out.push(*x); } out }";
        // Vec::new is outside the loop: only the push fires.
        let v = check_file("crates/setcover/src/greedy.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-alloc-in-hot-loops");
        // Same code in a cold file: nothing.
        assert!(rules_hit("crates/setcover/src/instance.rs", src).is_empty());
        // collect / clone / vec! inside a loop all fire.
        let src = "fn f(v: &[Vec<u32>]) { for x in v { let a = x.clone(); \
                   let b: Vec<u32> = x.iter().copied().collect(); let c = vec![0u32; 4]; } }";
        assert_eq!(
            rules_hit("crates/flow/src/push_relabel.rs", src),
            vec!["no-alloc-in-hot-loops"; 3]
        );
        // Tests in kernel files may allocate freely.
        let src = "#[cfg(test)]\nmod tests { fn f(v: &[u32]) { \
                   for x in v { let mut o = Vec::new(); o.push(*x); } } }";
        assert!(rules_hit("crates/flow/src/dinic.rs", src).is_empty());
    }

    #[test]
    fn narrowing_casts_flagged_with_shape_exemptions() {
        let src = "fn f(n: u64) -> u32 { n as u32 }";
        assert_eq!(
            rules_hit("crates/flow/src/graph.rs", src),
            vec!["no-silent-truncation"]
        );
        // Literal, bool-shaped and widening casts pass.
        assert!(rules_hit("a.rs", "fn f() -> u32 { 7 as u32 }").is_empty());
        assert!(rules_hit("a.rs", "fn f(a: u64, b: u64) -> u32 { (a == b) as u32 }").is_empty());
        assert!(rules_hit("a.rs", "fn f(n: u32) -> u64 { n as u64 }").is_empty());
        assert!(rules_hit("a.rs", "fn f(n: u32) -> usize { n as usize }").is_empty());
        assert!(rules_hit("a.rs", "fn f(b: bool) -> u32 { true as u32 }").is_empty());
        // i64 can drop the top bit of a u64: flagged.
        let src = "fn f(n: u64) -> i64 { n as i64 }";
        assert_eq!(rules_hit("a.rs", src), vec!["no-silent-truncation"]);
        // Tests and waived sites pass.
        let src = "#[cfg(test)]\nmod t { fn f(n: u64) -> u32 { n as u32 } }";
        assert!(rules_hit("a.rs", src).is_empty());
        let src = "// audit:allow(no-silent-truncation) hash mixing: truncation intended\n\
                   fn f(n: u64) -> u32 { n as u32 }";
        assert!(rules_hit("a.rs", src).is_empty());
    }

    #[test]
    fn swallowed_results_flagged_outside_binaries() {
        let src = "fn f() { let _ = fallible(); }";
        assert_eq!(
            rules_hit("crates/obs/src/events.rs", src),
            vec!["no-swallowed-result"]
        );
        // The write!-to-String idiom is infallible and passes.
        let src = "fn f(out: &mut String) { let _ = writeln!(out, \"x\"); }";
        assert!(rules_hit("crates/obs/src/prom.rs", src).is_empty());
        // Named discards document intent and pass.
        assert!(rules_hit(
            "crates/obs/src/events.rs",
            "fn f() { let _res = fallible(); }"
        )
        .is_empty());
        // Binaries own their exit paths.
        let src = "fn f() { let _ = fallible(); }";
        assert!(rules_hit("crates/cli/src/commands.rs", src).is_empty());
        assert!(rules_hit("crates/bench/src/bin/experiments.rs", src).is_empty());
        // Tests pass; waivers work.
        let src = "#[cfg(test)]\nmod t { fn f() { let _ = fallible(); } }";
        assert!(rules_hit("crates/obs/src/events.rs", src).is_empty());
        let src = "// audit:allow(no-swallowed-result) best-effort flush on drop\n\
                   fn f() { let _ = w.flush(); }";
        assert!(rules_hit("crates/obs/src/events.rs", src).is_empty());
    }
}
