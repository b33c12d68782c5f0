//! Property tests for the structural layer: the recursive-descent
//! parser must (a) produce spans that reconstruct to the same token
//! stream they were cut from and (b) never panic, whatever bytes it is
//! fed. The lexer is total and the parser is written to skip anything
//! it does not recognise, so both properties hold for arbitrary
//! mutations of real Rust source — which is exactly what half-saved
//! editor buffers and merge-conflict markers look like in practice.

use fifoms_lint::matcher::Matcher;
use fifoms_lint::parser;
use fifoms_lint::structural::{r8_checkpoint_coverage, render_state_manifest, state_entries};
use fifoms_lint::Program;

/// The corpus: every committed parser fixture plus the two richest real
/// sources the workspace has (impl-heavy and checkpoint-heavy).
fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut names: Vec<_> = std::fs::read_dir(&fixtures)
        .expect("fixtures directory exists")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    names.sort();
    for path in names {
        let rel = format!("fixtures/{}", path.file_name().unwrap().to_string_lossy());
        out.push((rel, std::fs::read_to_string(&path).expect("fixture readable")));
    }
    for real in ["../fabric/src/instrument.rs", "../core/src/slab.rs"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(real);
        if let Ok(src) = std::fs::read_to_string(&path) {
            out.push((real.to_string(), src));
        }
    }
    out
}

/// Join the significant tokens of `span` with single spaces. Because
/// the lexer never glues across whitespace, re-lexing this string must
/// reproduce exactly the same token texts.
fn reconstruct(m: &Matcher<'_>, lo: usize, hi: usize) -> String {
    (lo..hi).map(|i| m.text(i)).collect::<Vec<_>>().join(" ")
}

#[test]
fn item_spans_round_trip_through_the_lexer() {
    for (rel, src) in corpus() {
        let m = Matcher::new(&src);
        let ast = parser::parse(&m);
        let mut spans: Vec<(&str, usize, usize)> = Vec::new();
        for s in &ast.structs {
            spans.push(("struct", s.span.lo, s.span.hi));
        }
        for i in &ast.impls {
            spans.push(("impl", i.span.lo, i.span.hi));
            for method in &i.methods {
                spans.push(("method body", method.body.lo, method.body.hi));
            }
        }
        for (what, lo, hi) in spans {
            assert!(lo <= hi && hi <= m.len(), "{rel}: {what} span out of range");
            let text = reconstruct(&m, lo, hi);
            let again = Matcher::new(&text);
            assert_eq!(
                again.len(),
                hi - lo,
                "{rel}: {what} span re-lexed to a different token count"
            );
            for (k, i) in (lo..hi).enumerate() {
                assert_eq!(
                    again.text(k),
                    m.text(i),
                    "{rel}: {what} span token {k} changed across the round trip"
                );
            }
        }
    }
}

#[test]
fn struct_fields_and_impl_methods_sit_inside_their_item_span() {
    for (rel, src) in corpus() {
        let m = Matcher::new(&src);
        let ast = parser::parse(&m);
        for s in &ast.structs {
            let (span_line, _) = m.line_col(s.span.lo);
            for f in &s.fields {
                assert!(
                    f.line >= span_line,
                    "{rel}: struct {} field {} reported before the struct itself",
                    s.name,
                    f.name
                );
            }
        }
        for i in &ast.impls {
            for method in &i.methods {
                assert!(
                    i.span.lo <= method.body.lo && method.body.hi <= i.span.hi,
                    "{rel}: method {} body escapes its impl span",
                    method.name
                );
            }
        }
    }
}

/// Deterministic xorshift64 generator — the tests must not depend on
/// ambient randomness, so failures reproduce from the fixed seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One seeded mutation of `src`: delete a span, duplicate a span,
/// splice in structural noise, or truncate. Operates on chars so the
/// result stays valid UTF-8.
fn mutate(rng: &mut XorShift, src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    if chars.is_empty() {
        return "{".into();
    }
    let a = rng.below(chars.len());
    let b = (a + 1 + rng.below(40)).min(chars.len());
    match rng.below(4) {
        0 => {
            // Delete [a, b): unbalances braces, splits tokens.
            let mut out: Vec<char> = chars[..a].to_vec();
            out.extend_from_slice(&chars[b..]);
            out.into_iter().collect()
        }
        1 => {
            // Duplicate [a, b) in place: duplicate items and fields.
            let mut out: Vec<char> = chars[..b].to_vec();
            out.extend_from_slice(&chars[a..b]);
            out.extend_from_slice(&chars[b..]);
            out.into_iter().collect()
        }
        2 => {
            // Splice hostile structural noise at `a`.
            const NOISE: &[&str] = &[
                "}}}", "{{{", "impl", "struct S", "fn (", "<<<>>>", "\"", "r#\"", "/*", "//",
                "'a'", "=>", "#[cfg(test)]", "b\"\\x", "::<>",
            ];
            let mut out: Vec<char> = chars[..a].to_vec();
            out.extend(NOISE[rng.below(NOISE.len())].chars());
            out.extend_from_slice(&chars[a..]);
            out.into_iter().collect()
        }
        _ => chars[..a].iter().collect(), // Truncate mid-item.
    }
}

#[test]
fn parser_and_structural_rules_never_panic_on_mutated_sources() {
    let corpus = corpus();
    let mut rng = XorShift(0x5eed_cafe_f00d_1234);
    let mut mutants = 0usize;
    for (rel, src) in &corpus {
        for _ in 0..30 {
            let mutant = mutate(&mut rng, src);
            let m = Matcher::new(&mutant);
            let _ = parser::parse(&m);
            // The cross-file passes must hold up too: a program where
            // one file is garbage still has to lint the others.
            let program = Program::build(vec![
                ("crates/x/src/mutant.rs".into(), mutant),
                ("crates/x/src/good.rs".into(), src.clone()),
            ]);
            let _ = r8_checkpoint_coverage(&program);
            let _ = render_state_manifest(&state_entries(&program), None);
            mutants += 1;
        }
        let _ = rel;
    }
    assert!(
        mutants >= 200,
        "corpus too small: only {mutants} mutants exercised"
    );
}
