//! A dependency-free recursive-descent parser over the lexer's token
//! stream, producing the item-level AST in [`crate::ast`].
//!
//! Design constraints, in order:
//!
//! 1. **Total.** The parser must terminate and never panic on *any*
//!    byte sequence — the property tests feed it hundreds of randomly
//!    mutated files. Every token access is bounds-checked and every
//!    loop provably advances the cursor.
//! 2. **Skippable.** It understands exactly the item shapes the
//!    structural rules need (`struct`, `impl`, `mod`) and
//!    skips everything else by consuming to the next `;` or balanced
//!    `{}` — an unknown construct degrades coverage, never correctness.
//! 3. **Span-preserving.** Items and method bodies carry
//!    significant-token spans into the originating [`Matcher`], so
//!    rules can re-scan any body at token level.
//!
//! Angle brackets are the one ambiguity a token parser must care about:
//! `<`/`>` nest in generics but `->` also ends in `>`. The generic
//! scanner therefore refuses to treat a `>` preceded by `-` as a
//! closer, which covers every form the workspace uses (`Fn(A) -> B`
//! bounds included).

use crate::ast::{Field, FileAst, ImplDef, ImplMethod, Span, StructDef};
use crate::matcher::Matcher;

/// Parse one lexed file into its item-level AST. Total: returns an
/// (possibly partial) AST for arbitrary input, never panics.
pub fn parse(m: &Matcher) -> FileAst {
    let mut p = Parser {
        m,
        out: FileAst::default(),
    };
    p.items(0, m.len());
    p.out
}

struct Parser<'a, 'b> {
    m: &'b Matcher<'a>,
    out: FileAst,
}

impl<'a, 'b> Parser<'a, 'b> {
    /// The text of significant token `si`, or `""` past the end.
    fn t(&self, si: usize) -> &'a str {
        if si < self.m.len() {
            self.m.text(si)
        } else {
            ""
        }
    }

    /// 1-based line of significant token `si` (1 past the end).
    fn line(&self, si: usize) -> usize {
        if si < self.m.len() {
            self.m.line_col(si).0
        } else {
            1
        }
    }

    /// Parse the item sequence in `lo..hi` (a file top level or a
    /// `mod` body).
    fn items(&mut self, lo: usize, hi: usize) {
        let hi = hi.min(self.m.len());
        let mut pos = lo;
        while pos < hi {
            let next = self.item(pos, hi);
            debug_assert!(next > pos, "parser must advance");
            pos = if next > pos { next } else { pos + 1 };
        }
    }

    /// Parse (or skip) one item starting at `pos`; returns the position
    /// one past it. Always returns `> pos`.
    fn item(&mut self, pos: usize, hi: usize) -> usize {
        let mut at = pos;
        // Attributes: outer `#[...]` and inner `#![...]`.
        while self.t(at) == "#" {
            let open = if self.t(at + 1) == "!" { at + 2 } else { at + 1 };
            if self.t(open) != "[" {
                return at + 1;
            }
            match self.m.matching_close(open) {
                Some(close) => at = close + 1,
                None => return self.m.len(),
            }
        }
        // Visibility: `pub`, `pub(crate)`, `pub(in path)`.
        if self.t(at) == "pub" {
            at += 1;
            if self.t(at) == "(" {
                match self.m.matching_close(at) {
                    Some(close) => at = close + 1,
                    None => return self.m.len(),
                }
            }
        }
        if self.t(at) == "unsafe" {
            at += 1;
        }
        match self.t(at) {
            "struct" => self.struct_item(at),
            "impl" => self.impl_item(at),
            "mod" => self.mod_item(at, hi),
            _ => self.skip_item(at).max(pos + 1),
        }
    }

    /// Skip an unrecognized item: consume to the first top-level `;` or
    /// past the matching `}` of the first top-level `{`.
    fn skip_item(&self, pos: usize) -> usize {
        let mut depth = 0i64;
        let mut at = pos;
        while at < self.m.len() {
            match self.t(at) {
                "{" if depth == 0 => {
                    return match self.m.matching_close(at) {
                        Some(close) => close + 1,
                        None => self.m.len(),
                    };
                }
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        // A stray closer: the enclosing scope's, not ours.
                        return at + 1;
                    }
                }
                ";" if depth == 0 => return at + 1,
                _ => {}
            }
            at += 1;
        }
        self.m.len()
    }

    /// `mod name { items }` recurses; `mod name;` skips.
    fn mod_item(&mut self, pos: usize, hi: usize) -> usize {
        let mut at = pos + 1; // past `mod`
        if !self.t(at).is_empty() {
            at += 1; // the module name
        }
        match self.t(at) {
            "{" => match self.m.matching_close(at) {
                Some(close) => {
                    self.items(at + 1, close.min(hi));
                    close + 1
                }
                None => self.m.len(),
            },
            ";" => at + 1,
            _ => self.skip_item(pos),
        }
    }

    /// Scan a `<...>` generic group starting at `pos` (which must hold
    /// `<`); returns `(param names, one_past_close)`.
    fn generics(&self, pos: usize) -> (Vec<String>, usize) {
        if self.t(pos) != "<" {
            return (Vec::new(), pos);
        }
        let mut depth = 0i64;
        let mut at = pos;
        let mut close = self.m.len();
        while at < self.m.len() {
            match self.t(at) {
                "<" => depth += 1,
                ">" if at > 0 && self.t(at - 1) == "-" => {} // `->`, not a closer
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        close = at;
                        break;
                    }
                }
                _ => {}
            }
            at += 1;
        }
        // Split params at depth-1 commas (ignoring nested delimiters).
        let mut params = Vec::new();
        let mut seg_lo = pos + 1;
        let mut d = 1i64; // depth inside the < >
        let mut b = 0i64; // () [] {} nesting
        for k in pos + 1..close {
            match self.t(k) {
                "<" => d += 1,
                ">" if self.t(k - 1) != "-" => d -= 1,
                "(" | "[" | "{" => b += 1,
                ")" | "]" | "}" => b -= 1,
                "," if d == 1 && b == 0 => {
                    self.push_param(&mut params, seg_lo, k);
                    seg_lo = k + 1;
                }
                _ => {}
            }
        }
        self.push_param(&mut params, seg_lo, close);
        (params, (close + 1).min(self.m.len().max(pos + 1)))
    }

    /// Push the name of the generic-parameter segment `lo..hi`.
    fn push_param(&self, params: &mut Vec<String>, lo: usize, hi: usize) {
        let mut at = lo;
        if self.t(at) == "const" {
            at += 1;
        }
        if at < hi && !self.t(at).is_empty() {
            params.push(self.t(at).to_string());
        }
    }

    /// `struct Name<...> { fields }` / tuple / unit struct.
    fn struct_item(&mut self, pos: usize) -> usize {
        let kw = pos;
        let name = self.t(pos + 1).to_string();
        let (generics, mut at) = self.generics(pos + 2);
        if at == pos + 2 {
            at = pos + 2; // no generic group
        }
        // Optional where clause before the body.
        while at < self.m.len() && !matches!(self.t(at), "{" | "(" | ";") {
            at += 1;
        }
        let (fields, end) = match self.t(at) {
            "{" => match self.m.matching_close(at) {
                Some(close) => (self.fields(at, close), close + 1),
                None => (Vec::new(), self.m.len()),
            },
            // Tuple struct: skip `(...)` then the trailing `;`.
            "(" => (Vec::new(), self.skip_item(at)),
            ";" => (Vec::new(), at + 1),
            _ => (Vec::new(), self.m.len()),
        };
        self.out.structs.push(StructDef {
            name,
            generics,
            fields,
            line: self.line(kw),
            span: Span { lo: kw, hi: end },
        });
        end
    }

    /// Named fields between `{` at `open` and its `close`.
    fn fields(&self, open: usize, close: usize) -> Vec<Field> {
        let mut fields = Vec::new();
        for (lo, hi) in self.m.split_args(open, close) {
            let mut at = lo;
            while self.t(at) == "#" && self.t(at + 1) == "[" {
                match self.m.matching_close(at + 1) {
                    Some(c) if c < hi => at = c + 1,
                    _ => break,
                }
            }
            if self.t(at) == "pub" {
                at += 1;
                if self.t(at) == "(" {
                    match self.m.matching_close(at) {
                        Some(c) if c < hi => at = c + 1,
                        _ => continue,
                    }
                }
            }
            if at + 1 < hi && self.t(at + 1) == ":" {
                fields.push(Field {
                    name: self.t(at).to_string(),
                    ty: self.m.snippet(at + 2, hi, 64),
                    line: self.line(at),
                });
            }
        }
        fields
    }

    /// `impl<G> Trait for Type where ... { methods }` or `impl Type {..}`.
    fn impl_item(&mut self, pos: usize) -> usize {
        let kw = pos;
        let (_, at) = self.generics(pos + 1);
        // First type: the trait (if `for` follows) or the self type.
        let (first_lo, first_hi, stop) = self.type_until(at, &["for", "where", "{"]);
        let (trait_name, self_lo, self_hi, mut at) = if stop == "for" {
            let (lo, hi, _) = self.type_until(first_hi + 1, &["where", "{"]);
            (self.path_tail(first_lo, first_hi), lo, hi, hi)
        } else {
            (None, first_lo, first_hi, first_hi)
        };
        // Where clause: skipped to the body brace.
        if self.t(at) == "where" {
            let mut k = at + 1;
            let mut depth = 0i64;
            while k < self.m.len() && !(depth == 0 && self.t(k) == "{") {
                match self.t(k) {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ">" if self.t(k - 1) != "-" => depth -= 1,
                    _ => {}
                }
                k += 1;
            }
            at = k;
        }
        if self.t(at) != "{" {
            return self.skip_item(kw).max(kw + 1);
        }
        let Some(close) = self.m.matching_close(at) else {
            return self.m.len();
        };
        let mut methods = Vec::new();
        let mut k = at + 1;
        while k < close {
            if self.t(k) == "#" && self.t(k + 1) == "[" {
                match self.m.matching_close(k + 1) {
                    Some(c) if c < close => {
                        k = c + 1;
                        continue;
                    }
                    _ => break,
                }
            }
            // Step over fn qualifiers: `pub [(crate)] const unsafe fn ...`.
            let mut q = k;
            loop {
                match self.t(q) {
                    "pub" if self.t(q + 1) == "(" => match self.m.matching_close(q + 1) {
                        Some(c) if c < close => q = c + 1,
                        _ => break,
                    },
                    "pub" | "unsafe" | "const" | "default" | "async" => q += 1,
                    _ => break,
                }
            }
            if self.t(q) == "fn" && q > k {
                k = q;
            }
            if self.t(k) == "fn" {
                let mname = self.t(k + 1).to_string();
                let line = self.line(k);
                // The body is the first top-level brace group.
                let mut depth = 0i64;
                let mut b = k + 2;
                let mut body = None;
                while b < close {
                    match self.t(b) {
                        "{" if depth == 0 => {
                            body = self.m.matching_close(b).map(|c| Span { lo: b, hi: c + 1 });
                            break;
                        }
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    b += 1;
                }
                match body {
                    Some(span) => {
                        methods.push(ImplMethod {
                            name: mname,
                            body: span,
                            line,
                        });
                        k = span.hi;
                    }
                    None => k = (b + 1).max(k + 1),
                }
                continue;
            }
            k = self.skip_item(k).max(k + 1);
        }
        let self_ty = self.m.snippet(self_lo, self_hi, 64);
        let self_ty_name = (self_lo..self_hi)
            .find(|&k| {
                !matches!(self.t(k), "&" | "mut" | "dyn" | "'" ) && self.t(k).chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
            })
            .map(|k| self.t(k).to_string())
            .unwrap_or_default();
        self.out.impls.push(ImplDef {
            trait_name,
            self_ty,
            self_ty_name,
            methods,
            line: self.line(kw),
            span: Span { lo: kw, hi: close + 1 },
            test_only: kw < self.m.len() && self.m.in_test_code(self.m.tok(kw).start),
        });
        close + 1
    }

    /// Consume a type starting at `pos` until one of `stops` appears at
    /// nesting depth 0; returns `(lo, hi, stop_text)` with `hi` at the
    /// stop token (or end of file, stop = `""`).
    fn type_until(&self, pos: usize, stops: &[&str]) -> (usize, usize, &'a str) {
        let mut depth = 0i64;
        let mut at = pos;
        while at < self.m.len() {
            let t = self.t(at);
            if depth == 0 && stops.contains(&t) {
                return (pos, at, t);
            }
            match t {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" => depth -= 1,
                ">" if at > 0 && self.t(at - 1) != "-" => depth -= 1,
                "{" | "}" | ";" => return (pos, at, ""),
                _ => {}
            }
            at += 1;
        }
        (pos, self.m.len(), "")
    }

    /// The final path-segment identifier of a (possibly generic) trait
    /// path in `lo..hi`: `obs::Checkpoint` → `Checkpoint`,
    /// `Switch` → `Switch`.
    fn path_tail(&self, lo: usize, hi: usize) -> Option<String> {
        let mut depth = 0i64;
        let mut tail = None;
        for k in lo..hi {
            match self.t(k) {
                "<" => depth += 1,
                ">" if k > 0 && self.t(k - 1) != "-" => depth -= 1,
                t if depth == 0
                    && t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') =>
                {
                    tail = Some(t.to_string());
                }
                _ => {}
            }
        }
        tail
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn ast(src: &str) -> FileAst {
        parse(&Matcher::new(src))
    }

    #[test]
    fn parses_struct_fields_and_generics() {
        let a = ast("pub struct W<S: Switch> { inner: S, pub count: u64, caps: Vec<usize> }");
        assert_eq!(a.structs.len(), 1);
        let s = &a.structs[0];
        assert_eq!(s.name, "W");
        assert_eq!(s.generics, ["S"]);
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["inner", "count", "caps"]);
        assert_eq!(s.fields[2].ty, "Vec < usize >");
    }

    #[test]
    fn tuple_and_unit_structs_have_no_fields() {
        let a = ast("struct T(u32, u64);\nstruct U;\nstruct N { x: u8 }");
        assert_eq!(a.structs.len(), 3);
        assert!(a.structs[0].fields.is_empty());
        assert!(a.structs[1].fields.is_empty());
        assert_eq!(a.structs[2].fields.len(), 1);
    }

    #[test]
    fn impl_records_trait_and_self_ty() {
        let a = ast(
            "impl<S: Switch> Switch for Wrapper<S> {\n fn name(&self) -> String { self.inner.name() }\n}\nimpl<T: Switch + ?Sized> Switch for Box<T> {\n fn name(&self) -> String { (**self).name() }\n}\nimpl Plain { fn go(&self) {} }",
        );
        assert_eq!(a.impls.len(), 3);
        let w = &a.impls[0];
        assert_eq!(w.trait_name.as_deref(), Some("Switch"));
        assert_eq!(w.self_ty_name, "Wrapper");
        assert_eq!(a.impls[1].self_ty_name, "Box");
        let p = &a.impls[2];
        assert!(p.trait_name.is_none());
        assert_eq!(p.methods.len(), 1);
    }

    #[test]
    fn where_clauses_are_skipped_to_the_body() {
        let a = ast("impl<S> Checkpoint for W<S> where S: Switch + Checkpoint { fn state_kind(&self) -> &'static str { \"w\" } }");
        let i = &a.impls[0];
        assert_eq!(i.trait_name.as_deref(), Some("Checkpoint"));
        assert_eq!(i.self_ty_name, "W");
        assert_eq!(i.methods.len(), 1);
    }

    #[test]
    fn method_bodies_are_token_spans() {
        let src = "impl W { fn f(&self) -> u32 { self.x + 1 } }";
        let m = Matcher::new(src);
        let a = parse(&m);
        let body = &a.impls[0].methods[0].body;
        assert_eq!(m.snippet(body.lo, body.hi, 16), "{ self . x + 1 }");
    }

    #[test]
    fn modules_are_recursed_and_cfg_test_marked() {
        let src = "mod inner { pub struct S { x: u8 } }\n#[cfg(test)]\nmod tests { impl Switch for Toy { fn name(&self) -> String { String::new() } } }\nimpl Switch for Real { fn name(&self) -> String { String::new() } }";
        let a = ast(src);
        assert_eq!(a.structs.len(), 1);
        assert_eq!(a.impls.len(), 2);
        assert!(a.impls[0].test_only, "ToySwitch impl is test-only");
        assert!(!a.impls[1].test_only);
    }

    #[test]
    fn fn_pointer_arrows_do_not_close_generics() {
        let a = ast("struct S<F: Fn(u32) -> u64> { f: F, x: u8 }");
        let s = &a.structs[0];
        assert_eq!(s.generics, ["F"]);
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[1].name, "x");
    }

    #[test]
    fn hostile_input_does_not_panic() {
        for src in [
            "",
            "struct",
            "struct {",
            "impl",
            "impl X {",
            "trait T { fn",
            "mod m {",
            "}}}",
            "# [",
            "pub (",
            "struct S < { x : u8 }",
            "impl < S for > X {",
            "fn f ( { ) }",
        ] {
            let _ = ast(src);
        }
    }
}
