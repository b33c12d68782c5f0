//! The item-level AST the structural rules run on.
//!
//! [`parser`](crate::parser) produces one [`FileAst`] per source file:
//! structs with their fields and impl blocks with per-method body
//! spans.
//! Spans are *significant-token index ranges* into the file's
//! [`Matcher`](crate::matcher::Matcher), so rules can drop back to token
//! scans inside any item without the AST having to model expressions —
//! the rules need "does this body mention field `rng`", not an
//! expression tree.
//!
//! Everything is owned (`String`, not `&str`): the cross-file
//! [`model`](crate::model) outlives the per-file lexers.

/// A half-open range `lo..hi` of significant-token indices.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// First significant-token index of the item.
    pub lo: usize,
    /// One past the last significant-token index.
    pub hi: usize,
}

impl Span {
    /// Whether `other` lies entirely within `self`.
    pub fn contains(&self, other: &Span) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }
}

/// One named struct field.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// The field's type as normalized token text (`Vec < u32 >`).
    pub ty: String,
    /// 1-based source line of the field name.
    pub line: usize,
}

/// A struct definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Generic parameter names (`S` for `struct W<S: Switch>`).
    pub generics: Vec<String>,
    /// Named fields, in declaration order. Tuple and unit structs have
    /// none.
    pub fields: Vec<Field>,
    /// 1-based source line of the `struct` keyword.
    pub line: usize,
    /// Significant-token span of the whole item.
    pub span: Span,
}

/// A method defined inside an impl block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImplMethod {
    /// Method name.
    pub name: String,
    /// Significant-token span of the body (including its braces).
    pub body: Span,
    /// 1-based source line of the `fn` keyword.
    pub line: usize,
}

/// An impl block (`impl T for X` or inherent `impl X`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImplDef {
    /// The implemented trait's name (path tail, generics stripped);
    /// `None` for inherent impls.
    pub trait_name: Option<String>,
    /// The self type as normalized token text (`CheckedSwitch < S >`).
    pub self_ty: String,
    /// The self type's head identifier (`CheckedSwitch`, `Box`).
    pub self_ty_name: String,
    /// Methods defined in the block, in order.
    pub methods: Vec<ImplMethod>,
    /// 1-based source line of the `impl` keyword.
    pub line: usize,
    /// Significant-token span of the whole block.
    pub span: Span,
    /// Whether the block sits inside `#[cfg(test)]` / `#[test]` code.
    pub test_only: bool,
}

impl ImplDef {
    /// The method named `name`, if the block defines one.
    pub fn method(&self, name: &str) -> Option<&ImplMethod> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// Everything the parser extracted from one file.
#[derive(Clone, Default, Debug)]
pub struct FileAst {
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Impl blocks.
    pub impls: Vec<ImplDef>,
}
