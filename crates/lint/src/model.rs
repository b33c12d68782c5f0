//! The cross-file program model: every workspace file's AST, with
//! lookup by name across crate boundaries.
//!
//! The structural rule R8 reasons about relationships no single file
//! shows: a `Checkpoint` impl covering a struct declared in another
//! file, or 300 lines earlier. The model is name-keyed rather
//! than path-resolved — the workspace has no name collisions among the
//! items the rules care about, and a full resolver would be most of a
//! compiler.

use crate::ast::{FileAst, StructDef};
use crate::matcher::Matcher;
use crate::parser;

/// One parsed file: its workspace-relative path, retained source text
/// (spans index into its token stream) and AST.
pub struct ProgramFile {
    /// Workspace-relative path (`crates/fabric/src/switch.rs`).
    pub rel: String,
    /// The file's full source text.
    pub src: String,
    /// The parsed item-level AST.
    pub ast: FileAst,
}

impl ProgramFile {
    /// Re-lex the file for token-level scans inside item spans.
    pub fn matcher(&self) -> Matcher<'_> {
        Matcher::new(&self.src)
    }
}

/// The whole-workspace program model.
#[derive(Default)]
pub struct Program {
    /// Every parsed file, in walk order (sorted by path).
    pub files: Vec<ProgramFile>,
}

impl Program {
    /// Parse `(rel, src)` pairs into a program model.
    pub fn build(files: Vec<(String, String)>) -> Program {
        let parsed = files
            .into_iter()
            .map(|(rel, src)| {
                let ast = parser::parse(&Matcher::new(&src));
                ProgramFile { rel, src, ast }
            })
            .collect();
        Program { files: parsed }
    }

    /// Add one pre-read file to the model.
    pub fn push(&mut self, rel: String, src: String) {
        let ast = parser::parse(&Matcher::new(&src));
        self.files.push(ProgramFile { rel, src, ast });
    }

    /// The first struct definition named `name`, with its file.
    pub fn struct_def(&self, name: &str) -> Option<(&ProgramFile, &StructDef)> {
        self.files.iter().find_map(|f| {
            f.ast
                .structs
                .iter()
                .find(|s| s.name == name)
                .map(|s| (f, s))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_file_lookup_by_name() {
        let p = Program::build(vec![
            (
                "crates/a/src/lib.rs".into(),
                "pub struct V { x: u8 }".into(),
            ),
            (
                "crates/b/src/wrap.rs".into(),
                "pub struct W<S> { inner: S }\nimpl<S> Checkpoint for W<S> {}".into(),
            ),
        ]);
        let (sf, s) = p.struct_def("W").expect("struct found");
        assert_eq!(sf.rel, "crates/b/src/wrap.rs");
        assert_eq!(s.fields[0].name, "inner");
        assert_eq!(p.struct_def("V").expect("struct found").0.rel, "crates/a/src/lib.rs");
        assert!(p.struct_def("Nope").is_none());
    }
}
