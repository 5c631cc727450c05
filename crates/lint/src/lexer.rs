//! A small hand-rolled Rust lexer: just enough token structure for the
//! rule engine, with exact handling of the places a naive substring scan
//! goes wrong — comments (including doc comments quoting `unwrap()`),
//! string and char literals, raw strings, and lifetimes.
//!
//! The output is a flat token stream plus the comment text (comments are
//! where suppression directives live, see [`crate::engine`]). There is
//! deliberately no parser and no AST: every rule in this workspace can be
//! phrased over a few neighbouring tokens, and a token stream never goes
//! out of date the way a vendored grammar does.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// An identifier or keyword (`fn`, `HashMap`, `r#async`).
    Ident,
    /// A single punctuation character (`::` arrives as two `:` tokens).
    Punct,
    /// A string, char, byte-string or numeric literal (content opaque).
    Literal,
    /// A lifetime (`'a`), including the quote.
    Lifetime,
}

/// One lexeme with its 1-based source line.
#[derive(Debug, Clone)]
pub(crate) struct Token {
    /// The kind of lexeme.
    pub(crate) kind: TokenKind,
    /// The lexeme text. For `Literal` this is the raw source slice; for
    /// `Punct` a single character.
    pub(crate) text: String,
    /// 1-based line the lexeme starts on.
    pub(crate) line: u32,
}

impl Token {
    /// True when the token is the identifier `name`.
    pub(crate) fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// True when the token is the punctuation character `c`.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// One comment (line or block) with its 1-based starting line. Suppression
/// directives are parsed out of these by the engine.
#[derive(Debug, Clone)]
pub(crate) struct Comment {
    /// Comment text including the `//` / `/*` introducer.
    pub(crate) text: String,
    /// 1-based line the comment starts on.
    pub(crate) line: u32,
}

/// A lexed source file: the token stream and the comments.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    /// All non-comment lexemes in source order.
    pub(crate) tokens: Vec<Token>,
    /// All comments in source order.
    pub(crate) comments: Vec<Comment>,
}

/// Lexes Rust source text. Unterminated literals and comments are
/// tolerated (the remainder of the file is consumed as that literal):
/// a linter must never panic on the code it inspects.
pub(crate) fn lex(source: &str) -> Lexed {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push_token(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => {
                    self.bump();
                    self.string_body(line, "\"".to_string());
                }
                '\'' => self.char_or_lifetime(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ if is_ident_start(c) => self.ident_or_prefixed_literal(line),
                _ => {
                    self.bump();
                    self.push_token(TokenKind::Punct, c.to_string(), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment { text, line });
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        // Consume "/*".
        text.push(self.bump().unwrap_or_default());
        text.push(self.bump().unwrap_or_default());
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    text.push(self.bump().unwrap_or_default());
                    text.push(self.bump().unwrap_or_default());
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    text.push(self.bump().unwrap_or_default());
                    text.push(self.bump().unwrap_or_default());
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break,
            }
        }
        self.out.comments.push(Comment { text, line });
    }

    /// Consumes a `"…"` body (the opening quote is already consumed and in
    /// `text`), honouring backslash escapes.
    fn string_body(&mut self, line: u32, mut text: String) {
        while let Some(c) = self.bump() {
            text.push(c);
            match c {
                '\\' => {
                    if let Some(escaped) = self.bump() {
                        text.push(escaped);
                    }
                }
                '"' => break,
                _ => {}
            }
        }
        self.push_token(TokenKind::Literal, text, line);
    }

    /// Consumes a raw string `r"…"` / `r#"…"#` starting at the `r`'s
    /// hashes: `text` holds the prefix so far, `pos` is at the first `#` or
    /// the opening quote.
    fn raw_string(&mut self, line: u32, mut text: String) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push(self.bump().unwrap_or_default());
        }
        if self.peek(0) != Some('"') {
            // `r#ident` raw identifier (or stray `r#`): emit as ident.
            let mut ident = String::new();
            while let Some(c) = self.peek(0) {
                if is_ident_continue(c) {
                    ident.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push_token(TokenKind::Ident, ident, line);
            return;
        }
        text.push(self.bump().unwrap_or_default()); // opening quote
        let closer: String = std::iter::once('"')
            .chain("#".repeat(hashes).chars())
            .collect();
        let mut tail = String::new();
        while let Some(c) = self.bump() {
            text.push(c);
            tail.push(c);
            if tail.len() > closer.len() {
                tail.remove(0);
            }
            if tail == closer {
                break;
            }
        }
        self.push_token(TokenKind::Literal, text, line);
    }

    fn char_or_lifetime(&mut self, line: u32) {
        // `'a` is a lifetime unless a closing quote follows (`'a'`).
        if let Some(next) = self.peek(1) {
            if is_ident_start(next) && self.peek(2) != Some('\'') {
                let mut text = String::from("'");
                self.bump();
                while let Some(c) = self.peek(0) {
                    if is_ident_continue(c) {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push_token(TokenKind::Lifetime, text, line);
                return;
            }
        }
        let mut text = String::from("'");
        self.bump();
        match self.bump() {
            Some('\\') => {
                text.push('\\');
                if let Some(escaped) = self.bump() {
                    text.push(escaped);
                }
            }
            Some(c) => text.push(c),
            None => {}
        }
        if self.peek(0) == Some('\'') {
            text.push('\'');
            self.bump();
        }
        self.push_token(TokenKind::Literal, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else if c == '.' {
                // Take the dot only for a fractional part; `0..n` is a
                // range, and the dots must stay punctuation.
                match self.peek(1) {
                    Some(d) if d.is_ascii_digit() => {
                        text.push(c);
                        self.bump();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        self.push_token(TokenKind::Literal, text, line);
    }

    fn ident_or_prefixed_literal(&mut self, line: u32) {
        let c = self.peek(0).unwrap_or_default();
        // String-literal prefixes: r"", r#""#, b"", b'', br"", rb is not a
        // thing; c-strings (c"") exist since 1.77 but are unused here and
        // lex as ident + string, which is still safe.
        if c == 'r' {
            match self.peek(1) {
                Some('"') | Some('#') => {
                    self.bump();
                    self.raw_string(line, String::from("r"));
                    return;
                }
                _ => {}
            }
        }
        if c == 'b' {
            match self.peek(1) {
                Some('"') => {
                    self.bump();
                    self.bump();
                    self.string_body(line, String::from("b\""));
                    return;
                }
                Some('\'') => {
                    self.bump();
                    self.char_or_lifetime(line);
                    return;
                }
                Some('r') if matches!(self.peek(2), Some('"') | Some('#')) => {
                    self.bump();
                    self.bump();
                    self.raw_string(line, String::from("br"));
                    return;
                }
                _ => {}
            }
        }
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_token(TokenKind::Ident, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(source: &str) -> Vec<String> {
        lex(source)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let lexed = lex("let x = 1; // foo.unwrap() here\n/* and\n * panic! there */ y");
        assert!(lexed.tokens.iter().all(|t| !t.text.contains("unwrap")));
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("unwrap"));
        assert!(lexed.comments[1].text.contains("panic"));
        assert_eq!(lexed.tokens.last().unwrap().text, "y");
        assert_eq!(lexed.tokens.last().unwrap().line, 3);
    }

    #[test]
    fn doc_comments_quoting_apis_are_comments() {
        let lexed = lex("/// call `x.unwrap()` and `Instant::now()`\nfn f() {}");
        assert!(lexed.tokens.iter().all(|t| t.text != "unwrap"));
        assert_eq!(lexed.comments.len(), 1);
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("/* a /* nested */ still comment */ token");
        assert_eq!(lexed.tokens.len(), 1);
        assert_eq!(lexed.tokens[0].text, "token");
    }

    #[test]
    fn strings_hide_their_contents() {
        let lexed = lex(r#"let s = "HashMap::new() // not a comment"; t"#);
        assert!(idents(r#"let s = "HashMap::new()"; t"#)
            .iter()
            .all(|i| i != "HashMap"));
        assert_eq!(lexed.comments.len(), 0);
        assert_eq!(lexed.tokens.last().unwrap().text, "t");
    }

    #[test]
    fn raw_and_byte_strings() {
        let lexed = lex(r###"let a = r#"thread::spawn " inside"#; let b = br"bytes"; c"###);
        assert!(lexed.tokens.iter().all(|t| t.text != "thread"));
        assert_eq!(lexed.tokens.last().unwrap().text, "c");
        // Raw identifiers still lex as identifiers.
        assert_eq!(idents("r#fn x"), vec!["fn", "x"]);
    }

    #[test]
    fn escaped_quotes_in_strings() {
        let lexed = lex(r#"let s = "a\"b"; after"#);
        assert_eq!(lexed.tokens.last().unwrap().text, "after");
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a u8) { let c = 'x'; let q = '\\''; }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal && t.text.starts_with('\''))
            .collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let lexed = lex("for i in 0..10 { a[4..4 + len]; 1.5; }");
        let dots = lexed.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 4, "two range expressions, two dots each");
        assert!(lexed.tokens.iter().any(|t| t.text == "1.5"));
    }

    #[test]
    fn line_numbers_are_tracked_through_multiline_literals() {
        let lexed = lex("let s = \"line\nline\nline\";\nafter");
        let after = lexed.tokens.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 4);
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        lex("let s = \"never closed");
        lex("/* never closed");
        lex("let c = 'x");
        lex("let r = r#\"never closed");
    }
}
