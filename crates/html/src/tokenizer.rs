//! A lenient HTML tokenizer.
//!
//! Produces a flat stream of [`Token`]s from arbitrary input without ever
//! failing: malformed constructs degrade to text or bogus comments, the
//! way browsers treat them. Raw-text elements (`script`, `style`,
//! `textarea`, `title`, `xmp`) switch the tokenizer into a mode where the
//! content is scanned only for the matching close tag.

use crate::entities;
use msite_support::swar;

/// One lexical token of HTML input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// `<!DOCTYPE ...>`
    Doctype {
        /// Root element name (lowercased), e.g. `html`.
        name: String,
        /// PUBLIC identifier or empty.
        public_id: String,
        /// SYSTEM identifier or empty.
        system_id: String,
    },
    /// An opening tag such as `<div id="x">`.
    StartTag {
        /// Lowercased tag name.
        name: String,
        /// Attributes in source order; duplicate names keep the first value.
        attrs: Vec<(String, String)>,
        /// True for `<br/>`-style tags.
        self_closing: bool,
    },
    /// A closing tag such as `</div>`.
    EndTag {
        /// Lowercased tag name.
        name: String,
    },
    /// Character data with entities already decoded. Raw-text element
    /// contents (script/style) are delivered verbatim, undecoded.
    Text(String),
    /// `<!-- ... -->` contents.
    Comment(String),
}

/// Element names whose content is raw text (no nested markup).
pub const RAW_TEXT_ELEMENTS: &[&str] = &["script", "style", "textarea", "title", "xmp"];

/// Raw-text elements whose content should still be entity-decoded.
const ESCAPABLE_RAW_TEXT: &[&str] = &["textarea", "title"];

/// Streaming tokenizer over a borrowed input string.
///
/// # Examples
///
/// ```
/// use msite_html::tokenizer::{Token, Tokenizer};
///
/// let tokens: Vec<Token> = Tokenizer::new("<p>hi</p>").collect();
/// assert_eq!(tokens.len(), 3);
/// ```
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// When set, we are inside a raw-text element with this (lowercase) name.
    raw_text_tag: Option<String>,
    /// Queued token to emit after the current one (used for raw text
    /// followed by its end tag).
    pending: Option<Token>,
    /// Forces the per-byte reference scans instead of the SWAR fast
    /// paths. Reachable only through [`Tokenizer::new_scalar`]; the two
    /// modes are pinned byte-identical by
    /// `crates/html/tests/swar_identity.rs`.
    scalar: bool,
}

impl<'a> Tokenizer<'a> {
    /// Creates a tokenizer over `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer {
            input,
            pos: 0,
            raw_text_tag: None,
            pending: None,
            scalar: false,
        }
    }

    /// Creates a tokenizer that uses the per-byte reference scans —
    /// the identity-gate twin of [`Tokenizer::new`].
    #[doc(hidden)]
    pub fn new_scalar(input: &'a str) -> Self {
        Tokenizer {
            scalar: true,
            ..Tokenizer::new(input)
        }
    }

    /// Index of the next `<` in `s`: word-at-a-time normally, per-byte
    /// in scalar mode.
    fn find_lt(&self, s: &str) -> Option<usize> {
        if self.scalar {
            s.as_bytes().iter().position(|&b| b == b'<')
        } else {
            swar::find_byte(s.as_bytes(), b'<')
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek_byte(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn eof(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// Scans raw-text content until the matching `</tag` close sequence.
    fn next_raw_text(&mut self, tag: &str) -> Option<Token> {
        let rest = self.rest();
        let close_at = if self.scalar {
            raw_close_scalar(rest, tag)
        } else {
            raw_close_swar(rest, tag)
        };
        match close_at {
            Some(at) => {
                let content = &rest[..at];
                self.bump(at);
                // Consume through the terminating '>'.
                let after = self.rest();
                let gt = after.find('>').map(|i| i + 1).unwrap_or(after.len());
                self.bump(gt);
                self.raw_text_tag = None;
                let end = Token::EndTag {
                    name: tag.to_string(),
                };
                if content.is_empty() {
                    Some(end)
                } else {
                    self.pending = Some(end);
                    Some(Token::Text(self.decode_raw(tag, content)))
                }
            }
            None => {
                // Unterminated raw text: the remainder is content.
                let content = rest;
                self.pos = self.input.len();
                self.raw_text_tag = None;
                if content.is_empty() {
                    None
                } else {
                    Some(Token::Text(self.decode_raw(tag, content)))
                }
            }
        }
    }

    fn decode_raw(&self, tag: &str, content: &str) -> String {
        if ESCAPABLE_RAW_TEXT.contains(&tag) {
            self.decode_text(content)
        } else {
            content.to_string()
        }
    }

    /// Entity-decodes `text` via the mode-matching codec path.
    fn decode_text(&self, text: &str) -> String {
        if self.scalar {
            entities::decode_scalar(text)
        } else {
            entities::decode(text)
        }
    }

    /// Parses a tag that begins at `<` (already verified). Returns the
    /// token, or `None` to mean "treat the `<` as literal text".
    fn next_tag(&mut self) -> Option<Token> {
        let rest = self.rest();
        debug_assert!(rest.starts_with('<'));
        let after = &rest[1..];

        if let Some(stripped) = after.strip_prefix("!--") {
            // Comment.
            let (content, consumed) = match stripped.find("-->") {
                Some(end) => (&stripped[..end], 1 + 3 + end + 3),
                None => (stripped, rest.len()),
            };
            self.bump(consumed);
            return Some(Token::Comment(content.to_string()));
        }
        if after.len() >= 8 && after.as_bytes()[..8].eq_ignore_ascii_case(b"!doctype") {
            let body_start = 1 + 8;
            let end = rest.find('>').unwrap_or(rest.len());
            let body = &rest[body_start..end.min(rest.len())];
            self.bump((end + 1).min(rest.len()));
            return Some(parse_doctype(body));
        }
        if after.starts_with('!') || after.starts_with('?') {
            // Bogus comment: `<!foo>` or `<?xml ...?>`.
            let end = rest.find('>').unwrap_or(rest.len());
            let content = &rest[2..end.min(rest.len())];
            self.bump((end + 1).min(rest.len()));
            return Some(Token::Comment(content.to_string()));
        }
        if let Some(name_part) = after.strip_prefix('/') {
            // End tag.
            let name_len = tag_name_len(name_part);
            if name_len == 0 {
                // `</>` or `</3>`: bogus, skip to '>' as comment-ish text.
                let end = rest.find('>').unwrap_or(rest.len());
                self.bump((end + 1).min(rest.len()));
                return Some(Token::Comment(String::new()));
            }
            let name = name_part[..name_len].to_ascii_lowercase();
            let close = rest.find('>').map(|i| i + 1).unwrap_or(rest.len());
            self.bump(close);
            return Some(Token::EndTag { name });
        }
        let name_len = tag_name_len(after);
        if name_len == 0 {
            return None; // literal '<'
        }
        let name = after[..name_len].to_ascii_lowercase();
        // Attribute parsing.
        let mut cursor = 1 + name_len;
        let bytes = rest.as_bytes();
        let mut attrs: Vec<(String, String)> = Vec::new();
        let mut self_closing = false;
        loop {
            while cursor < bytes.len() && bytes[cursor].is_ascii_whitespace() {
                cursor += 1;
            }
            if cursor >= bytes.len() {
                break;
            }
            match bytes[cursor] {
                b'>' => {
                    cursor += 1;
                    break;
                }
                b'/' => {
                    if bytes.get(cursor + 1) == Some(&b'>') {
                        self_closing = true;
                        cursor += 2;
                        break;
                    }
                    cursor += 1;
                }
                _ => {
                    let (attr, consumed) = parse_attribute(&rest[cursor..], self.scalar);
                    cursor += consumed;
                    if let Some((k, v)) = attr {
                        if !attrs.iter().any(|(name, _)| *name == k) {
                            attrs.push((k, v));
                        }
                    } else {
                        // No progress possible; avoid an infinite loop.
                        cursor += 1;
                    }
                }
            }
        }
        self.bump(cursor);
        if !self_closing && RAW_TEXT_ELEMENTS.contains(&name.as_str()) {
            self.raw_text_tag = Some(name.clone());
        }
        Some(Token::StartTag {
            name,
            attrs,
            self_closing,
        })
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token;

    fn next(&mut self) -> Option<Token> {
        if let Some(tok) = self.pending.take() {
            return Some(tok);
        }
        if self.eof() {
            return None;
        }
        if let Some(tag) = self.raw_text_tag.clone() {
            return self.next_raw_text(&tag);
        }
        if self.peek_byte() == Some(b'<') {
            if let Some(tok) = self.next_tag() {
                return Some(tok);
            }
            // Literal '<': fall through to text accumulation starting at it.
            let rest = self.rest();
            let next_lt = self
                .find_lt(&rest[1..])
                .map(|i| i + 1)
                .unwrap_or(rest.len());
            let text = &rest[..next_lt];
            self.bump(next_lt);
            return Some(Token::Text(self.decode_text(text)));
        }
        // Text run until the next '<'.
        let rest = self.rest();
        let end = self.find_lt(rest).unwrap_or(rest.len());
        let text = &rest[..end];
        self.bump(end);
        Some(Token::Text(self.decode_text(text)))
    }
}

/// Finds the `</tag` close sequence (case-insensitive, boundary-checked)
/// without allocating: hop between `<` bytes a word at a time, then
/// compare the candidate name with a branchless case fold.
fn raw_close_swar(rest: &str, tag: &str) -> Option<usize> {
    let bytes = rest.as_bytes();
    let tag_bytes = tag.as_bytes();
    let mut from = 0;
    loop {
        let at = from + swar::find_byte(&bytes[from..], b'<')?;
        let name_start = at + 2;
        if bytes.get(at + 1) == Some(&b'/')
            && bytes.len() >= name_start + tag_bytes.len()
            && swar::eq_ignore_case(&bytes[name_start..name_start + tag_bytes.len()], tag_bytes)
        {
            // Must be followed by whitespace, '/', '>' or EOF to count.
            match bytes.get(name_start + tag_bytes.len()) {
                None | Some(b'>') | Some(b'/') | Some(b' ') | Some(b'\t') | Some(b'\n')
                | Some(b'\r') => return Some(at),
                _ => {}
            }
        }
        from = at + 1;
    }
}

/// The original close-tag search — lowercases the whole remainder, then
/// substring-searches — kept as [`raw_close_swar`]'s identity twin.
fn raw_close_scalar(rest: &str, tag: &str) -> Option<usize> {
    let lower = rest.to_ascii_lowercase();
    let needle = format!("</{tag}");
    let mut search_from = 0;
    loop {
        match lower[search_from..].find(&needle) {
            Some(rel) => {
                let at = search_from + rel;
                // Must be followed by whitespace, '/', '>' or EOF to count.
                match lower.as_bytes().get(at + needle.len()) {
                    None | Some(b'>') | Some(b'/') | Some(b' ') | Some(b'\t') | Some(b'\n')
                    | Some(b'\r') => break Some(at),
                    _ => search_from = at + 1,
                }
            }
            None => break None,
        }
    }
}

/// Length of a tag name: letters, digits, `-`, `_`, `:` after an initial
/// ASCII letter.
fn tag_name_len(s: &str) -> usize {
    let bytes = s.as_bytes();
    if bytes.first().map(|b| b.is_ascii_alphabetic()) != Some(true) {
        return 0;
    }
    bytes
        .iter()
        .take_while(|b| b.is_ascii_alphanumeric() || **b == b'-' || **b == b'_' || **b == b':')
        .count()
}

/// Parses one attribute starting at a non-space byte. Returns the pair and
/// the number of bytes consumed. `scalar` selects the per-byte reference
/// scans for the quoted-value delimiter and entity decode.
fn parse_attribute(s: &str, scalar: bool) -> (Option<(String, String)>, usize) {
    let decode = if scalar {
        entities::decode_scalar
    } else {
        entities::decode
    };
    let bytes = s.as_bytes();
    let name_len = bytes
        .iter()
        .take_while(|b| !b.is_ascii_whitespace() && **b != b'=' && **b != b'>' && **b != b'/')
        .count();
    if name_len == 0 {
        return (None, 0);
    }
    let name = s[..name_len].to_ascii_lowercase();
    let mut cursor = name_len;
    while cursor < bytes.len() && bytes[cursor].is_ascii_whitespace() {
        cursor += 1;
    }
    if bytes.get(cursor) != Some(&b'=') {
        // Boolean attribute such as `checked`.
        return (Some((name, String::new())), name_len);
    }
    cursor += 1;
    while cursor < bytes.len() && bytes[cursor].is_ascii_whitespace() {
        cursor += 1;
    }
    match bytes.get(cursor) {
        Some(&q @ (b'"' | b'\'')) => {
            cursor += 1;
            let start = cursor;
            // The closing quote is a single-byte delimiter: hop to it a
            // word at a time rather than per byte.
            cursor += if scalar {
                bytes[start..].iter().position(|&b| b == q)
            } else {
                swar::find_byte(&bytes[start..], q)
            }
            .unwrap_or(bytes.len() - start);
            let value = decode(&s[start..cursor]);
            if cursor < bytes.len() {
                cursor += 1; // closing quote
            }
            (Some((name, value)), cursor)
        }
        Some(_) => {
            let start = cursor;
            while cursor < bytes.len()
                && !bytes[cursor].is_ascii_whitespace()
                && bytes[cursor] != b'>'
            {
                cursor += 1;
            }
            let value = decode(&s[start..cursor]);
            (Some((name, value)), cursor)
        }
        None => (Some((name, String::new())), cursor),
    }
}

/// Parses the interior of a doctype declaration (after `<!DOCTYPE`).
fn parse_doctype(body: &str) -> Token {
    let mut words = SplitQuoted::new(body.trim());
    let name = words
        .next()
        .map(|w| w.to_ascii_lowercase())
        .unwrap_or_default();
    let mut public_id = String::new();
    let mut system_id = String::new();
    while let Some(word) = words.next() {
        if word.eq_ignore_ascii_case("public") {
            if let Some(id) = words.next() {
                public_id = id;
            }
            if let Some(id) = words.next() {
                system_id = id;
            }
        } else if word.eq_ignore_ascii_case("system") {
            if let Some(id) = words.next() {
                system_id = id;
            }
        }
    }
    Token::Doctype {
        name,
        public_id,
        system_id,
    }
}

/// Splits a string on whitespace, treating quoted runs as single items
/// with quotes stripped.
struct SplitQuoted<'a> {
    rest: &'a str,
}

impl<'a> SplitQuoted<'a> {
    fn new(s: &'a str) -> Self {
        SplitQuoted { rest: s }
    }
}

impl<'a> Iterator for SplitQuoted<'a> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let s = self.rest.trim_start();
        if s.is_empty() {
            self.rest = s;
            return None;
        }
        let bytes = s.as_bytes();
        if bytes[0] == b'"' || bytes[0] == b'\'' {
            let q = bytes[0];
            let end = s[1..].find(q as char).map(|i| i + 1).unwrap_or(s.len());
            let item = s[1..end].to_string();
            self.rest = &s[(end + 1).min(s.len())..];
            Some(item)
        } else {
            let end = s.find(|c: char| c.is_ascii_whitespace()).unwrap_or(s.len());
            let item = s[..end].to_string();
            self.rest = &s[end..];
            Some(item)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        Tokenizer::new(input).collect()
    }

    fn start(name: &str, attrs: &[(&str, &str)]) -> Token {
        Token::StartTag {
            name: name.to_string(),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            self_closing: false,
        }
    }

    fn end(name: &str) -> Token {
        Token::EndTag {
            name: name.to_string(),
        }
    }

    fn text(t: &str) -> Token {
        Token::Text(t.to_string())
    }

    #[test]
    fn simple_element() {
        assert_eq!(
            toks("<p>hi</p>"),
            vec![start("p", &[]), text("hi"), end("p")]
        );
    }

    #[test]
    fn attributes_quoted_unquoted_boolean() {
        assert_eq!(
            toks(r#"<input type="text" value=abc disabled>"#),
            vec![start(
                "input",
                &[("type", "text"), ("value", "abc"), ("disabled", "")]
            )]
        );
    }

    #[test]
    fn single_quoted_and_entity_values() {
        assert_eq!(
            toks("<a href='x?a=1&amp;b=2'>"),
            vec![start("a", &[("href", "x?a=1&b=2")])]
        );
    }

    #[test]
    fn uppercase_lowered() {
        assert_eq!(
            toks("<DIV CLASS='A'></DIV>"),
            vec![start("div", &[("class", "A")]), end("div")]
        );
    }

    #[test]
    fn self_closing_flag() {
        assert_eq!(
            toks("<br/><img src=x />"),
            vec![
                Token::StartTag {
                    name: "br".into(),
                    attrs: vec![],
                    self_closing: true
                },
                Token::StartTag {
                    name: "img".into(),
                    attrs: vec![("src".into(), "x".into())],
                    self_closing: true
                },
            ]
        );
    }

    #[test]
    fn duplicate_attrs_first_wins() {
        assert_eq!(
            toks(r#"<a id="one" id="two">"#),
            vec![start("a", &[("id", "one")])]
        );
    }

    #[test]
    fn comments() {
        assert_eq!(
            toks("a<!-- b --><!--unterminated"),
            vec![
                text("a"),
                Token::Comment(" b ".into()),
                Token::Comment("unterminated".into())
            ]
        );
    }

    #[test]
    fn doctype_simple() {
        assert_eq!(
            toks("<!DOCTYPE html>"),
            vec![Token::Doctype {
                name: "html".into(),
                public_id: String::new(),
                system_id: String::new()
            }]
        );
    }

    #[test]
    fn doctype_public() {
        let t = toks(
            r#"<!DOCTYPE HTML PUBLIC "-//W3C//DTD XHTML 1.0 Transitional//EN" "http://www.w3.org/TR/xhtml1/DTD/xhtml1-transitional.dtd">"#,
        );
        assert_eq!(
            t,
            vec![Token::Doctype {
                name: "html".into(),
                public_id: "-//W3C//DTD XHTML 1.0 Transitional//EN".into(),
                system_id: "http://www.w3.org/TR/xhtml1/DTD/xhtml1-transitional.dtd".into()
            }]
        );
    }

    #[test]
    fn script_raw_text_not_parsed() {
        assert_eq!(
            toks("<script>if (a < b) { x(\"</div>\"); }</script>"),
            vec![
                start("script", &[]),
                text("if (a < b) { x(\"</div>\"); }"),
                end("script"),
            ]
        );
    }

    #[test]
    fn script_close_inside_string_is_honored_leniently() {
        // Like browsers, the first real `</script` terminator wins.
        let t = toks("<script>var s = 1;</script >after");
        assert_eq!(
            t,
            vec![
                start("script", &[]),
                text("var s = 1;"),
                end("script"),
                text("after")
            ]
        );
    }

    #[test]
    fn title_content_entity_decoded() {
        assert_eq!(
            toks("<title>Tom &amp; Jerry</title>"),
            vec![start("title", &[]), text("Tom & Jerry"), end("title")]
        );
    }

    #[test]
    fn unterminated_script_consumes_rest() {
        assert_eq!(
            toks("<script>var x = '<div>';"),
            vec![start("script", &[]), text("var x = '<div>';")]
        );
    }

    #[test]
    fn literal_less_than_in_text() {
        assert_eq!(toks("a < b"), vec![text("a "), text("< b")]);
    }

    #[test]
    fn entities_in_text() {
        assert_eq!(toks("&lt;x&gt; &#65;"), vec![text("<x> A")]);
    }

    #[test]
    fn processing_instruction_is_bogus_comment() {
        assert_eq!(
            toks("<?xml version=\"1.0\"?>ok"),
            vec![Token::Comment("xml version=\"1.0\"?".into()), text("ok")]
        );
    }

    #[test]
    fn empty_end_tag_is_bogus() {
        let t = toks("</>x");
        assert_eq!(t, vec![Token::Comment(String::new()), text("x")]);
    }

    #[test]
    fn end_tag_with_attrs_ignores_them() {
        assert_eq!(toks("</div class='x'>"), vec![end("div")]);
    }

    #[test]
    fn unterminated_tag_at_eof() {
        let t = toks("<div class=");
        assert_eq!(t, vec![start("div", &[("class", "")])]);
    }

    #[test]
    fn textarea_raw_text() {
        assert_eq!(
            toks("<textarea><b>not bold</b></textarea>"),
            vec![
                start("textarea", &[]),
                text("<b>not bold</b>"),
                end("textarea")
            ]
        );
    }

    #[test]
    fn script_immediately_closed() {
        assert_eq!(
            toks("<script></script>"),
            vec![start("script", &[]), end("script")]
        );
    }

    #[test]
    fn fake_close_tag_prefix_inside_script() {
        assert_eq!(
            toks("<script>a</scriptfoo>b</script>"),
            vec![start("script", &[]), text("a</scriptfoo>b"), end("script"),]
        );
    }
}
